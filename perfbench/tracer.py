"""Span tracer that wraps hierfed's public functions from outside the package.

Each wrapped function is replaced at the name its caller looks up (a module
attribute or a class attribute) and restored by `Tracer.restore`. Coarse
calls (config load, task build, engine run, optimizer solve, ...) are kept
as individual spans with name, start, end, parent and run id. Hot leaf calls
(about 30k gradient calls per engine round) are aggregated as count, total
and self time per (name, parent name, hop).

A span's self time is its duration minus the time covered by its wrapped
children, so the self times of all spans inside an operation add up to the
operation's wall time.
"""

from __future__ import annotations

import contextlib
from time import perf_counter


class TraceError(RuntimeError):
    """The recorded spans do not account for the traced wall time."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}  # (name, parent, hop) -> [count, total_s, self_s, items]
        self.run_id = -1
        self.hops: dict[int, int] = {}  # id(QuantizerSpec) -> 1-based hop
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open frames: [name, child_s, span_id]
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[list, list | None]:
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent

    def _close_coarse(self, frame, parent, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        if parent is not None:
            parent[1] += dur
        self.spans.append(
            {
                "id": frame[2],
                "name": frame[0],
                "start": start,
                "end": end,
                "parent": parent[2] if parent else None,
                "run": self.run_id,
                "self": dur - frame[1],
            }
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """A coarse span opened by the benchmark itself."""
        frame, parent = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close_coarse(frame, parent, start, perf_counter())

    def coarse(self, name: str, fn, on_call=None, on_return=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame, parent = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_coarse(frame, parent, start, perf_counter())
            return on_return(result) if on_return is not None else result

        return wrapper

    def leaf(self, name: str, fn, hop_of=None):
        stack, leaves = self._stack, self.leaves

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, parent[2] if parent else None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                hop, items = hop_of(args) if hop_of is not None else (None, 0)
                key = (name, parent[0] if parent else None, hop)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                agg[3] += items
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        """Replace owner.attr by wrapper_factory(original); remember how to undo it."""
        own = vars(owner)
        had_own = attr in own
        saved = own.get(attr)
        setattr(owner, attr, wrapper_factory(getattr(owner, attr)))
        self._patched.append((owner, attr, had_own, saved))

    def restore(self) -> None:
        while self._patched:
            owner, attr, had_own, saved = self._patched.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # -- summaries ---------------------------------------------------------

    def self_by_module(self) -> dict[str, float]:
        """Self time per module prefix ('engine', 'tasks', ...) over all spans."""
        out: dict[str, float] = {}
        for sp in self.spans:
            mod = sp["name"].split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + sp["self"]
        for (name, _, _), agg in self.leaves.items():
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + agg[2]
        return out

    def check_accounting(self, root: str, rel_tol: float = 1e-6) -> None:
        """Module self times must add up to the wall time of the root spans.

        A mismatch means a span was double counted or lost, so the
        per-module table would be wrong.
        """
        wall = sum(sp["end"] - sp["start"] for sp in self.spans if sp["name"] == root)
        covered = sum(self.self_by_module().values())
        if abs(covered - wall) > rel_tol * wall + 1e-9:
            raise TraceError(f"module self times {covered:.6f}s != traced wall {wall:.6f}s")
        if self._stack:
            raise TraceError(f"{len(self._stack)} spans still open")

    def leaf_total(self, name: str, parent: str | None = ..., hop=...) -> tuple[int, float, float, int]:
        """Summed (count, total_s, self_s, items) of the matching leaf aggregates."""
        out = [0, 0.0, 0.0, 0]
        for (n, p, h), agg in self.leaves.items():
            if n == name and (parent is ... or p == parent) and (hop is ... or h == hop):
                for k in range(4):
                    out[k] += agg[k]
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "leaves": [
                {"name": n, "parent": p, "hop": h, "count": a[0], "total_s": a[1], "self_s": a[2], "items": a[3]}
                for (n, p, h), a in sorted(self.leaves.items(), key=lambda kv: str(kv[0]))
            ],
        }
