"""hierfed benchmark: seeded workloads, end-to-end metrics, traced per-module table.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload quadratic_deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

`--trace 0` times operations with tracing off and prints the end-to-end
metrics; `--trace 1` runs each operation untraced and then again with every
module's public functions wrapped, and prints the per-module metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. End-to-end times are
process CPU seconds (a shared VM's host steals bursts of wall time); the
traced per-module times are wall clock. Operations run one at a time in this
process; BLAS and OpenMP are pinned to one thread. The full
record of a run (environment, every operation, spans) is written under
.perfbench_out/ in the checkout. `--workload all` runs every workload in
turn; there peak_rss_mb is the process peak so far.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_PINS:  # before numpy loads: the installed OpenBLAS is multi-threaded
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hierfed" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hierfed sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import hierfed  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make_workloads  # noqa: E402

if Path(hierfed.__file__).resolve().parent != SRC / "hierfed":
    sys.exit(f"perfbench: imported hierfed from {hierfed.__file__}, not from {SRC}")

OUT = ROOT / ".perfbench_out"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "git_commit": _git_commit(),
        # informational, tracked as a design number rather than gated
        "src_hierfed_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "hierfed").glob("*.py"))),
    }


def run_pass(workload, seed, seconds, min_ops, workdir, tracer=None, indices=None):
    """Run operations one at a time; `check_all` checks them afterwards.

    Without `indices` the pass runs operations 0, 1, ... until about
    `seconds` have passed (and at least `min_ops`); with `indices` it repeats
    exactly those operations.
    """
    ops = []
    start = perf_counter()
    index = 0
    with workload.session():
        while True:
            if indices is not None:
                if len(ops) == len(indices):
                    break
                index = indices[len(ops)]
            elif len(ops) >= min_ops:
                walls = [op.wall_s for op in ops if math.isfinite(op.wall_s)]
                typical = statistics.median(walls) if walls else 0.0
                if perf_counter() - start + 0.5 * typical >= seconds:
                    break
            op = workload.prepare(seed, index, workdir)
            steps_before = tracer.leaf_total("tasks.stochastic_gradient", parent="engine.run")[0] if tracer else 0
            try:
                if tracer is None:
                    workload.execute(op)
                else:
                    tracer.run_id = index
                    with tracer.span(layers.ROOT_SPAN):
                        workload.execute(op)
            except Exception as exc:  # a raising operation is a failed operation, never dropped
                op.errors.append(f"{type(exc).__name__}: {exc}")
            if tracer is not None and workload.kind == "run":
                op.info["device_steps"] = tracer.leaf_total("tasks.stochastic_gradient", parent="engine.run")[0] - steps_before
            ops.append(op)
            index += 1
    return ops


def traced_pairs(workload, seed, seconds, workdir):
    """Run operation i untraced, then traced, for i = 0, 1, ... until about
    `seconds` have passed. The two runs of an operation are adjacent in
    time, so the host's slow and fast spells hit both alike and
    trace_overhead_frac compares like with like. Each run is checked before
    the next one reuses its output directory."""
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while True:
        if untraced:
            typical = statistics.median(u.wall_s + t.wall_s for u, t in zip(untraced, traced))
            if perf_counter() - start + 0.5 * typical >= seconds:
                break
        index = len(untraced)
        untraced += run_pass(workload, seed, 0, 0, workdir, indices=[index])
        check_all(workload, untraced[-1:])
        layers.instrument(tracer)
        try:
            traced += run_pass(workload, seed, 0, 0, workdir, tracer, [index])
        finally:
            tracer.restore()
        check_all(workload, traced[-1:])
    return tracer, untraced, traced


def check_all(workload, ops) -> None:
    """Check every operation's outputs, untimed and untraced."""
    for op in ops:
        if not op.errors:
            try:
                workload.check(op)
            except Exception as exc:  # a check that cannot run fails the operation
                op.errors.append(f"check raised {type(exc).__name__}: {exc}")


def _tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _median_per_input(ops, attr: str) -> float:
    """Median over distinct inputs of each input's median: an input run
    twice in a pass weighs as much as one run once."""
    by_key: dict = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(getattr(op, attr))
    return statistics.median(statistics.median(v) for v in by_key.values())


def end_to_end(workload, ops) -> tuple[dict, dict]:
    """Gated metrics (name -> (value, unit)) and the wider report table."""
    timed = [op for op in ops if math.isfinite(op.cpu_s)]
    metrics = {}
    if timed:
        metrics["setup_s"] = (_median_per_input(timed, "setup_s"), "s")
        metrics["cpu_s"] = (_median_per_input(timed, "cpu_s"), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    failed = sum(bool(op.errors) for op in ops)
    report = dict(metrics)
    report["wall_s"] = (_median_per_input(timed, "wall_s"), "s (wall clock)") if timed else (None, "n/a")
    report["failed_frac"] = (failed / len(ops), f"ratio ({failed}/{len(ops)})")
    if workload.kind == "run" and timed:
        steps = sum(workload.expected_device_steps(op) for op in timed)
        report["train_steps_per_s"] = (steps / sum(op.cpu_s - op.setup_s for op in timed), "steps/s")
    else:
        report["train_steps_per_s"] = (None, "n/a")
    solves = [op.info["solve_s"] * 1e3 for op in timed if "solve_s" in op.info]
    tail = _tail(solves)
    report["solve_p50_ms"] = (statistics.median(solves), "ms") if solves else (None, "n/a")
    report["solve_tail_ms"] = (
        (tail[1], f"ms (p{tail[0]:.1f} of {len(solves)})") if tail else (None, f"n/a ({len(solves)} solves)")
    )
    return metrics, report


def _print_table(title: str, rows: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s}  {unit}")


def bench(name: str, seed: int, seconds: float, trace: int, tiny: bool = False, out_root: Path = OUT) -> dict:
    """Run one workload and return the result object printed as the last line."""
    workload = make_workloads(tiny)[name]
    tag = f"{name}-s{seed}-t{trace}"
    workdir = out_root / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = {"workload": name, "why": workload.why, "seed": seed, "seconds": seconds, "trace": trace}
    record["environment"] = environment()
    print(f"# {tag}: {workload.why}")
    print(f"# environment {json.dumps(record['environment'])}")

    if trace:
        tracer, untraced, traced = traced_pairs(workload, seed, seconds, workdir)
        tracer.check_accounting(layers.ROOT_SPAN)
        ops = untraced + traced
        metrics = layers.per_layer_metrics(tracer, traced, untraced)
        _print_table(f"{name}: per-module metrics, per operation ({len(traced)} traced)", metrics)
        shares = layers.module_self_shares(tracer)
        _print_table(f"{name}: self-time share of traced wall", {k: (v, "ratio") for k, v in shares.items()})
        record["trace"] = tracer.to_json()
        record["module_self_share"] = shares
    else:
        ops = run_pass(workload, seed, seconds, workload.min_ops, workdir)
        check_all(workload, ops)
        metrics, report = end_to_end(workload, ops)
        _print_table(f"{name}: end-to-end, median per input ({len(ops)} operations)", report)
        record["report"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}

    failed = [op for op in ops if op.errors]
    for op in failed[:5]:
        print(f"perfbench: {name} operation {op.index} failed: {'; '.join(op.errors)}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    record["operations"] = [
        {"index": op.index, "key": op.key, "setup_s": op.setup_s, "cpu_s": op.cpu_s, "wall_s": op.wall_s, "info": op.info, "errors": op.errors}
        for op in ops
    ]
    with open(out_root / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result


def main(argv: list[str] | None = None) -> int:
    names = list(make_workloads())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in names if args.workload == "all" else [args.workload]:
        result = bench(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
