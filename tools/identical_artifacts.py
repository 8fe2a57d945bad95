"""Check that this source tree writes the same artifacts as a parent checkout.

Usage, from anywhere:

    python3 tools/identical_artifacts.py PARENT_CHECKOUT

PARENT_CHECKOUT is the root of another checkout (a `git archive` or
`git clone` of the parent commit), holding `src/hierfed`. The script runs
`hierfed run`, `theory`, `optimize` and `compare-depths --depths N` (N the
config's own depth) on each config below, once with this tree's `src` and
once with the parent's, every invocation in its own subprocess with that
tree's `src` first on PYTHONPATH and BLAS pinned to one thread. The configs:

* the README example config, plus `compare-depths --depths 6 3 2 1` on it
  with per-depth taus;
* perfbench's `quadratic_deep_config` and `tiny_mlp_config`, tiny true and
  false, seeds 12345, 7 and 99, `weighted` false and true;
* one logistic variant of the tiny `tiny_mlp_config`.

For each invocation it compares the exit code, stdout, stderr (with each
tree's path masked) and the bytes of every file written. It also runs
`gp_optimizer.optimize`, in one subprocess per tree, on 2,000 specs:
perfbench's `oracle_instance(s, i)` for every seed s in ORACLE_SEEDS and
index i in ORACLE_INDICES (1,000 instances; seed 0 is the benchmark's pool),
and the first draws of `tests/test_gp_optimizer.py`'s spec generators in
SPEC_DRAWS (400 `random_spec` draws from `default_rng(5)` and 600
`tight_spec` draws from `default_rng(2026)`). It compares every
`OptimizerResult` field by its repr, so exactly, or the exception class and
message. It runs `theory.condition_lhs`,
`max_feasible_mu` and `rate_bound`, in one subprocess per tree, on
THEORY_TREES seeded ragged trees (depth 1-5, tau log-uniform in 1-200, q = 0
in a fifth of cases and U(0, 3) otherwise, L log-uniform from 1e-320 to
1e300, L mu log-uniform in 1e-6 to 1 over prod(taus)), and compares each
value. Last, it builds the config-key walk of `tests/config_walk.py` from
this tree's key table (every key given each value its kind rejects, under
each subcommand that reads it), runs each config through `hierfed.cli.main`
in one subprocess per tree, and
compares exit codes and stderr. It prints each difference, a JSON output's
by field and a float's with its distance in floats, and exits 1 if there is
any, else 0. It takes a few minutes on a 2-vCPU machine.

CI runs it with the checkout as its own parent, `python3
tools/identical_artifacts.py .`: an A/A check that every artifact, optimizer
result and walk exit is the same across processes, which also keeps the
tool runnable. It writes nothing into either checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import yaml  # noqa: E402

import config_walk  # noqa: E402
from workloads import quadratic_deep_config, tiny_mlp_config  # noqa: E402

COMMANDS = ("run", "theory", "optimize", "compare-depths")
SEEDS = (12345, 7, 99)
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ORACLE_SEEDS = range(125)
ORACLE_INDICES = range(8)
SPEC_DRAWS = (("random_spec", 5, 400), ("tight_spec", 2026, 600))  # (generator, seed, draws)
THEORY_TREES = 1000

# Run in each tree's subprocess: one JSON line per spec, its label and a map
# of each OptimizerResult field to its repr, or of "raised" to the exception.
OPTIMIZER_SCRIPT = f"""
import dataclasses, json, sys
import numpy as np
sys.path[:0] = [{str(ROOT / "perfbench")!r}, {str(ROOT / "tests")!r}]
import test_gp_optimizer
from workloads import oracle_instance
from hierfed.gp_optimizer import optimize

def specs():
    for s in {ORACLE_SEEDS!r}:
        for i in {ORACLE_INDICES!r}:
            yield f"oracle_instance({{s}}, {{i}})", oracle_instance(s, i)
    for name, seed, draws in {SPEC_DRAWS!r}:
        rng = np.random.default_rng(seed)
        for k in range(draws):
            yield f"{{name}} draw {{k}}", getattr(test_gp_optimizer, name)(rng)

for label, spec in specs():
    try:
        res = optimize(spec)
        out = {{f.name: repr(getattr(res, f.name)) for f in dataclasses.fields(res)}}
    except Exception as exc:
        out = {{"raised": f"{{type(exc).__name__}}: {{exc}}"}}
    print(json.dumps([label, out]))
"""


# Run in each tree's subprocess: one JSON line per ragged tree, mapping each
# theory function to its value, or to the exception it raised.
THEORY_SCRIPT = f"""
import json, math
import numpy as np
from hierfed.engine import Schedule
from hierfed.theory import TheoryParams, condition_lhs, max_feasible_mu, rate_bound
from hierfed.topology import build_topology
rng = np.random.default_rng(27)
for index in range({THEORY_TREES}):
    depth = int(rng.integers(1, 6))
    sizes, parents = [1], []
    for _ in range(depth):
        sizes.insert(0, int(rng.integers(sizes[0], 3 * sizes[0] + 2)))
        p = list(range(sizes[1])) + [int(rng.integers(0, sizes[1])) for _ in range(sizes[0] - sizes[1])]
        rng.shuffle(p)
        parents.insert(0, p)
    taus = tuple(int(v) for v in np.exp(rng.uniform(0.0, math.log(200.0), size=depth)).round())
    q = (0.0,) * depth if rng.random() < 0.2 else tuple(rng.uniform(0.0, 3.0, size=depth).tolist())
    lip = float(10 ** rng.uniform(-320.0, 300.0))
    mu = min(float(10 ** rng.uniform(-6.0, 0.0)) / lip / math.prod(taus), 1e308)
    params = TheoryParams(
        lipschitz=lip, sigma2=float(rng.uniform(0.0, 2.0)), mu=mu, gap0=float(rng.uniform(0.0, 3.0)), q=q,
        topology=build_topology(sizes, parents=parents), schedule=Schedule(taus, 10),
    )
    out = {{}}
    for name, call in (("condition_lhs", condition_lhs), ("max_feasible_mu", max_feasible_mu),
                       ("rate_bound", lambda p: list(rate_bound(p, 10)))):
        try:
            out[name] = call(params)
        except Exception as exc:
            out[name] = f"raised {{type(exc).__name__}}: {{exc}}"
    print(json.dumps([index, out]))
"""


# Run in each tree's subprocess on the walk's [name, command, config path]
# list from stdin: one JSON line per config, [name, exit code, stderr].
CONFIG_ERROR_SCRIPT = """
import contextlib, io, json, sys
from hierfed.cli import main
for name, command, path in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, path])
    print(json.dumps([name, code, err.getvalue()]))
"""


def readme_config() -> dict:
    text = (ROOT / "README.md").read_text()
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", text, re.S).group(1))


def configs() -> dict[str, dict]:
    """Every config by name; each is run under all of COMMANDS."""
    out = {"readme": readme_config()}
    for name, make in (("quadratic_deep", quadratic_deep_config), ("tiny_mlp", tiny_mlp_config)):
        for tiny in (True, False):
            for seed in SEEDS:
                for weighted in (False, True):
                    out[f"{name}-tiny{int(tiny)}-seed{seed}-w{int(weighted)}"] = {
                        **make(seed, tiny=tiny),
                        "weighted": weighted,
                    }
    logistic = tiny_mlp_config(SEEDS[0], tiny=True)
    logistic["task"] = {k: v for k, v in logistic["task"].items() if k != "hidden"}
    logistic["task"]["kind"] = "logistic"
    out["logistic"] = logistic
    return out


def invocations() -> list[tuple[str, dict, list[str]]]:
    """(name, config, CLI arguments after the config path) of every call."""
    calls = []
    for name, cfg in configs().items():
        cfg = {**cfg, "output_dir": "out"}
        depth = len(cfg["topology"]["layer_sizes"]) - 1
        for command in COMMANDS:
            extra = ["--depths", str(depth)] if command == "compare-depths" else []
            calls.append((f"{name}/{command}", cfg, [command, "config.yaml", *extra]))
    depths = readme_config()
    depths.update(output_dir="out", compare={"taus": {1: [80], 2: [10, 8], 3: [10, 2, 4]}})
    calls.append(("readme/compare-depths-6321", depths, ["compare-depths", "config.yaml", "--depths", "6", "3", "2", "1"]))
    return calls


def tree_env(src: Path) -> dict[str, str]:
    """Environment that imports hierfed from `src`, with BLAS on one thread."""
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(THREAD_PINS, "1")}
    where = subprocess.run(
        [sys.executable, "-c", "import hierfed; print(hierfed.__file__)"],
        cwd=src.parent, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(where).resolve().parent != (src / "hierfed").resolve():
        sys.exit(f"identical_artifacts: {src} imports hierfed from {where}")
    return env


def run_tree(src: Path, work: Path, calls) -> dict[str, tuple]:
    """Each call's (exit code, stdout, masked stderr, {file: bytes}) on one tree."""
    env = tree_env(src)
    results = {}
    for name, cfg, args in calls:
        cwd = work / name
        cwd.mkdir(parents=True)
        (cwd / "config.yaml").write_text(yaml.safe_dump(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "hierfed.cli", *args], cwd=cwd, env=env, capture_output=True
        )
        files = {
            str(p.relative_to(cwd)): p.read_bytes()
            for p in sorted(cwd.rglob("*"))
            if p.is_file() and p.name != "config.yaml"
        }
        stderr = proc.stderr.replace(str(src.parent).encode(), b"<tree>")
        results[name] = (proc.returncode, proc.stdout, stderr, files)
    return results


def optimizer_results(src: Path, work: Path) -> dict[str, dict[str, str]]:
    """{spec label: {field: repr}} of every spec's solve on one tree."""
    work.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-c", OPTIMIZER_SCRIPT],
        cwd=work, env=tree_env(src), capture_output=True, text=True, check=True,
    )
    return dict(map(json.loads, proc.stdout.splitlines()))


def theory_results(src: Path, work: Path) -> dict[int, dict]:
    """{tree index: {function: value or exception text}} of the theory sweep on one tree."""
    work.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-c", THEORY_SCRIPT], cwd=work, env=tree_env(src), capture_output=True, text=True, check=True,
    )
    return {index: out for index, out in map(json.loads, proc.stdout.splitlines())}


def float_steps(a: float, b: float) -> int:
    """How many floats lie between a and b, counting b: 0 when equal."""

    def ordinal(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordinal(a) - ordinal(b))


def value_change(old, new) -> str:
    """'old -> new', with the distance in floats when both are floats."""
    text = f"{old!r} -> {new!r}"
    if isinstance(old, float) and isinstance(new, float) and not math.isnan(old) and not math.isnan(new):
        steps = float_steps(old, new)
        text += f" ({steps} float{'s' * (steps != 1)} apart)"
    return text


def theory_differences(ours: dict, theirs: dict) -> list[str]:
    diffs = []
    for index, out in ours.items():
        for name, new in out.items():
            old = theirs[index][name]
            if isinstance(new, list) and isinstance(old, list):  # rate_bound's three terms
                pairs = [(f"{name}[{i}]", o, n) for i, (o, n) in enumerate(zip(old, new))]
            else:
                pairs = [(name, old, new)]
            diffs += [f"theory tree {index}: {label} {value_change(o, n)}" for label, o, n in pairs if repr(o) != repr(n)]
    return diffs


def json_leaves(obj, path: str = ""):
    """(dotted path, value) of every leaf of a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from json_leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def output_differences(label: str, new: bytes, old: bytes) -> list[str]:
    """One line per differing field when both outputs are JSON, else one line."""
    try:
        leaves, p_leaves = dict(json_leaves(json.loads(new))), dict(json_leaves(json.loads(old)))
    except ValueError:
        return [f"{label} differs"]
    diffs = []
    for path in sorted(leaves.keys() | p_leaves.keys()):
        old, new = p_leaves.get(path, "(absent)"), leaves.get(path, "(absent)")
        if repr(old) != repr(new):
            diffs.append(f"{label} {path}: {value_change(old, new)}")
    return diffs


def write_walk(work: Path) -> list[list[str]]:
    """The walk's configs written under `work`: [name, command, path] each."""
    calls = []
    for i, (name, command, cfg, _) in enumerate(config_walk.cases(work)):
        path = work / f"walk{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        calls.append([f"{command} {name}", command, str(path)])
    return calls


def config_error_results(src: Path, work: Path, calls: list[list[str]]) -> dict[str, tuple[int, str]]:
    """{name: (exit code, masked stderr)} of every walk config on one tree."""
    proc = subprocess.run(
        [sys.executable, "-c", CONFIG_ERROR_SCRIPT],
        input=json.dumps(calls), cwd=work, env=tree_env(src), capture_output=True, text=True, check=True,
    )
    lines = map(json.loads, proc.stdout.splitlines())
    return {name: (code, err.replace(str(src.parent), "<tree>")) for name, code, err in lines}


def config_error_differences(ours: dict, theirs: dict) -> list[str]:
    diffs = []
    for name, (code, err) in ours.items():
        p_code, p_err = theirs[name]
        if code != p_code:
            diffs.append(f"config error {name}: exit code {p_code} -> {code}")
        elif err != p_err:
            diffs.append(f"config error {name}: stderr differs")
    return diffs


def optimizer_differences(ours: dict, theirs: dict) -> list[str]:
    diffs = []
    for label, out in ours.items():
        p_out = theirs[label]
        for name in sorted(out.keys() | p_out.keys()):
            if out.get(name) != p_out.get(name):
                diffs.append(f"optimize {label}: {name} {p_out.get(name)} -> {out.get(name)}")
    return diffs


def differences(ours: dict, theirs: dict) -> list[str]:
    diffs = []
    for name, (code, out, err, files) in ours.items():
        p_code, p_out, p_err, p_files = theirs[name]
        if code != p_code:
            diffs.append(f"{name}: exit code {p_code} -> {code}")
        if out != p_out:
            diffs += output_differences(f"{name}: stdout", out, p_out)
        if err != p_err:
            diffs.append(f"{name}: stderr differs")
        for path in sorted(files.keys() | p_files.keys()):
            if path not in files or path not in p_files:
                diffs.append(f"{name}: {path} written by one tree only")
            elif files[path] != p_files[path]:
                diffs += output_differences(f"{name}: {path}", files[path], p_files[path])
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    args = parser.parse_args(argv)
    parent_src = args.parent.resolve() / "src"
    if not (parent_src / "hierfed" / "__init__.py").is_file():
        parser.error(f"no hierfed sources under {parent_src}")
    calls = invocations()
    with tempfile.TemporaryDirectory() as tmp:
        ours = run_tree(ROOT / "src", Path(tmp) / "change", calls)
        theirs = run_tree(parent_src, Path(tmp) / "parent", calls)
        solved = optimizer_results(ROOT / "src", Path(tmp) / "change-optimizer")
        p_solved = optimizer_results(parent_src, Path(tmp) / "parent-optimizer")
        theory = theory_results(ROOT / "src", Path(tmp) / "change-theory")
        p_theory = theory_results(parent_src, Path(tmp) / "parent-theory")
        walk = Path(tmp) / "walk"
        walk.mkdir()
        walk_calls = write_walk(walk)
        errors = config_error_results(ROOT / "src", walk, walk_calls)
        p_errors = config_error_results(parent_src, walk, walk_calls)
    diffs = (
        differences(ours, theirs)
        + optimizer_differences(solved, p_solved)
        + theory_differences(theory, p_theory)
        + config_error_differences(errors, p_errors)
    )
    codes = sorted({code for code, *_ in ours.values()})
    counts = ", ".join(f"{sum(r[0] == c for r in ours.values())} exit {c}" for c in codes)
    raised = sum("raised" in out for out in solved.values())
    exit_two = sum(code == 2 for code, _ in errors.values())
    print(
        f"{len(calls)} invocations per tree ({counts}); {len(solved)} optimizer solves per tree "
        f"({raised} raised); {len(theory)} theory trees per tree; "
        f"{len(errors)} config-error configs per tree ({exit_two} exit 2); "
        f"{len(diffs)} differences"
    )
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
