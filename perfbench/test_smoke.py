"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root with `python -m pytest perfbench/test_smoke.py`.
Every metric BENCHMARK.json names must be emitted with its unit, and the
correctness gate must pass on the current code.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_loader = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(bench_run)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_gate_passes(workload, trace):
    result = bench_run.bench(workload, seed=3, seconds=0, trace=trace, tiny=True, out_root=bench_run.OUT / "smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in ("setup_s", "cpu_s", "peak_rss_mb"))


def test_nan_summary_counts_as_failed():
    from workloads import make_workloads

    workload = make_workloads(tiny=True)["quadratic_deep"]
    op = workload.prepare(seed=3, index=0, workdir=bench_run.OUT / "smoke" / "nan")
    op.inp["out"].mkdir(parents=True, exist_ok=True)
    (op.inp["out"] / "summary.json").write_text('{"final_loss": NaN}')
    (op.inp["out"] / "metrics.csv").write_text("round,loss,grad_norm_sq,latency,cumulative_time\n")
    workload.check(op)
    assert op.errors and "strict JSON" in op.errors[0]
