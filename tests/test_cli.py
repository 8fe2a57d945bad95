import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import config_walk
from exact_condition import is_largest_feasible
from hierfed import cli, engine
from hierfed import tasks as tasks_mod
from hierfed.cli import (
    ConfigError,
    _setup,
    compare_depths,
    load_config,
    main,
    run_experiment,
)
from hierfed.latency import LatencyParams, compute_tde
from hierfed.quantizer import measure_q, stochastic
from hierfed.theory import TheoryParams


ZERO_LATENCY = {"deadline": 4000, "batch_size": 0, "tx_power": 1e300, "channel_gain": 1e300, "t_edge": [0, 0]}


def quad_config(tmp_path, **overrides):
    cfg = {
        "seed": 7,
        "topology": {"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2, 2]},
        "task": {
            "kind": "quadratic",
            "dimension": 2,
            "samples_per_device": 6,
            "batch_size": 3,
            "center_spread": 0.4,
            "sample_spread": 0.05,
        },
        "schedule": {"taus": [2, 1, 1], "rounds": 8},
        "lr": 0.05,
        "alpha": 0.6,
        "latency": {"deadline": 1e9},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def load_strict_json(path):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestRunExperiment:
    def test_metrics_shape_and_monotone_time(self, tmp_path):
        cfg = quad_config(tmp_path)
        run_experiment(cfg)
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "round,loss,grad_norm_sq,latency,cumulative_time"
        assert len(lines) == 1 + 8
        times = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_cumulative_time_is_running_latency_sum(self, tmp_path):
        summary = run_experiment(quad_config(tmp_path))
        with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        latency = [float(r["latency"]) for r in rows]
        assert latency == [summary["round_latency"]] * 8
        running = 0.0
        for t, row in enumerate(rows):
            running += latency[t]
            assert float(row["cumulative_time"]) == running  # bit for bit: repr round-trips
        assert running == pytest.approx(8 * summary["round_latency"], rel=1e-15)
        assert summary["total_time"] == float(rows[-1]["cumulative_time"])
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["total_time"] == summary["total_time"]

    def test_number_strings_accepted(self, tmp_path):
        # YAML 1.1 reads 5e-2 and 1e9 (no dot) as strings; float() takes them
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(quad_config(tmp_path, lr="5e-2", latency={"deadline": "1e9"})))
        summary = run_experiment(load_config(path))
        assert summary["config"]["lr"] == 0.05
        assert summary["config"]["latency"]["deadline"] == 1e9

    def test_whole_floats_and_integer_strings_read_as_integers(self, tmp_path):
        run_experiment(quad_config(tmp_path, output_dir=str(tmp_path / "a")))
        cfg = quad_config(tmp_path, seed=7.0, schedule={"taus": ["2", 1.0, 1], "rounds": "8"}, output_dir=str(tmp_path / "b"))
        summary = run_experiment(cfg)
        assert summary["config"]["seed"] == 7 and summary["config"]["schedule"] == {"taus": [2, 1, 1], "rounds": 8}
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_seed_replay_byte_identical(self, tmp_path):
        cfg = quad_config(tmp_path, output_dir=str(tmp_path / "a"))
        run_experiment(cfg)
        cfg2 = quad_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(cfg2)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_summary_config_reruns_identically(self, tmp_path):
        trees = [
            {"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2, 2]},
            {"layer_sizes": [8, 3, 2, 1], "parents": [[0, 0, 0, 1, 1, 2, 2, 2], [0, 1, 1], [0, 0]]},
        ]
        for i, tree in enumerate(trees):
            first, second = tmp_path / f"first{i}", tmp_path / f"second{i}"
            run_experiment(quad_config(tmp_path, topology=tree, output_dir=str(first)))
            echoed = json.loads((first / "summary.json").read_text())["config"]
            assert echoed["topology"] == tree
            echoed["output_dir"] = str(second)
            run_experiment(echoed)
            assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    def test_optimize_directive(self, tmp_path):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4, "optimize": True},
            latency={"deadline": 4000.0, "cycles_per_sample": 1e7,
                     "frequencies": {"min": 0.5e9, "max": 2e9}},
        )
        summary = run_experiment(cfg)
        assert summary["optimizer"] is not None
        assert summary["optimizer"]["slack"] >= 0.0
        assert summary["config"]["schedule"]["taus"] == summary["optimizer"]["taus_integer"]

    def test_quantized_run_records_measured_q(self, tmp_path):
        cfg = quad_config(
            tmp_path,
            quantizers=[
                {"kind": "stochastic_levels", "levels": 4},
                {"kind": "stochastic_levels", "levels": 8},
                {"kind": "identity"},
            ],
        )
        summary = run_experiment(cfg)
        q = summary["config"]["q"]
        assert q[0] > q[1] > 0.0 and q[2] == 0.0
        assert q == [2 / 64, 2 / 256, 0.0]  # min(d/(4s^2), sqrt(d)/s) at d = 2
        realized = summary["diagnostics"]
        assert realized["q_realized_mean"][2] == realized["q_realized_max"][2] == 0.0
        assert all(0.0 < m <= v for m, v in zip(realized["q_realized_mean"][:2], q))

    def test_missing_key_raises_config_error(self, tmp_path):
        cfg = quad_config(tmp_path)
        del cfg["lr"]
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_tiny_mlp_accuracy_reported(self, tmp_path):
        cfg = quad_config(
            tmp_path,
            task={
                "kind": "tiny_mlp",
                "pool": {"synthetic": {"samples": 1200, "classes": 3, "dim": 4, "spread": 0.3}},
                "partition_case": 3,
                "size_range": [40, 60],
                "batch_size": 16,
                "hidden": 6,
            },
            schedule={"taus": [4, 2, 1], "rounds": 12},
            lr=0.4,
        )
        summary = run_experiment(cfg)
        assert summary["final_accuracy"] is not None
        assert summary["final_accuracy"] > 0.5
        assert summary["theory"] is None  # no cheap global L or sigma2

    def test_tiny_mlp_theory_from_config(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            task={
                "kind": "tiny_mlp",
                "pool": {"synthetic": {"samples": 600, "classes": 3, "dim": 2}},
                "size_range": [20, 30],
                "hidden": 2,
            },
            theory={"lipschitz": 3.0, "sigma2": 2.0},
        )
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["theory", str(path)]) == 2
        assert "gap0" in capsys.readouterr().err
        cfg["theory"]["gap0"] = 1.5
        path.write_text(yaml.safe_dump(cfg))
        assert main(["theory", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [out[k] for k in ("lipschitz", "sigma2", "gap0")] == [3.0, 2.0, 1.5]
        assert out["sources"] == {"lipschitz": "config", "sigma2": "config", "gap0": "config"}

    @pytest.mark.parametrize("given, resolved", [(None, 0.1), (0.0, 0.0), (0.5, 0.5)])
    def test_tiny_mlp_init_scale_default_and_explicit(self, tmp_path, given, resolved):
        task = {"kind": "tiny_mlp", "pool": {"synthetic": {"samples": 600, "classes": 3, "dim": 2}},
                "size_range": [20, 30], "hidden": 2}
        if given is not None:
            task["init_scale"] = given
        s = _setup(quad_config(tmp_path, task=task))
        assert s.task_resolved["init_scale"] == resolved
        assert np.any(s.w0 != 0.0) == (resolved != 0.0)

    def test_logistic_partition_case(self, tmp_path):
        cfg = quad_config(
            tmp_path,
            task={
                "kind": "logistic",
                "pool": {"synthetic": {"samples": 1500, "classes": 10, "dim": 4}},
                "partition_case": 1,
                "size_range": [30, 50],
                "batch_size": 10,
            },
            schedule={"taus": [2, 1, 1], "rounds": 3},
        )
        summary = run_experiment(cfg)
        assert summary["final_accuracy"] is not None
        theory = summary["theory"]
        assert theory["sources"] == {"lipschitz": "certified", "sigma2": "certified", "gap0": "certified"}
        assert theory["sigma2"] == 16 * theory["lipschitz"]  # 4 R^2 and R^2 / 4
        # the loss is >= 0, so F(w0) = ln 2 at w0 = 0 bounds the gap
        assert theory["gap0"] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_quadratic_theory_sources(self, tmp_path):
        exact = run_experiment(quad_config(tmp_path))["theory"]
        assert exact["sources"] == {"lipschitz": "exact", "sigma2": "exact", "gap0": "exact"}
        assert exact["lipschitz"] == 1.0
        mixed = run_experiment(quad_config(tmp_path, theory={"lipschitz": 2.0, "gap0": None}))["theory"]
        assert mixed["sources"] == {"lipschitz": "config", "sigma2": "exact", "gap0": "exact"}
        assert mixed["lipschitz"] == 2.0
        assert (mixed["sigma2"], mixed["gap0"]) == (exact["sigma2"], exact["gap0"])


@st.composite
def trees(draw):
    """A topology config of depth 1-4: uniform fanouts, or ragged parents with
    each layer's children shuffled across their parents."""
    depth = draw(st.integers(1, 4))
    if draw(st.booleans()):
        fanouts = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))
        sizes = [math.prod(fanouts[n:]) for n in range(depth)] + [1]
        return {"layer_sizes": sizes, "fanouts": fanouts}
    sizes, parents = [1], []
    for _ in range(depth):
        up = sizes[0]
        extra = draw(st.lists(st.integers(0, up - 1), max_size=3))
        parents.insert(0, draw(st.permutations(list(range(up)) + extra)))
        sizes.insert(0, len(parents[0]))
    return {"layer_sizes": sizes, "parents": parents}


@st.composite
def round_trip_configs(draw):
    tree = draw(trees())
    depth = len(tree["layer_sizes"]) - 1
    kind = draw(st.sampled_from(["quadratic", "logistic", "tiny_mlp"]))
    theory = {}
    if kind == "quadratic":
        task = {"kind": kind, "dimension": 2, "samples_per_device": 3, "batch_size": 2,
                "init_scale": draw(st.sampled_from([0.0, 1.0]))}
    else:
        # 81 devices (fanouts 3^4) take at most 162 samples of each class
        task = {"kind": kind, "pool": {"synthetic": {"samples": 1500, "classes": 3, "dim": 2}},
                "size_range": [3, 6], "batch_size": 2}
    if kind == "tiny_mlp":
        task["hidden"] = draw(st.integers(1, 4))
        theory = {"lipschitz": 4.0, "sigma2": 2.0, "gap0": 1.0}  # the MLP certifies none
    levels = st.one_of(st.none(), st.integers(1, 8))
    quantizers = [{"kind": "identity"} if s is None else {"kind": "stochastic_levels", "levels": s}
                  for s in draw(st.lists(levels, min_size=depth, max_size=depth))]
    return {
        "seed": draw(st.integers(0, 2**31 - 1)),
        "topology": tree,
        "task": task,
        "schedule": {"taus": draw(st.lists(st.integers(1, 2), min_size=depth, max_size=depth)),
                     "rounds": draw(st.integers(1, 2))},
        "quantizers": quantizers,
        "lr": 0.05,
        "weighted": draw(st.booleans()),
        "theory": theory,
        "latency": {"frequencies": {"min": 0.5e9, "max": 2e9}},
    }


class TestEchoRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(round_trip_configs())
    def test_run_echo_rerun_identical(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first", Path(tmp) / "second"
            run_experiment(cfg, first)
            echoed = json.loads((first / "summary.json").read_text())["config"]
            run_experiment(echoed, second)
            assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
            summaries = [json.loads((d / "summary.json").read_text()) for d in (first, second)]
            assert summaries[0] == summaries[1]
            assert summaries[0]["theory"]["sources"]


def pool_rows(n=600):
    """A header and n rows of two features and a label in 0..3."""
    rng = np.random.default_rng(0)
    rows = ["f0,f1,label"]
    for _ in range(n):
        label = int(rng.integers(0, 4))
        f = rng.normal(size=2) + 3 * label
        rows.append(f"{f[0]},{f[1]},{label}")
    return rows


def pool_file_config(tmp_path, rows, **pool):
    pool_file = tmp_path / "pool.csv"
    pool_file.write_text("\n".join(rows) + "\n")
    return quad_config(
        tmp_path,
        task={
            "kind": "tiny_mlp",
            "pool": {"file": str(pool_file), **pool},
            "partition_case": 3,
            "size_range": [30, 40],
            "batch_size": 10,
            "hidden": 4,
        },
        schedule={"taus": [2, 1, 1], "rounds": 4},
        lr=0.3,
    )


class TestPoolFile:
    def test_csv_pool_loaded(self, tmp_path):
        summary = run_experiment(pool_file_config(tmp_path, pool_rows()))
        assert summary["final_accuracy"] is not None

    @pytest.mark.parametrize(
        "rows, named",
        [
            (pool_rows(1), "task.pool too small"),  # one data row read as a 1-D array
            (["label"] + ["1"] * 600, "task.pool.file"),  # no feature column
            (pool_rows()[:-1] + ["0.5,0.5,-1"], "task.pool.file"),  # tiny_mlp indexed the last class
            (pool_rows()[:-1] + ["0.5,0.5,1.5"], "task.pool.file"),  # truncated to 1
            (pool_rows()[:-1] + ["0.5,0.5,nan"], "task.pool.file"),
        ],
        ids=["one_row", "labels_only", "negative_label", "fractional_label", "nan_label"],
    )
    def test_malformed_pool_exit_two(self, tmp_path, capsys, rows, named):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(pool_file_config(tmp_path, rows)))
        assert main(["run", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_negative_holdout_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(pool_file_config(tmp_path, pool_rows(), holdout_fraction=-0.5)))
        assert main(["run", str(path)]) == 2
        assert "'holdout_fraction'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pool",
        [
            {"synthetic": {"samples": 400, "holdout_fraction": 0.0}},
            {"synthetic": {"samples": 60, "classes": 2, "holdout_fraction": 0.01}},  # int(0.6) = 0 held out
            {"holdout_fraction": 0.0},  # the file pool, see pool_file_config
        ],
        ids=["synthetic_zero", "synthetic_rounds_to_zero", "file_zero"],
    )
    def test_empty_holdout_reports_null_accuracy(self, tmp_path, capsys, pool):
        # the mean accuracy over no samples was NaN, which strict JSON refuses
        cfg = pool_file_config(tmp_path, pool_rows(), **pool)
        if "synthetic" in pool:
            cfg["task"].update(pool=pool, size_range=[2, 4], batch_size=2)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["final_accuracy"] is None
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["final_accuracy"] is None

    def test_missing_pool_file_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        cfg = quad_config(tmp_path, task={"kind": "logistic", "pool": {"file": str(missing)}})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: task.pool.file not found: {missing}\n"

    def test_frequency_range_draw_is_seeded(self, tmp_path):
        cfg = quad_config(
            tmp_path,
            latency={"deadline": 1e9, "frequencies": {"min": 0.5e9, "max": 2e9}},
        )
        a = run_experiment(cfg)["config"]["latency"]["frequencies"]
        b = run_experiment(cfg)["config"]["latency"]["frequencies"]
        assert a == b
        assert len(a) == 8 and all(0.5e9 <= f <= 2e9 for f in a)


class TestTopologyFile:
    def test_topology_from_file(self, tmp_path):
        topo = {"layer_sizes": [4, 2, 1], "parents": [[0, 0, 1, 1], [0, 0]]}
        tfile = tmp_path / "topo.json"
        tfile.write_text(json.dumps(topo))
        cfg = quad_config(
            tmp_path,
            topology={"file": str(tfile)},
            schedule={"taus": [2, 1], "rounds": 3},
        )
        summary = run_experiment(cfg)
        assert summary["config"]["topology"]["layer_sizes"] == [4, 2, 1]

    def test_missing_file(self, tmp_path):
        cfg = quad_config(tmp_path, topology={"file": str(tmp_path / "nope.yaml")})
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestCompareDepths:
    def base_cfg(self, tmp_path):
        return quad_config(
            tmp_path,
            topology={"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2, 2]},
            schedule={"taus": [2, 2, 2], "rounds": 30},
            task={
                "kind": "quadratic",
                "dimension": 2,
                "samples_per_device": 4,
                "batch_size": 4,
                "center_spread": 0.05,
                "sample_spread": 0.01,
            },
            lr=0.04,
            compare={
                "depths": [3, 2],
                "threshold": 1e-5,
                "kappas": {3: 1.0, 2: 4.0},
                "taus": {3: [2, 2, 2], 2: [4, 2]},
            },
        )

    def test_two_depth_comparison(self, tmp_path):
        rows = compare_depths(self.base_cfg(tmp_path))
        assert [r["depth"] for r in rows] == [3, 2]
        assert all(r["rounds_to_threshold"] is not None for r in rows)
        table = (tmp_path / "out" / "depth_comparison.csv").read_text().splitlines()
        assert table[0].startswith("depth,")
        assert len(table) == 3

    def test_single_depth_equals_plain_run(self, tmp_path):
        cfg = self.base_cfg(tmp_path)
        rows = compare_depths(cfg, depths=[3])
        assert len(rows) == 1
        plain = quad_config(
            tmp_path,
            topology={"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2, 2]},
            schedule={"taus": [2, 2, 2], "rounds": 30},
            task=cfg["task"],
            lr=0.04,
            latency={"deadline": 1e9, "kappa": 1.0},
            output_dir=str(tmp_path / "plain"),
        )
        summary = run_experiment(plain)
        assert rows[0]["final_loss"] == summary["final_loss"]
        depth_csv = tmp_path / "out" / "depth_3" / "metrics.csv"
        assert depth_csv.read_bytes() == (tmp_path / "plain" / "metrics.csv").read_bytes()

    def test_full_depth_of_a_parents_tree_equals_plain_run(self, tmp_path):
        # the full depth removes no layer, so it needs no uniform fan-out
        tree = {"layer_sizes": [4, 2, 1], "parents": [[0, 0, 1, 1], [0, 0]]}
        cfg = quad_config(tmp_path, topology=tree, schedule={"taus": [2, 1], "rounds": 3}, compare={"depths": [2]})
        compare_depths(cfg)
        run_experiment(cfg, tmp_path / "plain")
        for name in ("metrics.csv", "summary.json"):
            assert (tmp_path / "out" / "depth_2" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_task_built_once_for_all_depths(self, tmp_path, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        make = tasks_mod.make_quadratic_task
        monkeypatch.setattr(tasks_mod, "make_quadratic_task", counted)
        cfg = quad_config(tmp_path, schedule={"taus": [1, 1, 1], "rounds": 1},
                          compare={"depths": [3, 2, 1], "taus": {2: [1, 1], 1: [1]}})
        assert len(compare_depths(cfg)) == 3
        assert len(built) == 1

    @pytest.mark.parametrize(
        "t_edge", [[1.0, 2.0], {"multipliers": [1.0, 2.0]}, None], ids=["seconds", "multipliers", "default"]
    )
    def test_each_depth_echo_reruns_identically(self, tmp_path, t_edge):
        latency = {"deadline": 1e9, "kappa": 2.0, "frequencies": {"min": 0.5e9, "max": 2e9}}
        if t_edge is not None:
            latency["t_edge"] = t_edge
        cfg = quad_config(
            tmp_path,
            schedule={"taus": [2, 1, 1], "rounds": 3},
            quantizers=[{"kind": "stochastic_levels", "levels": s} for s in (4, 8, 12)],
            latency=latency,
            compare={"depths": [3, 2, 1], "kappas": {2: 5.0}, "taus": {2: [2, 1], 1: [2]}},
        )
        compare_depths(cfg)
        for d in (3, 2, 1):
            first, second = tmp_path / "out" / f"depth_{d}", tmp_path / f"replay_{d}"
            summary = json.loads((first / "summary.json").read_text())
            run_experiment(summary["config"], second)
            assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes(), d
            assert json.loads((second / "summary.json").read_text()) == summary, d

    @pytest.mark.parametrize(
        "t_edge", [[1.0, 2.0, 3.0], {"multipliers": [1.0, 2.0, 3.0]}, None], ids=["seconds", "multipliers", "default"]
    )
    def test_reduced_tree_keeps_the_top_inter_edge_times(self, tmp_path, t_edge):
        # a depth-d tree keeps the base tree's top d - 1 hops, as it keeps their quantizers
        latency = {"deadline": 1e9} if t_edge is None else {"deadline": 1e9, "t_edge": t_edge}
        cfg = quad_config(
            tmp_path,
            topology={"layer_sizes": [16, 8, 4, 2, 1], "fanouts": [2, 2, 2, 2]},
            schedule={"taus": [1, 1, 1, 1], "rounds": 1},
            latency=latency,
            compare={"depths": [4, 3, 2, 1], "taus": {3: [1, 1, 1], 2: [1, 1], 1: [1]}},
        )
        compare_depths(cfg)
        echo = {
            d: json.loads((tmp_path / "out" / f"depth_{d}" / "summary.json").read_text())["config"]["latency"]["t_edge"]
            for d in (4, 3, 2, 1)
        }
        assert len(echo[4]) == 3
        for d in (3, 2, 1):
            assert echo[d] == echo[4][4 - d :], d
        if t_edge == [1.0, 2.0, 3.0]:
            assert echo[2] == [3.0]

    @pytest.mark.parametrize("t_edge", [{"multipliers": [1.0, 2.0, 3.0]}, None], ids=["multipliers", "default"])
    def test_kappa_stretches_only_the_device_hop(self, tmp_path, t_edge):
        # multipliers are of the base config's t_DE, at its own latency.kappa
        latency = {"deadline": 1e9, "kappa": 2.0}
        if t_edge is not None:
            latency["t_edge"] = t_edge
        kappas = {4: 1.0, 3: 10.0, 2: 80.0}
        cfg = quad_config(
            tmp_path,
            topology={"layer_sizes": [16, 8, 4, 2, 1], "fanouts": [2, 2, 2, 2]},
            schedule={"taus": [1, 1, 1, 1], "rounds": 1},
            latency=latency,
            compare={"depths": [4, 3, 2], "kappas": kappas, "taus": {3: [1, 1, 1], 2: [1, 1]}},
        )
        compare_depths(cfg)
        echo = {
            d: json.loads((tmp_path / "out" / f"depth_{d}" / "summary.json").read_text())["config"]["latency"]
            for d in (4, 3, 2)
        }
        multipliers = [1.0, 2.0, 3.0] if t_edge else [10.0, 20.0, 30.0]
        t_de = compute_tde(LatencyParams(**{**echo[4], "kappa": 2.0}))
        for d in (4, 3, 2):
            assert echo[d]["kappa"] == kappas[d]
            assert echo[d]["t_edge"] == [m * t_de for m in multipliers][4 - d :], d


class TestFinalMetrics:
    def test_summary_describes_returned_model(self, tmp_path):
        # streams are keyed by round, so row 3 of a 4-round run is the model
        # a 3-round run of the same config returns
        summaries, rows = {}, {}
        for rounds in (3, 4):
            out = tmp_path / f"r{rounds}"
            cfg = quad_config(tmp_path, schedule={"taus": [2, 1, 1], "rounds": rounds}, output_dir=str(out))
            summaries[rounds] = run_experiment(cfg)
            rows[rounds] = list(csv.DictReader(open(out / "metrics.csv")))
        short = summaries[3]
        assert len(rows[3]) == 3
        assert short["final_loss"] == float(rows[4][3]["loss"])
        assert short["final_grad_norm_sq"] == float(rows[4][3]["grad_norm_sq"])
        assert short["final_loss"] < float(rows[3][2]["loss"])


class TestMainEntry:
    def write(self, tmp_path, cfg):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return str(path)

    def test_run_exit_zero(self, tmp_path, capsys):
        code = main(["run", self.write(tmp_path, quad_config(tmp_path))])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "final_loss" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = quad_config(tmp_path)
        del cfg["topology"]
        assert main(["run", self.write(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize(
        "command, overrides, named",
        [
            pytest.param("run", {"quantizers": [{"kind": "bogus"}] * 3}, "bogus", id="quantizer"),
            pytest.param(
                "run", {"topology": {"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2]}}, "fanouts", id="topology"
            ),
            pytest.param("run", {"schedule": {"taus": [0, 1, 1], "rounds": 8}}, "iteration counts", id="schedule"),
            pytest.param(  # reduce_depth needs a uniform fan-out tree
                "compare-depths",
                {
                    "topology": {"layer_sizes": [4, 2, 1], "parents": [[0, 0, 0, 1], [0, 0]]},
                    "compare": {"depths": [1]},
                    "schedule": {"taus": [2], "rounds": 2},
                },
                "uniform fan-out",
                id="compare_depths",
            ),
            # malformed shapes, each checked where the config is read
            pytest.param("run", {"quantizers": [4, 6, 8]}, "quantizers", id="quantizer_entry_shape"),
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "frequencies": {"min": 1e9}}}, "'max'", id="frequencies_no_max"
            ),
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "t_edge": {"mult": [10, 20]}}}, "'multipliers'",
                id="t_edge_no_multipliers",
            ),
            pytest.param("run", {"schedule": [1, 2]}, "'schedule'", id="schedule_shape"),
            pytest.param("run", {"topology": 5}, "'topology'", id="topology_shape"),
            pytest.param(
                "compare-depths", {"compare": {"depths": [3], "kappas": [1.0]}}, "'kappas'", id="compare_kappas_shape"
            ),
            # list-valued keys given a scalar, and a theory constant given a list
            pytest.param("run", {"schedule": {"taus": 5, "rounds": 8}}, "'taus'", id="taus_scalar"),
            pytest.param(
                "run", {"topology": {"layer_sizes": [8, 4, 2, 1], "fanouts": 5}}, "'fanouts'", id="fanouts_scalar"
            ),
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "frequencies": 5}}, "'frequencies'", id="frequencies_scalar"
            ),
            pytest.param(
                "run",
                {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 400}}, "size_range": 5}},
                "'size_range'",
                id="size_range_scalar",
            ),
            pytest.param(
                "run",
                {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 400}}, "size_range": [5]}},
                "'size_range'",
                id="size_range_length",
            ),
            # scalar keys given a list
            pytest.param("run", {"seed": [1]}, "'seed'", id="seed_list"),
            pytest.param("run", {"task": {"kind": "quadratic", "dimension": [4]}}, "'dimension'", id="dimension_list"),
            pytest.param("run", {"schedule": {"taus": [2, 1, 1], "rounds": [3]}}, "'rounds'", id="rounds_list"),
            pytest.param(
                "compare-depths", {"compare": {"depths": [3], "kappas": {3: [1]}}}, "compare.kappas key 3",
                id="kappa_list",
            ),
            pytest.param(
                "compare-depths", {"compare": {"depths": [3], "kappas": {"a": 1.0}}}, "'a'", id="kappa_depth_key"
            ),
            pytest.param(
                "compare-depths", {"compare": {"depths": [3], "taus": {"x": [2, 1, 1]}}}, "'x'", id="taus_depth_key"
            ),
            # checked against the base tree, as run checks it, before each depth takes its hops
            pytest.param(
                "compare-depths", {"quantizers": [{"kind": "identity"}] * 5, "compare": {"depths": [3]}}, "3 entries",
                id="compare_quantizers_length",
            ),
            # a task without theory constants trains with any lr unless its read rejects it
            pytest.param(
                "run",
                {"task": {"kind": "tiny_mlp", "pool": {"synthetic": {"samples": 400}}}, "lr": 0},
                "config key 'lr'",
                id="lr_zero_tiny_mlp",
            ),
            # run and theory name the same key
            pytest.param("run", {"schedule": {"taus": [2, 1], "rounds": 8}}, "schedule.taus", id="taus_length_run"),
            pytest.param(
                "theory", {"schedule": {"taus": [2, 1], "rounds": 8}}, "schedule.taus", id="taus_length_theory"
            ),
            pytest.param("compare-depths", {"compare": {"depths": [2]}}, "schedule.taus", id="taus_length_compare"),
            # a depth's own taus are named by their key, while schedule.taus is valid
            pytest.param(
                "compare-depths", {"compare": {"depths": [3, 2], "taus": {2: [1, 1, 1]}}}, "compare.taus.2",
                id="compare_taus_length",
            ),
            # objective inputs optimize reads, named as run names them
            pytest.param("optimize", {"latency": {}}, "finite positive deadline", id="optimize_no_deadline"),
            pytest.param("optimize", {"alpha": 1.5}, "alpha", id="optimize_alpha"),
            # compare-depths checks the base tree's quantizer entries as run does
            pytest.param(
                "compare-depths", {"quantizers": [{"kind": "bogus"}] * 3, "compare": {"depths": [3]}}, "bogus",
                id="compare_quantizer_kind",
            ),
            pytest.param(
                "compare-depths",
                {"quantizers": [{"kind": "stochastic_levels", "levels": 0}] * 3, "compare": {"depths": [3]}},
                "levels >= 1",
                id="compare_quantizer_levels",
            ),
            # a zero link rate, whatever form t_edge takes
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "t_edge": [1.0, 2.0], "channel_gain": 1e-30}}, "link rate",
                id="t_edge_list_zero_rate",
            ),
            # one inter-edge time per hop, not more
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "t_edge": [1, 2, 3, 4]}}, "latency.t_edge needs 2 entries",
                id="t_edge_list_too_long",
            ),
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "t_edge": {"multipliers": [1, 2, 3]}}}, "latency.t_edge needs 2",
                id="t_edge_multipliers_too_long",
            ),
            # integer keys given a number with a fractional part
            pytest.param("run", {"seed": 3.7}, "'seed'", id="seed_fraction"),
            pytest.param(  # int(inf) raises OverflowError, not ValueError
                "run", {"seed": math.inf}, "'seed'", id="seed_inf"
            ),
            pytest.param("run", {"schedule": {"taus": [2, 1, 1], "rounds": 2.5}}, "'rounds'", id="rounds_fraction"),
            pytest.param("run", {"schedule": {"taus": [2.5, 1, 1], "rounds": 8}}, "'taus'", id="taus_fraction"),
            pytest.param(
                "run", {"quantizers": [{"kind": "stochastic_levels", "levels": 4.5}] * 3}, "'levels'",
                id="levels_fraction",
            ),
            pytest.param(
                "compare-depths", {"compare": {"depths": [3], "taus": {3: [2.5, 1, 1]}}}, "compare.taus key 3",
                id="compare_taus_fraction",
            ),
            pytest.param(
                "compare-depths", {"compare": {"depths": [3], "kappas": {2.5: 1.0}}}, "2.5",
                id="kappa_depth_key_fraction",
            ),
            # flags take YAML booleans, not strings that read as truthy
            pytest.param("run", {"weighted": "false"}, "'weighted'", id="weighted_string"),
            pytest.param(
                "run", {"schedule": {"taus": [2, 1, 1], "rounds": 8, "optimize": "false"}}, "'optimize'",
                id="optimize_string",
            ),
            # physical latency values are finite and positive, inter-edge times finite and >= 0
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "frequencies": [math.nan] * 8}}, "frequencies",
                id="frequencies_nan_run",
            ),
            pytest.param(
                "optimize", {"latency": {"deadline": 1e9, "frequencies": [math.nan] * 8}}, "frequencies",
                id="frequencies_nan_optimize",
            ),
            pytest.param(
                "optimize", {"latency": {"deadline": 1e9, "cycles_per_sample": math.nan}}, "cycles_per_sample",
                id="cycles_nan",
            ),
            pytest.param(
                "optimize", {"latency": {"deadline": 1e9, "tx_power": math.inf}}, "tx_power", id="tx_power_inf"
            ),
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "t_edge": [-1.0, 1.0]}}, "t_edge", id="t_edge_negative_run"
            ),
            pytest.param(
                "optimize", {"latency": {"deadline": 1e9, "t_edge": [-1.0, 1.0]}}, "t_edge",
                id="t_edge_negative_optimize",
            ),
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "path_loss_exp": math.nan}}, "path_loss_exp",
                id="path_loss_exp_nan",
            ),
            pytest.param("run", {"latency": {"deadline": math.nan}}, "deadline", id="deadline_nan"),
            # task inputs on which run diverged or theory exited 1
            pytest.param(
                "run", {"task": {"kind": "quadratic", "batch_size": 0}}, "batch_size", id="batch_size_zero_run"
            ),
            pytest.param(
                "theory", {"task": {"kind": "quadratic", "batch_size": 0}}, "batch_size", id="batch_size_zero_theory"
            ),
            pytest.param(
                "run", {"task": {"kind": "quadratic", "init_scale": math.nan}}, "'init_scale'", id="init_scale_nan_run"
            ),
            pytest.param(
                "run", {"task": {"kind": "quadratic", "center_spread": math.nan}}, "'center_spread'",
                id="center_spread_nan_run",
            ),
            # spreads are >= 0: numpy's "scale < 0" named no key
            pytest.param(
                "run", {"task": {"kind": "quadratic", "center_spread": -0.5}}, "'center_spread'",
                id="center_spread_negative",
            ),
            pytest.param(
                "run",
                {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 400, "spread": -0.5}}}},
                "'spread'",
                id="pool_spread_negative",
            ),
            # YAML booleans are not numbers
            pytest.param("run", {"schedule": {"taus": [True, 1, 1], "rounds": 8}}, "'taus'", id="taus_bool"),
            pytest.param(
                "run", {"latency": {"deadline": 1e9, "frequencies": [True] * 8}}, "'frequencies'", id="frequencies_bool"
            ),
            # size keys are at least 1, named where they are read
            pytest.param("run", {"task": {"kind": "quadratic", "dimension": 0}}, "'dimension'", id="dimension_zero"),
            pytest.param(
                "run", {"task": {"kind": "quadratic", "samples_per_device": 0}}, "'samples_per_device'",
                id="samples_per_device_zero",
            ),
            pytest.param(
                "run", {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 400, "dim": 0}}}}, "'dim'",
                id="pool_dim_zero",
            ),
            pytest.param(
                "run",
                {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 400, "classes": 0}}}},
                "'classes'",
                id="classes_zero",
            ),
            pytest.param(
                "run",
                {"task": {"kind": "tiny_mlp", "hidden": -1, "pool": {"synthetic": {"samples": 400}}}},
                "'hidden'",
                id="hidden_negative",
            ),
            pytest.param(
                "run", {"task": {"kind": "tiny_mlp", "hidden": 0, "pool": {"synthetic": {"samples": 400}}}}, "'hidden'",
                id="hidden_zero",
            ),
            pytest.param("optimize", {"schedule": {"rounds": 0}}, "'rounds'", id="rounds_zero"),
            pytest.param(
                "run", {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 0}}}}, "'samples'",
                id="samples_zero",
            ),
            # an empty training pool in partition case 3
            pytest.param(
                "run",
                {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 400, "holdout_fraction": 1.0}}}},
                "task.pool too small",
                id="holdout_all",
            ),
            # a zero round latency: t_CP = 0, t_DE = 0 (the SNR overflows) and t_edge = 0
            pytest.param(
                "optimize", {"schedule": {"rounds": 4}, "latency": ZERO_LATENCY}, "deadline bounds nothing",
                id="zero_latency_optimize",
            ),
            pytest.param(
                "run",
                {"schedule": {"rounds": 4, "optimize": True}, "latency": ZERO_LATENCY},
                "deadline bounds nothing",
                id="zero_latency_run",
            ),
            # a YAML boolean is not a depth key
            pytest.param(
                "compare-depths", {"compare": {"depths": [1], "taus": {True: [4]}}}, "compare.taus key True",
                id="compare_taus_bool_key",
            ),
            pytest.param(
                "compare-depths",
                {"compare": {"depths": [1], "taus": {1: [4]}, "kappas": {True: 2.0}}},
                "compare.kappas key True",
                id="compare_kappas_bool_key",
            ),
            # path keys take strings: file 0 opened standard input (pytest's capture holds /dev/null there)
            pytest.param("run", {"output_dir": 5}, "'output_dir'", id="output_dir_number_run"),
            pytest.param(
                "compare-depths", {"output_dir": 5, "compare": {"depths": [3]}}, "'output_dir'",
                id="output_dir_number_compare",
            ),
            pytest.param("run", {"topology": {"file": 0}}, "'file'", id="topology_file_zero"),
            pytest.param("run", {"topology": {"file": True}}, "'file'", id="topology_file_bool"),
            # a directory is not a readable file
            pytest.param("run", {"topology": {"file": "."}}, "cannot read config file .", id="topology_file_directory"),
            pytest.param(
                "run", {"task": {"kind": "logistic", "pool": {"file": "."}}}, "cannot read task.pool.file .",
                id="pool_file_directory",
            ),
            # a holdout fraction lies in [0, 1]
            pytest.param(
                "run",
                {"task": {"kind": "logistic", "pool": {"synthetic": {"samples": 400, "holdout_fraction": -0.5}}}},
                "'holdout_fraction'",
                id="holdout_negative",
            ),
            # a frequency range has min <= max, a finite distance apart
            pytest.param(
                "run",
                {"latency": {"deadline": 1e9, "frequencies": {"min": 2e9, "max": 1e9}}},
                "latency.frequencies needs min <= max",
                id="frequencies_min_above_max",
            ),
            pytest.param(
                "run",
                {"latency": {"deadline": 1e9, "frequencies": {"min": -1e308, "max": 1e308}}},
                "latency.frequencies needs min <= max",
                id="frequencies_range_overflow",
            ),
        ],
    )
    def test_domain_validation_error_exit_two(self, tmp_path, capsys, command, overrides, named):
        assert main([command, self.write(tmp_path, quad_config(tmp_path, **overrides))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    def test_internal_value_error_exit_one(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("shapes (3,) and (4,) not aligned")

        monkeypatch.setattr(engine, "run", broken)
        assert main(["run", self.write(tmp_path, quad_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "Traceback" in err and "not aligned" in err

    def test_directory_config_path_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {tmp_path}")

    def test_unparseable_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("{unclosed")
        assert main(["run", str(path)]) == 2

    def test_infeasible_exit_three(self, tmp_path):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4, "optimize": True},
            latency={"deadline": 1e-9},
        )
        assert main(["run", self.write(tmp_path, cfg)]) == 3

    @pytest.mark.parametrize(
        "rounds, quantizers",
        [
            (30, None),
            (30, [{"kind": "stochastic_levels", "levels": s} for s in (4, 8, 12)]),
            (25, None),  # the loss overflows before the model does
        ],
        ids=["plain", "quantized", "loss_overflow"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exit_four(self, tmp_path, capsys, rounds, quantizers):
        # lr far above the feasible step: the model overflows within 30 rounds
        cfg = quad_config(
            tmp_path,
            task={"kind": "quadratic", "dimension": 4, "init_scale": 1.0},
            schedule={"taus": [5, 2, 2], "rounds": rounds},
            lr=5.0,
            quantizers=quantizers,
        )
        assert main(["run", self.write(tmp_path, cfg)]) == 4
        captured = capsys.readouterr()
        assert "diverged: " in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_theory_subcommand(self, tmp_path, capsys):
        assert main(["theory", self.write(tmp_path, quad_config(tmp_path))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["condition_value"] > 0
        assert out["max_feasible_mu"] > 0
        assert out["bound_total"] == pytest.approx(
            out["bound_speed_term"] + out["bound_error_term"], rel=1e-12
        )

    def test_bound_applies_labels_the_condition(self, tmp_path, capsys):
        # the README config: lr 0.01 against a largest feasible lr of about 0.001
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        cfg = yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
        assert main(["theory", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["condition_value"] < 0 and out["max_feasible_mu"] < cfg["lr"]
        assert out["bound_applies"] is False
        cfg["lr"] = out["max_feasible_mu"]
        assert main(["theory", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["condition_value"] >= 0 and out["bound_applies"] is True
        assert run_experiment(quad_config(tmp_path))["theory"]["bound_applies"] is True

    def one_layer_config(self, tmp_path, seed, quantizers):
        return quad_config(
            tmp_path,
            seed=seed,
            topology={"layer_sizes": [2, 1], "fanouts": [2]},
            task={"kind": "quadratic", "dimension": 6, "samples_per_device": 8, "batch_size": 1,
                  "center_spread": 0.3, "sample_spread": 0.2, "init_scale": 2.0},
            schedule={"taus": [1], "rounds": 30},
            quantizers=quantizers,
            lr=1.0,
        )

    def test_one_layer_quantized_bound_at_max_feasible_mu(self, tmp_path):
        # N = 1 is evaluated as its pass-through embedding, whose condition
        # carries q_1: lr 1.0 fails it, and at max_feasible_mu the bound holds
        # on average over 32 seeds, each of which draws its own task and so
        # its own bound_total
        levels_1 = [{"kind": "stochastic_levels", "levels": 1}]
        block = run_experiment(self.one_layer_config(tmp_path, 100, levels_1))["theory"]
        assert block["condition_value"] == -2.25 and block["bound_applies"] is False
        lr = block["max_feasible_mu"]
        assert lr == 0.4201328815660246
        norms, bounds = [], []
        for seed in range(100, 132):
            out = run_experiment({**self.one_layer_config(tmp_path, seed, levels_1), "lr": lr})
            assert out["theory"]["condition_value"] >= 0 and out["theory"]["bound_applies"] is True
            norms.append(out["mean_grad_norm_sq"])
            bounds.append(out["theory"]["bound_total"])
        assert np.mean(norms) <= np.mean(bounds)
        # without quantization lr 1.0 is this instance's max_feasible_mu
        block = run_experiment(self.one_layer_config(tmp_path, 100, [{"kind": "identity"}]))["theory"]
        assert block["bound_applies"] is True and block["max_feasible_mu"] == 1.0

    def test_optimize_subcommand_with_oracle(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4, "optimize": True},
            latency={"deadline": 4000.0, "cycles_per_sample": 1e7},
        )
        assert main(["optimize", self.write(tmp_path, cfg), "--oracle", "--tau-max", "12"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle_gap"] <= 1.02

    def test_optimize_rounds_to_a_schedule_the_latency_model_accepts(self, tmp_path, capsys):
        # the continuous optimum (1, 2 - 9e-11) sits on the deadline, which
        # (1, 2) misses by one ulp; a floor nudged up by 1e-9 returned (1, 2),
        # the final deadline check rejected it, and optimize exited 1
        cfg = quad_config(
            tmp_path,
            topology={"layer_sizes": [60, 30, 1], "fanouts": [2, 30]},
            schedule={"rounds": 1},
            alpha=0.7025204517369021,
            latency={
                "cycles_per_sample": 64369236.20565389, "frequencies": [2e9], "batch_size": 4,
                "model_bits": 1e5, "bandwidth": 1e6, "tx_power": 0.5, "channel_gain": 1e-8,
                "noise_power": 1e-10, "t_edge": [1.4186580411981915], "deadline": 1.7113932728985832,
            },
        )
        assert main(["optimize", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["taus_integer"] == [2, 1]
        assert out["slack"] == pytest.approx(0.0176, abs=1e-4)

    def test_optimize_alpha_one(self, tmp_path, capsys):
        # at alpha = 1 the barrier's centering stalled at large t, and
        # optimize exited 1 as an internal error
        cfg = quad_config(
            tmp_path,
            topology={
                "layer_sizes": [64, 32, 20, 1],
                "parents": [[i // 2 for i in range(64)], [i % 20 for i in range(32)], [0] * 20],
            },
            schedule={"rounds": 2},
            alpha=1,
            latency={
                "cycles_per_sample": 35518323.6, "frequencies": [2e9], "batch_size": 4,
                "model_bits": 1e5, "t_edge": [2.5246, 2.7870], "deadline": 10.8359,
            },
        )
        assert main(["optimize", self.write(tmp_path, cfg), "--oracle", "--tau-max", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["taus_integer"] == [1, 1, 1] and out["oracle_gap"] == 1.0

    @pytest.mark.parametrize("tau_max", ["0", "-3"])
    def test_optimize_tau_max_below_one_exit_two(self, tmp_path, capsys, tau_max):
        cfg = quad_config(tmp_path, schedule={"rounds": 4}, latency={"deadline": 4000.0})
        assert main(["optimize", self.write(tmp_path, cfg), "--oracle", "--tau-max", tau_max]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--tau-max" in err

    def test_optimizer_block_shared_by_run_and_optimize(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4, "optimize": True},
            latency={"deadline": 4000.0, "cycles_per_sample": 1e7},
        )
        assert main(["optimize", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert type(out["newton_steps"]) is int and out["newton_steps"] > 0
        assert run_experiment(cfg)["optimizer"] == out

    def test_measure_q_subcommand(self, tmp_path, capsys):
        # theory prints the certified q of each hop beside the theory block
        cfg = quad_config(
            tmp_path,
            quantizers=[
                {"kind": "stochastic_levels", "levels": 2},
                {"kind": "stochastic_levels", "levels": 4},
                {"kind": "identity"},
            ],
        )
        path = self.write(tmp_path, cfg)
        with pytest.raises(SystemExit) as exc:  # no measure-q subcommand: theory prints q
            main(["measure-q", path])
        assert exc.value.code == 2
        assert main(["theory", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["q"] == [measure_q(stochastic(2), 2), measure_q(stochastic(4), 2), 0.0]
        assert out["q"][0] > out["q"][1] > 0.0 == out["q"][2]
        assert set(out) == {"q", *run_experiment(cfg)["theory"]}

    def test_theory_honours_schedule_optimize(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4, "optimize": True},
            latency={"deadline": 4000.0, "cycles_per_sample": 1e7},
        )
        assert main(["theory", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        summary = run_experiment(cfg)
        assert out.pop("q") == summary["config"]["q"]
        assert out == summary["theory"]

    @pytest.mark.parametrize(
        "theory, lr, taus, sign",
        [
            ({"lipschitz": 1e154}, 0.05, [10, 10, 10], -1.0),  # the condition rounds to -inf
            ({"lipschitz": 1e200}, 0.05, [2, 1, 1], -1.0),  # lipschitz**2 passes float range
            ({"lipschitz": 1e-200}, 0.05, [2, 1, 1], 1.0),  # max_feasible_mu**2 passes float range
            ({}, 1e200, [2, 1, 1], -1.0),  # lr**2 passes float range
        ],
        ids=["condition_minus_inf", "lipschitz_huge", "lipschitz_tiny", "lr_huge"],
    )
    def test_theory_at_extreme_constants(self, tmp_path, capsys, theory, lr, taus, sign):
        cfg = quad_config(tmp_path, theory=theory, lr=lr, schedule={"taus": taus, "rounds": 8})
        path = self.write(tmp_path, cfg)
        assert main(["theory", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert math.copysign(1.0, float(out["condition_value"])) == sign
        assert out["bound_applies"] is (sign > 0)
        assert 0.0 < out["max_feasible_mu"] < math.inf
        if lr < 1.0:  # lr 1e200 diverges in training
            assert main(["run", path]) == 0
            out.pop("q")
            assert json.loads((tmp_path / "out" / "summary.json").read_text())["theory"] == out

    def test_optimize_with_a_zero_inter_edge_time(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4},
            latency={"deadline": 4000.0, "cycles_per_sample": 1e7, "t_edge": [0.0, 1.0]},
        )
        assert main(["optimize", self.write(tmp_path, cfg), "--oracle", "--tau-max", "12"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle_gap"] <= 1.02

    def test_readme_example_config(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        cfg = yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
        assert cfg["topology"]["layer_sizes"][0] == 96
        path = self.write(tmp_path, cfg)
        outs = {}
        for command in ("theory", "optimize"):
            assert main([command, path]) == 0, command
            outs[command] = json.loads(capsys.readouterr().out)
        assert outs["theory"]["q"] == [measure_q(stochastic(spec["levels"]), 4) for spec in cfg["quantizers"]]
        out = tmp_path / "readme_run"
        assert main(["run", path, "--output-dir", str(out)]) == 0
        summary = load_strict_json(out / "summary.json")
        assert summary["config"]["schedule"]["rounds"] == cfg["schedule"]["rounds"]
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + cfg["schedule"]["rounds"]

    def test_theory_names_task_constants_past_float_range(self, tmp_path, capsys):
        # the centers' squares overflow: the task's sigma2 is inf and its gap0 inf - inf;
        # under the suite's error::RuntimeWarning a numpy warning would exit 1
        cfg = quad_config(tmp_path)
        cfg["task"]["center_spread"] = 1e200
        path = self.write(tmp_path, cfg)
        assert main(["theory", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the quadratic task supplied non-finite theory constants")
        assert "sigma2 = inf" in err and "gap0 = nan" in err and "theory.sigma2, theory.gap0" in err
        assert "lipschitz" not in err
        assert main(["run", path]) == 4
        cfg["theory"] = {"sigma2": 1.0, "gap0": 1.0}
        assert main(["theory", self.write(tmp_path, cfg)]) == 0

    def test_theory_with_a_huge_lipschitz(self, tmp_path, capsys):
        # L (B + sqrt(B^2 + 4S)) passes float range; the largest feasible lr does not
        assert main(["theory", self.write(tmp_path, quad_config(tmp_path, theory={"lipschitz": 1e308}))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 < out["max_feasible_mu"] < 1e-308 and out["bound_applies"] is False

    def test_theory_with_a_tiny_lipschitz(self, tmp_path, capsys):
        # L^2 = 1e-320 is subnormal, which the exact condition does not round:
        # the returned lr, near 7.3e153, is the largest float it holds at
        cfg = quad_config(tmp_path, schedule={"taus": [100, 100, 100], "rounds": 8}, theory={"lipschitz": 1.0e-160})
        assert main(["theory", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        s = _setup(cfg, "theory")
        p = TheoryParams(
            lipschitz=1.0e-160, sigma2=out["sigma2"], gap0=out["gap0"], mu=out["max_feasible_mu"],
            q=s.q, topology=s.topo, schedule=s.sched,
        )
        assert is_largest_feasible(p, p.mu)

    def test_readme_cli_block_lists_the_subcommands(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = re.search(r"\{(.*?)\}", capsys.readouterr().out).group(1)
        assert [line.split()[1] for line in block.splitlines()] == usage.split(",")

    def test_readme_library_example(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        assert "theory_constants" in code
        exec(compile(code, "README.md", "exec"), {})
        measured, bound = capsys.readouterr().out.split(" <= ")
        assert float(measured) <= float(bound)

    def test_compare_depths_subcommand(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            schedule={"taus": [2, 2, 2], "rounds": 10},
            compare={
                "depths": [3],
                "threshold": 1e-3,
                "kappas": {3: 1.0},
                "taus": {3: [2, 2, 2]},
            },
        )
        assert main(["compare-depths", self.write(tmp_path, cfg)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["depth"] == 3

    def test_compare_depths_optimizes_each_depth(self, tmp_path, capsys):
        # as in run, schedule.optimize needs no taus: each depth's _setup optimizes its own
        cfg = quad_config(tmp_path, schedule={"optimize": True, "rounds": 3}, compare={"depths": [3, 2]})
        path = self.write(tmp_path, cfg)
        assert main(["run", path]) == 0
        assert main(["compare-depths", path]) == 0
        for depth in (3, 2):
            summary = json.loads((tmp_path / "out" / f"depth_{depth}" / "summary.json").read_text())
            assert summary["optimizer"] is not None
            assert len(summary["config"]["schedule"]["taus"]) == depth


def key_table_row(section, key, kind, default):
    """README's key-table line for one row of cli._KEYS."""
    where, _, kinds = section.partition(" ")
    path = f"`{key}`" if where == "config" else f"`{where}.{key}`"
    name = "flag" if kind is bool else f"list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
    shown = "required" if default is None else "unset" if default is cli._OPTIONAL else f"`{default}`"
    shown = shown.lower() if isinstance(default, bool) else shown
    return f"| {path}{f' ({kinds})' if kinds else ''} | {name} | {shown} |"


class TestKeyTable:
    def test_each_rejected_value_exits_two_naming_the_key(self, tmp_path, capsys):
        # every row of cli._KEYS, given each value its kind rejects (config_walk.REJECTED),
        # under each subcommand that reads it
        failures, path, runs = [], tmp_path / "walk.yaml", set()
        for name, command, cfg, named in config_walk.cases(tmp_path):
            path.write_text(yaml.safe_dump(cfg))
            code = main([command, str(path)])
            err = capsys.readouterr().err
            runs.add((command, name.partition("=")[0]))
            if code != 2 or not err.startswith("config error: ") or named not in err:
                failures.append(f"{command} {name}: exit {code}: {err[:200]}")
        assert not failures, "\n".join(failures)
        keys = [(section.partition(" ")[0], row[0]) for section, rows in cli._KEYS.items() for row in rows]
        assert len(runs) == sum(len(config_walk.commands(where, key)) for where, key in keys)
        assert {command for command, _ in runs} == {"run", "theory", "compare-depths"}

    def test_readme_lists_every_key_with_its_kind_and_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = re.search(r"\| key \| kind \| default \|\n\| --- \| --- \| --- \|\n(.*?)\n\n", readme, re.S).group(1)
        rows = [key_table_row(section, *row) for section, rows in cli._KEYS.items() for row in rows]
        assert table.splitlines() == rows


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 3\nlr: 0.1\n")
        assert load_config(path) == {"seed": 3, "lr": 0.1}

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(path)
