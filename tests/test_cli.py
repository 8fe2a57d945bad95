import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from hierfed import engine
from hierfed.cli import (
    ConfigError,
    compare_depths,
    load_config,
    main,
    run_experiment,
)


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


class TestRunExperiment:
    def test_metrics_shape_and_monotone_time(self, tmp_path):
        cfg = quad_config(tmp_path)
        run_experiment(cfg)
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "round,loss,grad_norm_sq,latency,cumulative_time"
        assert len(lines) == 1 + 8
        times = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(b > a for a, b in zip(times, times[1:]))

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
        assert all(t <= v for t, v in zip(summary["config"]["q_typical"], q))

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


class TestPoolFile:
    def test_csv_pool_loaded(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["f0,f1,label"]
        for _ in range(600):
            label = int(rng.integers(0, 4))
            f = rng.normal(size=2) + 3 * label
            rows.append(f"{f[0]},{f[1]},{label}")
        pool_file = tmp_path / "pool.csv"
        pool_file.write_text("\n".join(rows) + "\n")
        cfg = quad_config(
            tmp_path,
            task={
                "kind": "tiny_mlp",
                "pool": {"file": str(pool_file)},
                "partition_case": 3,
                "size_range": [30, 40],
                "batch_size": 10,
                "hidden": 4,
            },
            schedule={"taus": [2, 1, 1], "rounds": 4},
            lr=0.3,
        )
        summary = run_experiment(cfg)
        assert summary["final_accuracy"] is not None

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
        assert rows[0]["final_loss"] == pytest.approx(summary["final_loss"], rel=1e-12)


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
        "command, overrides",
        [
            ("run", {"quantizers": [{"kind": "bogus"}] * 3}),
            ("run", {"topology": {"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2]}}),
            ("run", {"schedule": {"taus": [0, 1, 1], "rounds": 8}}),
            ("run", {"lr": -0.05}),  # rejected by the theory block, after training
            (  # reduce_depth needs a uniform fan-out tree
                "compare-depths",
                {
                    "topology": {"layer_sizes": [4, 2, 1], "parents": [[0, 0, 0, 1], [0, 0]]},
                    "compare": {"depths": [1]},
                    "schedule": {"taus": [2], "rounds": 2},
                },
            ),
        ],
        ids=["quantizer", "topology", "schedule", "theory", "compare_depths"],
    )
    def test_domain_validation_error_exit_two(self, tmp_path, capsys, command, overrides):
        assert main([command, self.write(tmp_path, quad_config(tmp_path, **overrides))]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_internal_value_error_exit_one(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("shapes (3,) and (4,) not aligned")

        monkeypatch.setattr(engine, "run", broken)
        assert main(["run", self.write(tmp_path, quad_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "Traceback" in err and "not aligned" in err

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

    def test_optimize_subcommand_with_oracle(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4, "optimize": True},
            latency={"deadline": 4000.0, "cycles_per_sample": 1e7},
        )
        assert main(["optimize", self.write(tmp_path, cfg), "--oracle", "--tau-max", "12"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle_gap"] <= 1.02

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
        cfg = quad_config(
            tmp_path,
            quantizers=[
                {"kind": "stochastic_levels", "levels": 2},
                {"kind": "stochastic_levels", "levels": 4},
                {"kind": "identity"},
            ],
        )
        assert main(["measure-q", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["q"][0] > out["q"][1] > 0.0 == out["q"][2]
        assert all(t <= q for t, q in zip(out["q_typical"], out["q"]))

    def test_theory_honours_schedule_optimize(self, tmp_path, capsys):
        cfg = quad_config(
            tmp_path,
            schedule={"rounds": 4, "optimize": True},
            latency={"deadline": 4000.0, "cycles_per_sample": 1e7},
        )
        assert main(["theory", self.write(tmp_path, cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == run_experiment(cfg)["theory"]

    def test_measure_q_reads_no_schedule_or_latency(self, tmp_path, capsys):
        cfg = quad_config(tmp_path)
        del cfg["schedule"], cfg["latency"]
        assert main(["measure-q", self.write(tmp_path, cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 2

    def test_readme_example_config(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        cfg = yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
        assert cfg["topology"]["layer_sizes"][0] == 96
        path = self.write(tmp_path, cfg)
        for command in ("measure-q", "theory", "optimize"):
            assert main([command, path]) == 0, command
            json.loads(capsys.readouterr().out)

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
