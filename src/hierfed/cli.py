"""Configuration, orchestration, and artifact output.

Subcommands:
    run             execute one experiment, write metrics.csv + summary.json
    theory          print condition value, max feasible learning rate, bound
    optimize        print the iteration-count optimizer result
    compare-depths  run reduced-depth variants of a uniform tree
    measure-q       print the certified and typical quantizer variance constants

Configs are YAML (JSON parses too). Every resolved parameter is echoed into
summary.json so a run can be reproduced from that file alone. Exit codes:
0 success, 2 config error, 3 infeasibility, 4 diverged (non-finite training).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import engine, gp_optimizer, latency as latency_mod, quantizer as quant_mod
from . import tasks as tasks_mod
from . import theory as theory_mod
from .engine import _stream
from .topology import Topology, build_topology, reduce_depth

_TASK_GEN_STREAM = 3
_FREQ_STREAM = 4
_INIT_STREAM = 5


class ConfigError(ValueError):
    """Missing or inconsistent configuration."""


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must contain a mapping")
    return cfg


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


def _build_topology(cfg: dict) -> Topology:
    tcfg = dict(_require(cfg, "topology"))
    if "file" in tcfg:
        tcfg = load_config(tcfg["file"])
    sizes = _require(tcfg, "layer_sizes", "topology")
    try:
        if "fanouts" in tcfg:
            return build_topology(sizes, fanouts=tcfg["fanouts"])
        if "parents" in tcfg:
            return build_topology(sizes, parents=tcfg["parents"])
    except ValueError as exc:
        raise ConfigError(f"bad topology: {exc}") from exc
    raise ConfigError("topology needs fanouts or parents (inline or via file)")


def _load_pool(task_cfg: dict, seed: int) -> tasks_mod.SyntheticPool:
    pool_cfg = _require(task_cfg, "pool", "task")
    if "file" in pool_cfg:
        raw = np.loadtxt(pool_cfg["file"], delimiter=",", skiprows=1)
        feats, labels = raw[:, :-1], raw[:, -1].astype(int)
        holdout = float(pool_cfg.get("holdout_fraction", 0.2))
        order = _stream(seed, _TASK_GEN_STREAM, 1).permutation(len(feats))
        n_hold = int(len(feats) * holdout)
        hold, rest = order[:n_hold], order[n_hold:]
        return tasks_mod.SyntheticPool(
            features=feats[rest],
            labels=labels[rest],
            holdout_features=feats[hold],
            holdout_labels=labels[hold],
        )
    syn = _require(pool_cfg, "synthetic", "task.pool")
    return tasks_mod.make_blob_pool(
        n_samples=int(syn.get("samples", 4000)),
        n_classes=int(syn.get("classes", 10)),
        dim=int(syn.get("dim", 8)),
        rng=_stream(seed, _TASK_GEN_STREAM, 0),
        spread=float(syn.get("spread", 0.6)),
        holdout_fraction=float(syn.get("holdout_fraction", 0.2)),
    )


def _build_task(cfg: dict, topo: Topology):
    """Build the configured task; returns (task, pool, resolved task config)."""
    tcfg = dict(_require(cfg, "task"))
    kind = _require(tcfg, "kind", "task")
    seed = int(_require(cfg, "seed"))
    n_dev = topo.n_devices
    pool = None
    resolved = {"kind": kind, "init_scale": float(tcfg.get("init_scale", 0.0))}
    if kind == "quadratic":
        dim = int(tcfg.get("dimension", 4))
        spd = int(tcfg.get("samples_per_device", 8))
        resolved.update(
            dimension=dim,
            samples_per_device=spd,
            center_spread=float(tcfg.get("center_spread", 1.0)),
            sample_spread=float(tcfg.get("sample_spread", 0.1)),
            batch_size=int(tcfg.get("batch_size", spd)),
        )
        task = tasks_mod.make_quadratic_task(
            n_dev,
            dim,
            _stream(seed, _TASK_GEN_STREAM, 0),
            center_spread=resolved["center_spread"],
            sample_spread=resolved["sample_spread"],
            samples_per_device=spd,
            batch_size=resolved["batch_size"],
        )
    elif kind in ("logistic", "tiny_mlp"):
        pool = _load_pool(tcfg, seed)
        case = int(tcfg.get("partition_case", 3))
        size_range = [int(v) for v in tcfg.get("size_range", [20, 40])]
        pool_cfg = dict(tcfg["pool"])
        if "synthetic" in pool_cfg:
            syn = dict(pool_cfg["synthetic"])
            pool_cfg["synthetic"] = {
                "samples": int(syn.get("samples", 4000)),
                "classes": int(syn.get("classes", 10)),
                "dim": int(syn.get("dim", 8)),
                "spread": float(syn.get("spread", 0.6)),
                "holdout_fraction": float(syn.get("holdout_fraction", 0.2)),
            }
        resolved.update(partition_case=case, size_range=size_range, pool=pool_cfg)
        try:
            parts = tasks_mod.partition(
                pool.features,
                pool.labels,
                n_dev,
                case,
                (size_range[0], size_range[1]),
                _stream(seed, _TASK_GEN_STREAM, 2),
            )
        except tasks_mod.InsufficientPool as exc:
            raise ConfigError(f"task.pool too small: {exc}") from exc
        batch = int(tcfg.get("batch_size", min(p.size for p in parts)))
        resolved["batch_size"] = batch
        if kind == "logistic":
            for p in parts:
                p.labels = np.where(p.labels % 2 == 0, -1, 1)
            pool.holdout_labels = np.where(pool.holdout_labels % 2 == 0, -1, 1)
            task = tasks_mod.LogisticTask(parts, batch_size=batch)
        else:
            n_classes = int(np.max(pool.labels)) + 1
            resolved["hidden"] = int(tcfg.get("hidden", 16))
            task = tasks_mod.TinyMLPTask(
                parts,
                batch_size=batch,
                n_classes=n_classes,
                hidden=resolved["hidden"],
            )
        if resolved["init_scale"] == 0.0 and kind == "tiny_mlp":
            resolved["init_scale"] = 0.1
    else:
        raise ConfigError(f"unknown task kind {kind!r}")
    return task, pool, resolved


def _initial_model(cfg: dict, task) -> np.ndarray:
    seed = int(cfg["seed"])
    scale = float(cfg.get("task", {}).get("init_scale", 0.0))
    if task.kind == "tiny_mlp" and scale == 0.0:
        scale = 0.1  # zero init would be a symmetric saddle
    if scale == 0.0:
        return np.zeros(task.dim)
    return scale * _stream(seed, _INIT_STREAM, 0).standard_normal(task.dim)


def _build_quantizers(cfg: dict, n_layers: int) -> list[quant_mod.QuantizerSpec]:
    qcfg = cfg.get("quantizers")
    if qcfg is None:
        return [quant_mod.identity() for _ in range(n_layers)]
    if len(qcfg) != n_layers:
        raise ConfigError(f"need {n_layers} quantizers, got {len(qcfg)}")
    specs = []
    for entry in qcfg:
        kind = entry.get("kind", "identity")
        try:
            specs.append(
                quant_mod.QuantizerSpec(kind=kind, levels=int(entry.get("levels", 1)))
            )
        except ValueError as exc:
            raise ConfigError(f"bad quantizer entry {entry}: {exc}") from exc
    return specs


def _measure_qs(specs: list[quant_mod.QuantizerSpec], dim: int) -> list[float]:
    return [quant_mod.measure_q(spec, dim) for spec in specs]


def _build_latency(cfg: dict, topo: Topology, task, n_layers: int) -> latency_mod.LatencyParams:
    lcfg = dict(cfg.get("latency", {}))
    seed = int(cfg["seed"])
    freqs = lcfg.get("frequencies")
    if freqs is None:
        freqs = [0.5e9] * topo.n_devices
    elif isinstance(freqs, dict):
        rng = _stream(seed, _FREQ_STREAM, 0)
        freqs = rng.uniform(float(freqs["min"]), float(freqs["max"]), size=topo.n_devices).tolist()
    model_bits = lcfg.get("model_bits")
    if model_bits is None:
        model_bits = 32.0 * task.dim
    params = latency_mod.LatencyParams(
        cycles_per_sample=float(lcfg.get("cycles_per_sample", 0.25e9)),
        frequencies=[float(f) for f in freqs],
        batch_size=int(lcfg.get("batch_size", task.batch_size)),
        model_bits=float(model_bits),
        bandwidth=float(lcfg.get("bandwidth", 1e6)),
        tx_power=float(lcfg.get("tx_power", 0.5)),
        channel_gain=float(lcfg.get("channel_gain", 1e-8)),
        noise_power=float(lcfg.get("noise_power", 1e-10)),
        kappa=float(lcfg.get("kappa", 1.0)),
        path_loss_exp=float(lcfg.get("path_loss_exp", 3.4)),
        deadline=float(lcfg.get("deadline", math.inf)),
        rounds=int(cfg.get("schedule", {}).get("rounds", 1)),
    )
    t_edge = lcfg.get("t_edge")
    if t_edge is None:
        t_de = latency_mod.compute_tde(params)
        t_edge = [10.0 * (k + 1) * t_de for k in range(n_layers - 1)]
    elif isinstance(t_edge, dict):
        t_de = latency_mod.compute_tde(params)
        t_edge = [float(m) * t_de for m in t_edge["multipliers"]]
    if len(t_edge) < n_layers - 1:
        raise ConfigError(f"latency.t_edge needs {n_layers - 1} entries")
    params.t_edge = [float(v) for v in t_edge[: max(0, n_layers - 1)]]
    return params


def _theory_block(cfg, topo, sched, task, q_vec, w0, lr):
    """Condition value, feasible learning rate, and bound decomposition.

    Exact constants are available for the quadratic task; otherwise the
    config must provide lipschitz/gap0 (sigma2 falls back to an empirical
    estimate) or the block is reported as null.
    """
    thy = dict(cfg.get("theory", {}))
    seed = int(cfg["seed"])
    lipschitz = thy.get("lipschitz")
    sigma2 = thy.get("sigma2")
    gap0 = thy.get("gap0")
    if task.kind == "quadratic":
        if lipschitz is None:
            lipschitz = 1.0
        if sigma2 is None:
            sigma2 = task.gradient_noise_sigma2()
        if gap0 is None:
            opt = task.optimum()
            gap0 = float(tasks_mod.flat_global_loss(task)(w0) - tasks_mod.flat_global_loss(task)(opt))
    else:
        if sigma2 is None and lipschitz is not None:
            sigma2 = tasks_mod.estimate_sigma2(task, w0, _stream(seed, _TASK_GEN_STREAM, 9))
    if lipschitz is None or sigma2 is None or gap0 is None:
        return None
    params = theory_mod.TheoryParams(
        lipschitz=float(lipschitz),
        sigma2=float(sigma2),
        mu=float(lr),
        gap0=float(gap0),
        q=tuple(q_vec),
        topology=topo,
        schedule=sched,
    )
    speed, err, total = theory_mod.rate_bound(params, sched.global_rounds)
    return {
        "lipschitz": params.lipschitz,
        "sigma2": params.sigma2,
        "gap0": params.gap0,
        "condition_value": theory_mod.condition_lhs(params),
        "max_feasible_mu": theory_mod.max_feasible_mu(params),
        "bound_speed_term": speed,
        "bound_error_term": err,
        "bound_total": total,
    }


def _resolved_config(cfg, topo, sched, quantizers, q_vec, dim, lat, lr, weighted, task_resolved) -> dict:
    return {
        "seed": int(cfg["seed"]),
        "topology": {
            "layer_sizes": list(topo.layer_sizes),
            "parents": [list(p) for p in topo.parents],
            "fanouts": list(topo.fanouts) if topo.fanouts else None,
        },
        "task": task_resolved,
        "schedule": {"taus": list(sched.taus), "rounds": sched.global_rounds},
        "quantizers": [{"kind": s.kind, "levels": s.levels} for s in quantizers],
        "q": list(q_vec),
        "q_typical": [quant_mod.typical_q(s, dim) for s in quantizers],
        "lr": float(lr),
        "weighted": bool(weighted),
        "alpha": float(cfg.get("alpha", 0.5)),
        "theory": dict(cfg.get("theory", {})),
        "latency": {
            "cycles_per_sample": lat.cycles_per_sample,
            "frequencies": list(lat.frequencies),
            "batch_size": lat.batch_size,
            "model_bits": lat.model_bits,
            "bandwidth": lat.bandwidth,
            "tx_power": lat.tx_power,
            "channel_gain": lat.channel_gain,
            "noise_power": lat.noise_power,
            "t_edge": list(lat.t_edge),
            "kappa": lat.kappa,
            "path_loss_exp": lat.path_loss_exp,
            "deadline": lat.deadline,
            "rounds": lat.rounds,
        },
    }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _optimizer_block(res: gp_optimizer.OptimizerResult) -> dict:
    """The optimizer result as reported by `run` and `optimize`."""
    return {
        "taus_continuous": list(res.taus_continuous),
        "taus_integer": list(res.taus_integer),
        "objective_continuous": res.objective_continuous,
        "objective_integer": res.objective_integer,
        "iterations": res.iterations,
        "newton_steps": res.newton_steps,
        "converged": res.converged,
        "slack": res.slack,
    }


def run_experiment(cfg: dict, output_dir: str | Path | None = None) -> dict:
    """Execute one configured run; write metrics.csv and summary.json."""
    return _run(cfg, output_dir)[0]


def _run(cfg: dict, output_dir: str | Path | None = None) -> tuple[dict, engine.RunMetrics]:
    """run_experiment that also returns the run's in-memory metrics."""
    seed = int(_require(cfg, "seed"))
    topo = _build_topology(cfg)
    n_layers = topo.num_layers
    task, pool, task_resolved = _build_task(cfg, topo)
    lr = float(_require(cfg, "lr"))
    weighted = bool(cfg.get("weighted", False))
    quantizers = _build_quantizers(cfg, n_layers)
    q_vec = _measure_qs(quantizers, task.dim)
    lat = _build_latency(cfg, topo, task, n_layers)

    scfg = dict(_require(cfg, "schedule"))
    rounds = int(_require(scfg, "rounds", "schedule"))
    optimizer_result = None
    if scfg.get("optimize", False):
        spec = gp_optimizer.ObjectiveSpec(
            alpha=float(cfg.get("alpha", 0.5)),
            counts=topo.layer_sizes[1:-1],
            n_tot=topo.n_devices,
            q=tuple(q_vec),
            latency=lat,
        )
        res = gp_optimizer.optimize(spec)
        taus = res.taus_integer
        optimizer_result = _optimizer_block(res)
    else:
        taus = tuple(int(v) for v in _require(scfg, "taus", "schedule"))
    sched = engine.Schedule(taus, rounds)
    lat.rounds = rounds

    per_round = latency_mod.round_latency(lat, sched)
    w0 = _initial_model(cfg, task)
    metrics = engine.run(
        task,
        topo,
        sched,
        quantizers,
        lr,
        seed=seed,
        weighted=weighted,
        w0=w0,
        round_latency=per_round,
    )

    accuracy = None
    if pool is not None and hasattr(task, "accuracy"):
        accuracy = task.accuracy(metrics.final_model, pool.holdout_features, pool.holdout_labels)

    summary = {
        "final_loss": metrics.final_loss,
        "final_grad_norm_sq": metrics.final_grad_norm_sq,
        "mean_grad_norm_sq": metrics.mean_grad_norm_sq(),
        "final_accuracy": accuracy,
        "round_latency": per_round,
        "total_time": metrics.cumulative_time[-1],
        "theory": _theory_block(cfg, topo, sched, task, q_vec, w0, lr),
        "optimizer": optimizer_result,
        "config": _resolved_config(cfg, topo, sched, quantizers, q_vec, task.dim, lat, lr, weighted, task_resolved),
    }

    out = Path(output_dir if output_dir is not None else cfg.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "loss", "grad_norm_sq", "latency", "cumulative_time"])
        for t in range(metrics.rounds):
            writer.writerow(
                [
                    t,
                    repr(metrics.loss[t]),
                    repr(metrics.grad_norm_sq[t]),
                    repr(metrics.round_latency[t]),
                    repr(metrics.cumulative_time[t]),
                ]
            )
    # serialize first: a non-finite value must not leave a truncated file behind
    text = json.dumps(_json_safe(summary), indent=2, allow_nan=False)
    (out / "summary.json").write_text(text + "\n", encoding="utf-8")
    return summary, metrics


def compare_depths(cfg: dict, depths: list[int] | None = None) -> list[dict]:
    """Run reduced-depth variants of a uniform base tree and tabulate
    rounds/time to a gradient-norm threshold.

    The compare block maps each depth to its distance factor kappa and its
    iteration counts; schedules are expected to share the same product so
    that depth effects come from latency, not work per round.
    """
    ccfg = dict(cfg.get("compare", {}))
    if depths is None:
        depths = [int(d) for d in _require(ccfg, "depths", "compare")]
    threshold = float(ccfg.get("threshold", 1e-4))
    kappas = {int(k): float(v) for k, v in ccfg.get("kappas", {}).items()}
    taus_map = {int(k): [int(x) for x in v] for k, v in ccfg.get("taus", {}).items()}

    base = _build_topology(cfg)
    rows = []
    out_dir = Path(cfg.get("output_dir", "."))
    for depth in depths:
        if depth > base.num_layers:
            raise ConfigError(f"depth {depth} exceeds the base tree ({base.num_layers})")
        sub = dict(cfg)
        topo = reduce_depth(base, base.num_layers - depth)
        sub["topology"] = {
            "layer_sizes": list(topo.layer_sizes),
            "fanouts": list(topo.fanouts),
        }
        sub_sched = dict(cfg.get("schedule", {}))
        if depth in taus_map:
            sub_sched["taus"] = taus_map[depth]
            sub_sched.pop("optimize", None)
        elif len(sub_sched.get("taus", [])) != depth:
            raise ConfigError(f"no schedule of length {depth} for depth {depth}")
        sub["schedule"] = sub_sched
        sub_lat = dict(cfg.get("latency", {}))
        sub_lat["kappa"] = kappas.get(depth, 1.0)
        sub["latency"] = sub_lat
        qcfg = cfg.get("quantizers")
        if qcfg is not None:
            sub["quantizers"] = list(qcfg)[-depth:]  # keep the upper hops' settings
        sub["output_dir"] = str(out_dir / f"depth_{depth}")

        summary, metrics = _run(sub)
        hit = next((t for t, g in enumerate(metrics.grad_norm_sq) if g <= threshold), None)
        rows.append(
            {
                "depth": depth,
                "rounds_to_threshold": hit,
                "time_to_threshold": None if hit is None else metrics.cumulative_time[hit],
                "round_latency": summary["round_latency"],
                "final_loss": summary["final_loss"],
            }
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "depth_comparison.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["depth", "rounds_to_threshold", "time_to_threshold", "round_latency", "final_loss"],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return rows


def _cmd_theory(cfg: dict) -> dict:
    topo = _build_topology(cfg)
    task, _, _ = _build_task(cfg, topo)
    quantizers = _build_quantizers(cfg, topo.num_layers)
    q_vec = _measure_qs(quantizers, task.dim)
    scfg = dict(_require(cfg, "schedule"))
    sched = engine.Schedule(tuple(_require(scfg, "taus", "schedule")), int(scfg.get("rounds", 1)))
    block = _theory_block(cfg, topo, sched, task, q_vec, _initial_model(cfg, task), float(_require(cfg, "lr")))
    if block is None:
        raise ConfigError("theory needs lipschitz/sigma2/gap0 (or a quadratic task)")
    return block


def _cmd_optimize(cfg: dict, oracle: bool, tau_max: int) -> dict:
    topo = _build_topology(cfg)
    task, _, _ = _build_task(cfg, topo)
    quantizers = _build_quantizers(cfg, topo.num_layers)
    q_vec = _measure_qs(quantizers, task.dim)
    lat = _build_latency(cfg, topo, task, topo.num_layers)
    lat.rounds = int(cfg.get("schedule", {}).get("rounds", 1))
    spec = gp_optimizer.ObjectiveSpec(
        alpha=float(cfg.get("alpha", 0.5)),
        counts=topo.layer_sizes[1:-1],
        n_tot=topo.n_devices,
        q=tuple(q_vec),
        latency=lat,
    )
    res = gp_optimizer.optimize(spec)
    out = _optimizer_block(res)
    if oracle:
        best, best_val = gp_optimizer.brute_force(spec, tau_max)
        out["oracle_taus"] = list(best)
        out["oracle_objective"] = best_val
        out["oracle_gap"] = res.objective_integer / best_val if best_val > 0 else 1.0
    return out


def _cmd_measure_q(cfg: dict) -> dict:
    topo = _build_topology(cfg)
    task, _, _ = _build_task(cfg, topo)
    quantizers = _build_quantizers(cfg, topo.num_layers)
    q_vec = _measure_qs(quantizers, task.dim)
    return {
        "dimension": task.dim,
        "q": q_vec,
        "q_typical": [quant_mod.typical_q(s, task.dim) for s in quantizers],
        "levels": [s.levels if not s.is_identity else None for s in quantizers],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hierfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "theory", "optimize", "compare-depths", "measure-q"):
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML/JSON config file")
        if name == "run":
            p.add_argument("--output-dir", default=None)
        if name == "optimize":
            p.add_argument("--oracle", action="store_true", help="also run brute force")
            p.add_argument("--tau-max", type=int, default=16)
        if name == "compare-depths":
            p.add_argument("--depths", type=int, nargs="*", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "run":
            result = run_experiment(cfg, args.output_dir)
        elif args.command == "theory":
            result = _cmd_theory(cfg)
        elif args.command == "optimize":
            result = _cmd_optimize(cfg, args.oracle, args.tau_max)
        elif args.command == "compare-depths":
            result = compare_depths(cfg, args.depths or None)
        else:
            result = _cmd_measure_q(cfg)
        print(json.dumps(_json_safe(result), indent=2, allow_nan=False))
    except engine.Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        gp_optimizer.NoFeasiblePoint,
        gp_optimizer.InfeasibleStart,
        gp_optimizer.RegimeViolation,
        theory_mod.NoFeasibleMu,
    ) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
