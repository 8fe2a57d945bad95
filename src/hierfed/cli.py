"""Configuration, orchestration, and artifact output.

Subcommands:
    run             execute one experiment, write metrics.csv + summary.json
    theory          print condition value, max feasible learning rate, bound, q
    optimize        print the iteration-count optimizer result
    compare-depths  run reduced-depth variants of a uniform tree

Configs are YAML (JSON parses too). Each key is a row of the `_KEYS` table,
with its kind and its one default, and `_read` reads it; only the structural
forms are read where their form is decided: task.kind, the list forms of
latency.frequencies and latency.t_edge, quantizer entries and the compare
depth maps. Every subcommand resolves its config through the same `_setup`
step, which reads each key once: optimize stops after the latency model and
needs no lr or taus, compare-depths stops before the schedule, which
`_schedule` sets per depth, and run and theory resolve everything, so theory
reports the GP-optimized taus when schedule.optimize is set, as run does.
The summary.json config echo is built from the resolved rows and objects, so
a run can be reproduced from that file alone. Exit codes: 0 success, 1
internal error, 2 config error, 3 infeasibility, 4 diverged (non-finite
training).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, replace
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


@contextlib.contextmanager
def _config_errors():
    """Re-raise the domain validation errors (ValueError) as ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:  # a missing file, a directory, ...
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must contain a mapping")
    return cfg


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


def _section(cfg: dict, key: str, where: str = "config", required: bool = True) -> dict:
    """A copy of the mapping under `key`; an optional section may be absent."""
    value = _require(cfg, key, where) if required else cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where} key {key!r} must be a mapping, got {value!r}")
    return dict(value)


def integer(value) -> int:
    """int(value) of a whole number or an integer string such as "8"; a
    number with a fractional part is rejected, not truncated. The `kind`
    for integer keys: `_list` and `_scalar` name it in their errors."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def non_negative_integer(value) -> int:
    """integer(value) that is at least 0. The `kind` for the seed."""
    value = integer(value)
    if value < 0:
        raise ValueError(f"{value} is below 0")
    return value


def positive_integer(value) -> int:
    """integer(value) that is at least 1. The `kind` for size keys."""
    value = integer(value)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def finite(value) -> float:
    """float(value) of a finite number; NaN and infinities are rejected. The
    `kind` for real keys whose value must be a number."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def non_negative(value) -> float:
    """finite(value) that is >= 0. The `kind` for spreads, sigma2 and gap0."""
    value = finite(value)
    if value < 0.0:
        raise ValueError(f"{value} is below 0")
    return value


def positive(value) -> float:
    """finite(value) that is > 0. The `kind` for lr and lipschitz."""
    value = finite(value)
    if value <= 0.0:
        raise ValueError(f"{value} is not above 0")
    return value


def fraction(value) -> float:
    """finite(value) in [0, 1]. The `kind` for holdout_fraction."""
    value = finite(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{value} is outside [0, 1]")
    return value


def pathname(value) -> str:
    """value itself when it is a string. The `kind` for path keys: a number
    is not a path, and 0 is not standard input."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _list(cfg: dict, key: str, kind, where: str = "config", default=None) -> list:
    """kind(entry) for each entry of the list under `key`; a key with a
    default may be absent. A boolean entry is rejected, not read as 0 or 1."""
    value = _require(cfg, key, where) if default is None else cfg.get(key, default)
    with contextlib.suppress(TypeError, ValueError):
        if isinstance(value, (list, tuple)) and bool not in map(type, value):
            return [kind(v) for v in value]
    raise ConfigError(f"{where} key {key!r} must be a list of {kind.__name__} values, got {value!r}")


def _scalar(cfg: dict, key: str, kind, where: str = "config", default=None):
    """kind(value) of the single value under `key`; a key with a default may
    be absent or null. Number strings such as "1e9" are accepted; a boolean
    is rejected, not read as 0 or 1."""
    value = _require(cfg, key, where) if default is None else cfg.get(key)
    value = default if value is None else value
    with contextlib.suppress(TypeError, ValueError):
        if not isinstance(value, bool):
            return kind(value)
    raise ConfigError(f"{where} key {key!r} must be a single {kind.__name__} value, got {value!r}")


# Every key the subcommands read, by section: ordered (key, kind, default)
# rows. A section may name after a space the task kinds it is read for (pool:
# logistic and tiny_mlp); errors name the config path before it. A kind in a
# list reads a list of that kind, and bool a YAML flag. A default of None marks
# a required key, _OPTIONAL one left unset when absent or null; a str default,
# but a path's, names the row read before it that it copies, or the value the
# caller passes in its place.
_OPTIONAL = object()
_KEYS = {
    "config": (
        ("seed", non_negative_integer, None), ("alpha", finite, 0.5), ("lr", positive, None), ("weighted", bool, False),
        ("output_dir", pathname, "."),
    ),
    "topology": (
        ("file", pathname, None), ("layer_sizes", [integer], None), ("fanouts", [integer], None),
        ("parents", [list], None),
    ),
    "task": (("init_scale", finite, 0.0),),  # tiny_mlp: 0.1, as zero init is a symmetric saddle
    "task quadratic": (
        ("dimension", positive_integer, 4), ("samples_per_device", positive_integer, 8),
        ("center_spread", non_negative, 1.0), ("sample_spread", non_negative, 0.1),
        ("batch_size", integer, "samples_per_device"),
    ),
    "task pool": (
        ("partition_case", integer, 3), ("size_range", [integer], [20, 40]),
        ("batch_size", integer, "smallest device dataset"),
    ),
    "task tiny_mlp": (("hidden", positive_integer, 16),),
    "task.pool": (("file", pathname, None), ("holdout_fraction", fraction, 0.2)),
    "task.pool.synthetic": (
        ("samples", positive_integer, 4000), ("classes", positive_integer, 10), ("dim", positive_integer, 8),
        ("spread", non_negative, 0.6), ("holdout_fraction", fraction, 0.2),
    ),
    "schedule": (("rounds", positive_integer, None), ("optimize", bool, False), ("taus", [integer], None)),
    "latency": (
        ("cycles_per_sample", float, 0.25e9), ("batch_size", integer, "task.batch_size"),
        ("model_bits", float, "32 per model weight"), ("bandwidth", float, 1e6), ("tx_power", float, 0.5),
        ("channel_gain", float, 1e-8), ("noise_power", float, 1e-10), ("kappa", float, 1.0),
        ("path_loss_exp", float, 3.4), ("deadline", float, math.inf),
    ),
    "latency.frequencies": (("min", finite, None), ("max", finite, None)),
    "latency.t_edge": (("multipliers", [float], None),),
    "theory": (
        ("lipschitz", positive, _OPTIONAL), ("sigma2", non_negative, _OPTIONAL), ("gap0", non_negative, _OPTIONAL),
    ),
    "compare": (("depths", [integer], None), ("threshold", finite, 1e-4)),
}
_THEORY_CONSTANTS = tuple(key for key, _, _ in _KEYS["theory"])


def _read(cfg: dict, section: str, *keys: str, **given) -> dict:
    """{key: value} of the rows of _KEYS[section] named by `keys`, or of all
    of them, read from cfg in table order; given[key] replaces a default. A
    flag is false when absent or null; a string such as "false" is rejected
    rather than read as truthy."""
    where, out = section.split()[0], {}
    for key, kind, default in _KEYS[section]:
        if keys and key not in keys or default is _OPTIONAL and cfg.get(key) is None:
            continue
        default = given.get(key, default)
        default = out.get(default, default) if isinstance(default, str) else default
        if isinstance(kind, list):
            out[key] = _list(cfg, key, kind[0], where, default)
        elif kind is not bool:
            out[key] = _scalar(cfg, key, kind, where, default)
        elif (value := cfg.get(key)) is None or isinstance(value, bool):
            out[key] = bool(value)
        else:
            raise ConfigError(f"{where} key {key!r} must be true or false, got {value!r}")
    return out


def _build_topology(cfg: dict) -> Topology:
    tcfg = _section(cfg, "topology")
    if "file" in tcfg:
        tcfg = load_config(_read(tcfg, "topology", "file")["file"])
    form = [k for k in ("fanouts", "parents") if k in tcfg][:1]
    rows = _read(tcfg, "topology", "layer_sizes", *form)
    if not form:
        raise ConfigError("topology needs fanouts or parents (inline or via file)")
    return build_topology(**rows)


def _load_pool(pool_cfg: dict, seed: int) -> tuple[tasks_mod.SyntheticPool, dict]:
    """The labeled pool and its resolved config."""
    if "file" in pool_cfg:
        path, holdout = _read(pool_cfg, "task.pool").values()
        try:
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except FileNotFoundError as exc:
            raise ConfigError(f"task.pool.file not found: {path}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read task.pool.file {path}: {exc.strerror}") from exc
        labels = raw[:, -1]
        if raw.shape[1] < 2 or not np.all(np.isfinite(labels) & (labels >= 0) & (labels == np.floor(labels))):
            raise ConfigError(f"task.pool.file {path} must hold feature columns, then whole labels >= 0")
        feats, labels = raw[:, :-1], labels.astype(int)
        order = _stream(seed, _TASK_GEN_STREAM, 1).permutation(len(feats))
        n_hold = int(len(feats) * holdout)
        hold, rest = order[:n_hold], order[n_hold:]
        return tasks_mod.SyntheticPool(feats[rest], labels[rest], feats[hold], labels[hold]), pool_cfg
    rows = _read(_section(pool_cfg, "synthetic", "task.pool"), "task.pool.synthetic")
    return tasks_mod.make_blob_pool(**rows, rng=_stream(seed, _TASK_GEN_STREAM, 0)), {**pool_cfg, "synthetic": rows}


def _build_task(cfg: dict, topo: Topology, seed: int):
    """Build the configured task; returns (task, pool, resolved task config)."""
    tcfg = _section(cfg, "task")
    kind = _require(tcfg, "kind", "task")
    pool = None
    resolved = {"kind": kind, **_read(tcfg, "task", **({"init_scale": 0.1} if kind == "tiny_mlp" else {}))}
    if kind == "quadratic":
        rows = _read(tcfg, "task quadratic")
        task = tasks_mod.make_quadratic_task(topo.n_devices, rng=_stream(seed, _TASK_GEN_STREAM, 0), **rows)
        resolved.update(rows)
    elif kind in ("logistic", "tiny_mlp"):
        pool, pool_resolved = _load_pool(_section(tcfg, "pool", "task"), seed)
        case, size_range = _read(tcfg, "task pool", "partition_case", "size_range").values()
        if len(size_range) != 2:
            raise ConfigError(f"task key 'size_range' must be [lo, hi], got {size_range!r}")
        resolved.update(partition_case=case, size_range=size_range, pool=pool_resolved)
        try:
            rng = _stream(seed, _TASK_GEN_STREAM, 2)
            parts = tasks_mod.partition(pool.features, pool.labels, topo.n_devices, case, tuple(size_range), rng)
        except tasks_mod.InsufficientPool as exc:
            raise ConfigError(f"task.pool too small: {exc}") from exc
        resolved.update(_read(tcfg, "task pool", "batch_size", batch_size=min(p.size for p in parts)))
        batch = resolved["batch_size"]
        if kind == "logistic":
            for p in parts:
                p.labels = np.where(p.labels % 2 == 0, -1, 1)
            pool.holdout_labels = np.where(pool.holdout_labels % 2 == 0, -1, 1)
            task = tasks_mod.LogisticTask(parts, batch_size=batch)
        else:
            resolved.update(_read(tcfg, "task tiny_mlp"))
            n_classes = int(np.max(pool.labels)) + 1
            task = tasks_mod.TinyMLPTask(parts, batch_size=batch, n_classes=n_classes, hidden=resolved["hidden"])
    else:
        raise ConfigError(f"unknown task kind {kind!r}")
    return task, pool, resolved


def _build_quantizers(cfg: dict, n_layers: int) -> list[quant_mod.QuantizerSpec]:
    qcfg = cfg.get("quantizers")
    if qcfg is None:
        return [quant_mod.identity() for _ in range(n_layers)]
    if not isinstance(qcfg, list) or len(qcfg) != n_layers:
        raise ConfigError(f"quantizers must be a list of {n_layers} entries, got {qcfg!r}")
    if not all(isinstance(entry, dict) for entry in qcfg):
        raise ConfigError(f"quantizers entries must be mappings, got {qcfg!r}")
    return [
        quant_mod.QuantizerSpec(e.get("kind", "identity"), _scalar(e, "levels", integer, "quantizers", 1))
        for e in qcfg
    ]


def _build_latency(cfg: dict, topo: Topology, task, seed: int, rounds: int) -> latency_mod.LatencyParams:
    lcfg = _section(cfg, "latency", required=False)
    n_layers = topo.num_layers
    freqs = lcfg.get("frequencies")
    if freqs is None:
        freqs = [0.5e9] * topo.n_devices
    elif isinstance(freqs, dict):
        lo, hi = _read(freqs, "latency.frequencies").values()
        if not 0.0 <= hi - lo < math.inf:  # Generator.uniform's own errors name no key
            raise ConfigError(f"latency.frequencies needs min <= max, a finite distance apart, got {lo} and {hi}")
        freqs = _stream(seed, _FREQ_STREAM, 0).uniform(lo, hi, size=topo.n_devices).tolist()
    else:
        freqs = _list(lcfg, "frequencies", float, "latency")
    params = latency_mod.LatencyParams(
        frequencies=freqs,
        rounds=rounds,
        **_read(lcfg, "latency", batch_size=task.batch_size, model_bits=32.0 * task.dim),
    )
    t_de = latency_mod.compute_tde(params)  # rejects a zero link rate whatever the t_edge form
    # seconds, or multipliers of t_DE: given, or 10, 20, ... for the n_layers - 1 hops
    t_edge = lcfg.get("t_edge")
    if t_edge is None:
        t_edge = [10.0 * (k + 1) * t_de for k in range(n_layers - 1)]
    elif isinstance(t_edge, dict):
        t_edge = [m * t_de for m in _read(t_edge, "latency.t_edge")["multipliers"]]
    else:
        t_edge = _list(lcfg, "t_edge", float, "latency")
    if len(t_edge) != n_layers - 1:
        raise ConfigError(f"latency.t_edge needs {n_layers - 1} entries, one per inter-edge hop, got {len(t_edge)}")
    return replace(params, t_edge=t_edge)  # reruns __post_init__, which checks t_edge


@dataclass
class _Setup:
    """The objects one config resolves to; every subcommand consumes this.

    The fields after `lat` stay None when `_setup` stops early: optimize
    resolves nothing past `lat`, and compare-depths leaves `sched` and
    `optimizer` to `_schedule`, per depth.
    """

    seed: int
    topo: Topology
    task: tasks_mod.Task
    pool: tasks_mod.SyntheticPool | None
    task_resolved: dict
    quantizers: list[quant_mod.QuantizerSpec]
    q: list[float]
    alpha: float
    lat: latency_mod.LatencyParams
    lr: float | None = None
    weighted: bool | None = None
    theory: dict | None = None
    sched: engine.Schedule | None = None
    optimizer: gp_optimizer.OptimizerResult | None = None
    w0: np.ndarray | None = None

    @_config_errors()
    def objective(self) -> gp_optimizer.ObjectiveSpec:
        return gp_optimizer.ObjectiveSpec(
            alpha=self.alpha,
            counts=self.topo.layer_sizes[1:-1],
            n_tot=self.topo.n_devices,
            q=tuple(self.q),
            latency=self.lat,
        )

    def echo(self) -> dict:
        """The resolved config, which reproduces the run on its own."""
        return {
            "seed": self.seed,
            "topology": {
                "layer_sizes": list(self.topo.layer_sizes),
                **({"fanouts": list(self.topo.fanouts)} if self.topo.fanouts
                   else {"parents": [list(p) for p in self.topo.parents]}),
            },
            "task": self.task_resolved,
            "schedule": {"taus": list(self.sched.taus), "rounds": self.sched.global_rounds},
            "quantizers": [{"kind": spec.kind, "levels": spec.levels} for spec in self.quantizers],
            "q": list(self.q),
            "lr": self.lr,
            "weighted": self.weighted,
            "alpha": self.alpha,
            "theory": self.theory,
            "latency": asdict(self.lat),
        }


@_config_errors()
def _setup(cfg: dict, command: str = "run") -> _Setup:
    """Resolve the config for `command` (see the module docstring for what
    each command reads), reading each key once."""
    seed = _read(cfg, "config", "seed")["seed"]
    topo = _build_topology(cfg)
    task, pool, task_resolved = _build_task(cfg, topo, seed)
    quantizers = _build_quantizers(cfg, topo.num_layers)
    q = [quant_mod.measure_q(spec, task.dim) for spec in quantizers]
    scfg = _section(cfg, "schedule")
    alpha = _read(cfg, "config", "alpha")["alpha"]
    lat = _build_latency(cfg, topo, task, seed, _read(scfg, "schedule", "rounds")["rounds"])
    s = _Setup(seed, topo, task, pool, task_resolved, quantizers, q, alpha, lat)
    if command == "optimize":
        return s
    s.lr, s.weighted = _read(cfg, "config", "lr", "weighted").values()
    theory = _section(cfg, "theory", required=False)
    s.theory = {**theory, **_read(theory, "theory")}
    scale = task_resolved["init_scale"]
    s.w0 = scale * _stream(seed, _INIT_STREAM, 0).standard_normal(task.dim) if scale else np.zeros(task.dim)
    if command == "compare-depths":
        return s
    return _schedule(s, scfg)


@_config_errors()
def _schedule(s: _Setup, scfg: dict, taus: list[int] | None = None) -> _Setup:
    """s with its schedule set: `taus` (compare.taus.<depth>) when given, else
    the schedule section's taus, or the GP optimizer's when it sets optimize."""
    key = "schedule.taus" if taus is None else f"compare.taus.{s.topo.num_layers}"
    if taus is None and _read(scfg, "schedule", "optimize")["optimize"]:
        s.optimizer = gp_optimizer.optimize(s.objective())
        taus = s.optimizer.taus_integer
    elif taus is None:
        taus = _read(scfg, "schedule", "taus")["taus"]
    if len(taus) != s.topo.num_layers:
        raise ConfigError(f"{key} needs {s.topo.num_layers} entries, one per layer, got {len(taus)}")
    s.sched = engine.Schedule(tuple(taus), s.lat.rounds)
    return s


def _theory_block(s: _Setup) -> dict | None:
    """Condition value, feasible learning rate, and bound decomposition.

    The constants are the task's own (Task.theory_constants), each
    overridden by the config's theory key of the same name; `sources` says
    where each came from. The block is null when one of them is missing; a
    task constant that is not finite, as when a spread overflows, is a config
    error that names the theory key overriding it.
    """
    given = {k: s.theory[k] for k in _THEORY_CONSTANTS if s.theory.get(k) is not None}
    with np.errstate(over="ignore", invalid="ignore"):  # a constant past float range is named below
        supplied = s.task.theory_constants(s.w0, s.weighted)
    if bad := [k for k, v in supplied.items() if k not in given and not math.isfinite(v)]:
        found, keys = ", ".join(f"{k} = {supplied[k]}" for k in bad), ", ".join(f"theory.{k}" for k in bad)
        raise ConfigError(f"the {s.task.kind} task supplied non-finite theory constants {found}; {keys} override them")
    constants = {**supplied, **given}
    if len(constants) < len(_THEORY_CONSTANTS):
        return None
    with _config_errors():
        params = theory_mod.TheoryParams(**constants, mu=s.lr, q=s.q, topology=s.topo, schedule=s.sched)
    speed, err, total = theory_mod.rate_bound(params, s.sched.global_rounds)
    condition = theory_mod.condition_lhs(params)
    return {
        "lipschitz": params.lipschitz,
        "sigma2": params.sigma2,
        "gap0": params.gap0,
        "sources": {k: "config" if k in given else s.task.theory_source for k in _THEORY_CONSTANTS},
        "condition_value": condition,
        "bound_applies": condition >= 0.0,  # the bound terms below hold only then
        "max_feasible_mu": theory_mod.max_feasible_mu(params),
        "bound_speed_term": speed,
        "bound_error_term": err,
        "bound_total": total,
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
        return "inf" if obj > 0 else "-inf"
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
    out = output_dir if output_dir is not None else _read(cfg, "config", "output_dir")["output_dir"]
    return _run(_setup(cfg), Path(out))[0]


def _run(s: _Setup, out: Path) -> tuple[dict, engine.RunMetrics, list[float]]:
    """Run a resolved setup and write its artifacts to `out`; also returns
    the in-memory metrics and the simulated time at the end of each round."""
    per_round = latency_mod.round_latency(s.lat, s.sched.taus)
    metrics = engine.run(
        s.task,
        s.topo,
        s.sched,
        s.quantizers,
        s.lr,
        seed=s.seed,
        weighted=s.weighted,
        w0=s.w0,
    )

    accuracy = None  # also when the holdout is empty: its mean accuracy is NaN
    if s.pool is not None and len(s.pool.holdout_labels) and hasattr(s.task, "accuracy"):
        accuracy = s.task.accuracy(metrics.final_model, s.pool.holdout_features, s.pool.holdout_labels)

    elapsed = list(itertools.accumulate([per_round] * metrics.rounds))
    summary = {
        "final_loss": metrics.final_loss,
        "final_grad_norm_sq": metrics.final_grad_norm_sq,
        "mean_grad_norm_sq": metrics.mean_grad_norm_sq(),
        "final_accuracy": accuracy,
        "round_latency": per_round,
        "total_time": elapsed[-1],
        "theory": _theory_block(s),
        "optimizer": None if s.optimizer is None else _optimizer_block(s.optimizer),
        "diagnostics": {"q_realized_mean": metrics.q_realized_mean, "q_realized_max": metrics.q_realized_max},
        "config": s.echo(),
    }

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "loss", "grad_norm_sq", "latency", "cumulative_time"])
        for t in range(metrics.rounds):
            writer.writerow(
                [t, repr(metrics.loss[t]), repr(metrics.grad_norm_sq[t]), repr(per_round), repr(elapsed[t])]
            )
    # serialize first: a non-finite value must not leave a truncated file behind
    text = json.dumps(_json_safe(summary), indent=2, allow_nan=False)
    (out / "summary.json").write_text(text + "\n", encoding="utf-8")
    return summary, metrics, elapsed


def _depth(key, where: str) -> int:
    """integer(key) of a depth key under `where`; a boolean is not depth 0 or 1."""
    with contextlib.suppress(TypeError, ValueError):
        if not isinstance(key, bool):
            return integer(key)
    raise ConfigError(f"{where} key {key!r} is not a depth")


def compare_depths(cfg: dict, depths: list[int] | None = None) -> list[dict]:
    """Run reduced-depth variants of a uniform base tree and tabulate
    rounds/time to a gradient-norm threshold.

    The compare block maps each depth to its distance factor kappa and its
    iteration counts; schedules are expected to share the same product so
    that depth effects come from latency, not work per round. The config is
    resolved once, to the base tree's setup. Depth d of an N-layer base is
    that setup with the tree reduced to d layers, the top d quantizers and
    their q, the depth's kappa (1 when not given) and the base's top d - 1
    inter-edge times in seconds, so a depth's kappa stretches only its device
    hop. Its schedule is compare.taus[d], else the base config's schedule.
    """
    ccfg = _section(cfg, "compare", required=False)
    if depths is None:
        depths = _read(ccfg, "compare", "depths")["depths"]
    threshold = _read(ccfg, "compare", "threshold")["threshold"]
    kappa_cfg = _section(ccfg, "kappas", "compare", required=False)
    taus_cfg = _section(ccfg, "taus", "compare", required=False)
    kappas = {_depth(k, "compare.kappas"): _scalar(kappa_cfg, k, float, "compare.kappas") for k in kappa_cfg}
    taus_map = {_depth(k, "compare.taus"): _list(taus_cfg, k, integer, "compare.taus") for k in taus_cfg}

    base = _setup(cfg, "compare-depths")
    scfg = _section(cfg, "schedule")
    n = base.topo.num_layers
    rows = []
    out_dir = Path(_read(cfg, "config", "output_dir")["output_dir"])
    for depth in depths:
        if depth > n:
            raise ConfigError(f"depth {depth} exceeds the base tree ({n})")
        with _config_errors():
            topo = reduce_depth(base.topo, n - depth)
            lat = replace(base.lat, kappa=kappas.get(depth, 1.0), t_edge=base.lat.t_edge[n - depth :])
            latency_mod.compute_tde(lat)  # rejects a zero link rate at this depth's kappa
        s = replace(base, topo=topo, quantizers=base.quantizers[-depth:], q=base.q[-depth:], lat=lat)
        summary, metrics, elapsed = _run(_schedule(s, scfg, taus_map.get(depth)), out_dir / f"depth_{depth}")
        hit = next((t for t, g in enumerate(metrics.grad_norm_sq) if g <= threshold), None)
        rows.append(
            {
                "depth": depth,
                "rounds_to_threshold": hit,
                "time_to_threshold": None if hit is None else elapsed[hit],
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
    s = _setup(cfg, "theory")
    block = _theory_block(s)
    if block is None:
        raise ConfigError("theory needs lipschitz, sigma2 and gap0 from the task or the config")
    return {**block, "q": s.q}


def _cmd_optimize(cfg: dict, oracle: bool, tau_max: int) -> dict:
    if tau_max < 1:
        raise ConfigError(f"--tau-max must be at least 1, got {tau_max}")
    spec = _setup(cfg, "optimize").objective()
    res = gp_optimizer.optimize(spec)
    out = _optimizer_block(res)
    if oracle:
        best, best_val = gp_optimizer.brute_force(spec, tau_max)
        out["oracle_taus"] = list(best)
        out["oracle_objective"] = best_val
        out["oracle_gap"] = res.objective_integer / best_val if best_val > 0 else 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hierfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "theory", "optimize", "compare-depths"):
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
        else:
            result = compare_depths(cfg, args.depths or None)
        print(json.dumps(_json_safe(result), indent=2, allow_nan=False))
    except engine.Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, gp_optimizer.SearchTooLarge, gp_optimizer.ZeroRoundLatency) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (gp_optimizer.NoFeasiblePoint, gp_optimizer.InfeasibleStart) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except Exception:
        print(f"internal error:\n{traceback.format_exc()}", end="", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
