"""Which hierfed functions the traced run wraps, and the per-module metrics.

Functions are wrapped at the name their caller looks up: `cli` calls
`engine.run`, `quant_mod.measure_q` and `tasks_mod.make_*` through module
attributes, the engine calls its own imported `quantize` and
`flat_global_loss`, and `gp_optimizer` calls its own imported latency
helpers. Hops are mapped through the identity of each `QuantizerSpec` passed
to `engine.run`. Every metric below is per operation unless it is a ratio.
"""

from __future__ import annotations

import hierfed.cli as cli_mod
import hierfed.engine as engine_mod
import hierfed.gp_optimizer as gp_mod
import hierfed.latency as latency_mod
import hierfed.quantizer as quant_mod
import hierfed.tasks as tasks_mod
import hierfed.theory as theory_mod

from tracer import Tracer

MAX_HOPS = 6
ROOT_SPAN = "bench.op"
EVAL_LEAVES = ("tasks.local_loss", "tasks.full_gradient", "tasks.global_gradient", "tasks.accuracy", "tasks.global_loss")
THEORY_LEAVES = ("condition_lhs", "max_feasible_mu", "rate_bound", "recursion_A")
LATENCY_LEAVES = ("compute_tcp", "compute_tde", "round_latency", "deadline_ok")


def instrument(tr: Tracer) -> None:
    """Wrap every traced function; undo with tr.restore()."""
    coarse, leaf, patch = tr.coarse, tr.leaf, tr.patch

    def as_coarse(owner, attr, name, **kw):
        patch(owner, attr, lambda fn: coarse(name, fn, **kw))

    def as_leaf(owner, attr, name, **kw):
        patch(owner, attr, lambda fn: leaf(name, fn, **kw))

    as_coarse(cli_mod, "load_config", "cli.load_config")
    as_coarse(cli_mod, "run_experiment", "cli.run_experiment")
    for attr in ("build_topology", "reduce_depth"):
        as_coarse(cli_mod, attr, f"topology.{attr}")

    for attr in ("make_quadratic_task", "make_blob_pool", "partition"):
        as_coarse(tasks_mod, attr, f"tasks.{attr}")
    for attr in ("stochastic_gradient", "global_gradient"):
        as_leaf(tasks_mod.Task, attr, f"tasks.{attr}")
    for cls in (tasks_mod.QuadraticTask, tasks_mod.LogisticTask, tasks_mod.TinyMLPTask):
        for attr in ("batch_gradient", "local_loss", "full_gradient"):
            as_leaf(cls, attr, f"tasks.{attr}")
    for cls in (tasks_mod.LogisticTask, tasks_mod.TinyMLPTask):
        as_leaf(cls, "accuracy", "tasks.accuracy")
    for attr in ("gradient_noise_sigma2", "optimum"):
        as_leaf(tasks_mod.QuadraticTask, attr, f"tasks.{attr}")

    def traced_loss_factory(factory):
        def flat_global_loss(*args, **kwargs):
            return leaf("tasks.global_loss", factory(*args, **kwargs))

        return flat_global_loss

    patch(engine_mod, "flat_global_loss", traced_loss_factory)
    patch(tasks_mod, "flat_global_loss", traced_loss_factory)

    as_coarse(quant_mod, "measure_q", "quantizer.measure_q")
    as_leaf(engine_mod, "quantize", "quantizer.quantize", hop_of=lambda args: (tr.hops.get(id(args[0])), len(args[1])))

    def map_hops(args, kwargs):
        specs = args[3] if len(args) > 3 else kwargs["quantizers"]
        tr.hops = {id(spec): hop for hop, spec in enumerate(specs, start=1)}

    def count_rounds(metrics):
        tr.counts["engine.rounds"] = tr.counts.get("engine.rounds", 0) + metrics.rounds
        return metrics

    as_coarse(engine_mod, "run", "engine.run", on_call=map_hops, on_return=count_rounds)

    for attr in THEORY_LEAVES:
        as_leaf(theory_mod, attr, f"theory.{attr}")
    as_leaf(gp_mod, "error_bracket", "theory.error_bracket")
    for attr in LATENCY_LEAVES:
        as_leaf(latency_mod, attr, f"latency.{attr}")
    for attr in ("compute_tcp", "compute_tde", "deadline_ok"):
        as_leaf(gp_mod, attr, f"latency.{attr}")

    as_coarse(gp_mod, "optimize", "gp_optimizer.optimize")
    as_coarse(gp_mod, "agma_step", "gp_optimizer.agma_step")
    for attr in ("g_value", "objective"):
        as_leaf(gp_mod, attr, f"gp_optimizer.{attr}")


def _spans(tr: Tracer, name: str) -> tuple[int, float, float]:
    count, dur, self_s = 0, 0.0, 0.0
    for sp in tr.spans:
        if sp["name"] == name:
            count += 1
            dur += sp["end"] - sp["start"]
            self_s += sp["self"]
    return count, dur, self_s


def per_layer_metrics(tr: Tracer, traced_ops: list, untraced_ops: list) -> dict[str, tuple[float, str]]:
    """Per-module metrics of a traced pass, as name -> (value, unit)."""
    n = len(traced_ops)
    modules = tr.self_by_module()
    m: dict[str, tuple[float, str]] = {}

    def per_op(name, value, unit):
        m[name] = (value / n, unit)

    per_op("cli.load_config_s", _spans(tr, "cli.load_config")[1], "s")
    per_op("cli.self_s", _spans(tr, "cli.run_experiment")[2], "s")
    per_op("topology.build_s", sum(_spans(tr, f"topology.{a}")[1] for a in ("build_topology", "reduce_depth")), "s")

    per_op("tasks.build_s", sum(_spans(tr, f"tasks.{a}")[1] for a in ("make_quadratic_task", "make_blob_pool", "partition")), "s")
    grad_calls, grad_s, _, _ = tr.leaf_total("tasks.stochastic_gradient")
    batch_grad_s = tr.leaf_total("tasks.batch_gradient", parent="tasks.stochastic_gradient")[1]
    per_op("tasks.grad_calls", grad_calls, "count")
    per_op("tasks.grad_s", grad_s, "s")
    per_op("tasks.batch_grad_s", batch_grad_s, "s")
    per_op("tasks.sample_s", grad_s - batch_grad_s, "s")
    eval_calls, eval_s = 0, 0.0
    for (name, parent, _), agg in tr.leaves.items():
        if name in EVAL_LEAVES:
            eval_calls += agg[0]
            if parent not in EVAL_LEAVES:
                eval_s += agg[1]
    per_op("tasks.eval_calls", eval_calls, "count")
    per_op("tasks.eval_s", eval_s, "s")

    mq_calls, mq_s, _ = _spans(tr, "quantizer.measure_q")
    per_op("quantizer.measure_q_calls", mq_calls, "count")
    per_op("quantizer.measure_q_s", mq_s, "s")
    for hop in range(1, MAX_HOPS + 1):
        calls, total, _, coords = tr.leaf_total("quantizer.quantize", hop=hop)
        per_op(f"quantizer.quantize_calls.hop{hop}", calls, "count")
        per_op(f"quantizer.quantize_s.hop{hop}", total, "s")
        per_op(f"quantizer.coords.hop{hop}", coords, "count")

    _, run_s, engine_self = _spans(tr, "engine.run")
    per_op("engine.run_s", run_s, "s")
    per_op("engine.self_s", engine_self, "s")
    per_op("engine.rounds", tr.counts.get("engine.rounds", 0), "count")
    per_op("engine.device_steps", tr.leaf_total("tasks.stochastic_gradient", parent="engine.run")[0], "count")

    per_op("theory.calls", sum(a[0] for (nm, _, _), a in tr.leaves.items() if nm.startswith("theory.")), "count")
    per_op("theory.s", modules.get("theory", 0.0), "s")
    per_op("latency.calls", sum(a[0] for (nm, _, _), a in tr.leaves.items() if nm.startswith("latency.")), "count")
    per_op("latency.s", modules.get("latency", 0.0), "s")

    per_op("gp_optimizer.optimize_s", _spans(tr, "gp_optimizer.optimize")[1], "s")
    agma_steps, agma_s, _ = _spans(tr, "gp_optimizer.agma_step")
    per_op("gp_optimizer.agma_steps", agma_steps, "count")
    per_op("gp_optimizer.agma_step_s", agma_s, "s")
    accepted = sum(op.info.get("accepted_steps", 0) for op in traced_ops)
    m["gp_optimizer.accepted_step_ratio"] = (accepted / agma_steps if agma_steps else 0.0, "ratio")
    per_op("gp_optimizer.g_value_calls", tr.leaf_total("gp_optimizer.g_value")[0], "count")
    per_op("gp_optimizer.objective_calls", tr.leaf_total("gp_optimizer.objective")[0], "count")
    per_op("gp_optimizer.brute_force_s", sum(op.info.get("brute_force_s", 0.0) for op in traced_ops), "s")
    gaps = [op.info["oracle_gap"] for op in traced_ops if "oracle_gap" in op.info]
    m["gp_optimizer.oracle_gap_max"] = (max(gaps) if gaps else 0.0, "ratio")

    traced_wall = sum(op.wall_s for op in traced_ops)
    untraced_wall = sum(op.wall_s for op in untraced_ops)
    m["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m


def module_self_shares(tr: Tracer) -> dict[str, float]:
    """Each module's share of the traced wall time ('bench' is benchmark glue)."""
    modules = tr.self_by_module()
    total = sum(modules.values())
    return {mod: s / total for mod, s in sorted(modules.items(), key=lambda kv: -kv[1])}
