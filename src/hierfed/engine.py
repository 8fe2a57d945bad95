"""Nested multi-layer training loop with per-hop quantized delta aggregation.

One global round runs bottom-up: devices take tau_1 local SGD steps from the
model their layer-1 server last broadcast; after each such burst the server
adds the count-weighted (or dataset-size-weighted) sum of quantized deltas to
its own model and broadcasts it back down; a layer-n server repeats this for
tau_{n+1} iterations before its own delta travels up, and the cloud folds the
top-level deltas into the global model once per round.

Every stochastic draw comes from an addressable stream keyed by the master
seed plus (purpose, round, node) indices, so two runs with coupled seeds
consume identical randomness regardless of tree shape. With exact-rational
model vectors (numpy object arrays of Fraction) the whole trajectory is
computed without rounding, which is how the flat-averaging collapse is
checked bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .quantizer import NonFiniteInput, QuantizerSpec, quantize
from .tasks import Task, flat_global_loss
from .topology import Topology

_BATCH_STREAM = 1
_QUANT_STREAM = 2


class DimensionMismatch(ValueError):
    """Initial model does not match the task dimension."""


class QuantizerCountMismatch(ValueError):
    """Quantizer vector length differs from the number of aggregation layers."""


class Diverged(ArithmeticError):
    """Training went non-finite (model, loss or gradient norm); not a config error."""


@dataclass
class Schedule:
    """Intra-layer iteration counts (tau_1, ..., tau_N) and round budget T."""

    taus: tuple[int, ...]
    global_rounds: int

    def __post_init__(self) -> None:
        self.taus = tuple(int(x) for x in self.taus)
        if any(x < 1 for x in self.taus):
            raise ValueError(f"iteration counts must be >= 1, got {self.taus}")
        if self.global_rounds < 1:
            raise ValueError("global_rounds must be >= 1")

    @property
    def product(self) -> int:
        out = 1
        for x in self.taus:
            out *= x
        return out


@dataclass
class RunMetrics:
    """Per-round trajectory statistics, each taken at the start of its round,
    plus the final model and its loss and squared gradient norm."""

    loss: list[float] = field(default_factory=list)
    grad_norm_sq: list[float] = field(default_factory=list)
    round_latency: list[float] = field(default_factory=list)
    cumulative_time: list[float] = field(default_factory=list)
    final_model: np.ndarray | None = None
    final_loss: float | None = None
    final_grad_norm_sq: float | None = None

    @property
    def rounds(self) -> int:
        return len(self.loss)

    def mean_grad_norm_sq(self) -> float:
        return sum(self.grad_norm_sq) / len(self.grad_norm_sq)


def _stream(seed: int, kind: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(kind, *key)))


def _zeros_like(w: np.ndarray) -> np.ndarray:
    if w.dtype == object:
        return np.array([Fraction(0)] * len(w), dtype=object)
    return np.zeros_like(w)


def _node_weights(topology: Topology, task: Task, weighted: bool, exact: bool):
    """weights[layer-1][parent][k]: aggregation weight of the k-th child.

    Count mode uses subtree device counts; weighted mode uses subtree dataset
    sizes. Exact mode keeps the ratios as Fractions.
    """
    if weighted:
        mass: list[list[int]] = [list(task.dataset_sizes())]
        for layer in range(1, topology.num_layers + 1):
            mass.append(
                [
                    sum(mass[layer - 1][c] for c in topology.children_of(layer, node))
                    for node in range(topology.layer_sizes[layer])
                ]
            )
    else:
        mass = [list(counts) for counts in topology.subtree_devices]

    weights = []
    for layer in range(1, topology.num_layers + 1):
        per_parent = []
        for node in range(topology.layer_sizes[layer]):
            kids = topology.children_of(layer, node)
            if exact:
                row = [Fraction(mass[layer - 1][c], mass[layer][node]) for c in kids]
            else:
                row = [mass[layer - 1][c] / mass[layer][node] for c in kids]
            total = sum(row)
            assert total == 1 if exact else abs(float(total) - 1.0) < 1e-9
            per_parent.append(row)
        weights.append(per_parent)
    return weights


def _evaluate(task: Task, w: np.ndarray, weighted: bool) -> tuple[float, float]:
    """Global loss and squared global-gradient norm at w."""
    loss_fn = flat_global_loss(task, weighted=weighted)
    if weighted:
        sizes = task.dataset_sizes()
        total = sum(sizes)
        g = task.global_gradient(w, weights=[s / total for s in sizes])
    else:
        g = task.global_gradient(w)
    return float(loss_fn(w)), float(np.dot(g, g))


def _record(metrics: RunMetrics, task: Task, w: np.ndarray, weighted: bool, latency: float) -> None:
    loss, grad_norm_sq = _evaluate(task, w, weighted)
    metrics.loss.append(loss)
    metrics.grad_norm_sq.append(grad_norm_sq)
    metrics.round_latency.append(latency)
    prev = metrics.cumulative_time[-1] if metrics.cumulative_time else 0.0
    metrics.cumulative_time.append(prev + latency)


def run(
    task: Task,
    topology: Topology,
    schedule: Schedule,
    quantizers: list[QuantizerSpec],
    lr,
    *,
    seed: int,
    weighted: bool = False,
    w0: np.ndarray | None = None,
    round_latency: float = 0.0,
) -> RunMetrics:
    """Execute the full nested loop for schedule.global_rounds rounds.

    Raises Diverged, for float models, as soon as the recorded loss or
    gradient norm (including the final model's) or the model after a round
    is non-finite, or when a hop's quantizer meets a non-finite delta.
    """
    n_layers = topology.num_layers
    if len(quantizers) != n_layers:
        raise QuantizerCountMismatch(
            f"{len(quantizers)} quantizers for {n_layers} aggregation layers"
        )
    if len(schedule.taus) != n_layers:
        raise ValueError(f"{len(schedule.taus)} taus for {n_layers} aggregation layers")
    if topology.n_devices != task.n_devices:
        raise ValueError("topology and task disagree on the device count")
    if w0 is None:
        w0 = np.zeros(task.dim)
    w = np.array(w0, copy=True)
    if len(w) != task.dim:
        raise DimensionMismatch(f"w0 has dim {len(w)}, task needs {task.dim}")
    exact = w.dtype == object

    taus = schedule.taus
    weights = _node_weights(topology, task, weighted, exact)
    metrics = RunMetrics()

    for t in range(schedule.global_rounds):
        _record(metrics, task, w, weighted, round_latency)
        # a finite model far out can still overflow its loss or gradient norm
        if not exact and not (np.isfinite(metrics.loss[-1]) and np.isfinite(metrics.grad_norm_sq[-1])):
            raise Diverged(f"round {t}: loss or gradient norm is not finite")
        batch_rngs = {i: _stream(seed, _BATCH_STREAM, t, i) for i in range(task.n_devices)}
        quant_rngs: dict[tuple[int, int], np.random.Generator] = {}

        def edge_rng(layer: int, child: int) -> np.random.Generator:
            key = (layer, child)
            if key not in quant_rngs:
                quant_rngs[key] = _stream(seed, _QUANT_STREAM, t, layer, child)
            return quant_rngs[key]

        def burst(layer: int, node: int, anchor: np.ndarray) -> np.ndarray:
            """One burst of `node`: its iterations between transmissions up.

            Returns the node's accumulated model delta relative to `anchor`.
            """
            if layer == 0:
                acc = _zeros_like(anchor)
                rng = batch_rngs[node]
                for _ in range(taus[0]):
                    g = task.stochastic_gradient(node, anchor + acc, rng)
                    acc = acc - lr * g
                return acc
            acc = _zeros_like(anchor)
            iterations = 1 if layer == n_layers else taus[layer]
            for _ in range(iterations):
                model = anchor + acc
                kids = topology.children_of(layer, node)
                for k, child in enumerate(kids):
                    delta = burst(layer - 1, child, model)
                    spec = quantizers[layer - 1]
                    payload = (
                        delta
                        if spec.is_identity
                        else quantize(spec, delta, edge_rng(layer, child))
                    )
                    acc = acc + weights[layer - 1][node][k] * payload
            return acc

        try:
            w = w + burst(n_layers, 0, w)
        except NonFiniteInput as exc:
            raise Diverged(f"round {t}: {exc}") from exc
        # object (Fraction) models are exact and cannot overflow
        if not exact and not np.all(np.isfinite(w)):
            raise Diverged(f"round {t}: model is not finite")

    metrics.final_model = w
    metrics.final_loss, metrics.final_grad_norm_sq = _evaluate(task, w, weighted)
    if not exact and not (np.isfinite(metrics.final_loss) and np.isfinite(metrics.final_grad_norm_sq)):
        raise Diverged("final model: loss or gradient norm is not finite")
    return metrics


def run_fedavg_reference(
    task: Task,
    local_steps: int,
    global_rounds: int,
    lr,
    *,
    seed: int,
    weighted: bool = False,
    w0: np.ndarray | None = None,
    round_latency: float = 0.0,
) -> RunMetrics:
    """Flat federated averaging with the same seeding discipline as run().

    Serves as the independent oracle for the quantization-off collapse: an
    N-layer run with identity quantizers and unit upper iteration counts must
    reproduce this trajectory under a coupled seed.
    """
    if w0 is None:
        w0 = np.zeros(task.dim)
    w = np.array(w0, copy=True)
    if len(w) != task.dim:
        raise DimensionMismatch(f"w0 has dim {len(w)}, task needs {task.dim}")
    exact = w.dtype == object

    n = task.n_devices
    if weighted:
        sizes = task.dataset_sizes()
        total = sum(sizes)
        client_w = [Fraction(s, total) if exact else s / total for s in sizes]
    else:
        client_w = [Fraction(1, n) if exact else 1.0 / n for _ in range(n)]

    metrics = RunMetrics()
    for t in range(global_rounds):
        _record(metrics, task, w, weighted, round_latency)
        update = _zeros_like(w)
        for i in range(n):
            rng = _stream(seed, _BATCH_STREAM, t, i)
            acc = _zeros_like(w)
            for _ in range(local_steps):
                g = task.stochastic_gradient(i, w + acc, rng)
                acc = acc - lr * g
            update = update + client_w[i] * acc
        w = w + update
    metrics.final_model = w
    metrics.final_loss, metrics.final_grad_norm_sq = _evaluate(task, w, weighted)
    return metrics
