"""Nested multi-layer training loop with per-hop quantized delta aggregation.

A global round is prod(taus) device steps, run level-synchronously: all nodes
of a layer move in lock-step, so each layer's models form one matrix. Every
tau_1 steps each layer-1 server adds the count-weighted (or dataset-size-
weighted) sum of its children's quantized deltas to its model and broadcasts
it back down; a layer-n server repeats this for tau_{n+1} iterations before
its own delta travels up, and the cloud folds the top-level deltas into the
global model once per round.

Draws come from addressable streams keyed by the master seed: batches per
(round, device), whatever the tree shape, so nested and flat runs with coupled
seeds sample identical batches; quantizer dither per (round, hop), one call
per hop on its whole delta matrix. A device's batches for a round are drawn
as one block at the round's start, and the k-th item of its stream stands for
the k-th of the per-step draws `run_fedavg_reference` makes from the same
stream: that draw's index row, or what the task reduces it to. With
exact-rational models (numpy object arrays of Fraction) no step rounds, which
is how the flat-averaging collapse is checked bit-for-bit. Each quantized hop
also records the error ratio of every nonzero row it sends; that draws
nothing and moves no model bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .quantizer import NonFiniteInput, QuantizerSpec, quantize
from .tasks import Task, _sample_batch, flat_global_loss
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


@dataclass
class RunMetrics:
    """Per-round trajectory statistics, each taken at the start of its round,
    plus the final model and its loss and squared gradient norm.

    q_realized_mean and q_realized_max hold, per hop, the mean and the largest
    ||payload - delta||^2 / ||delta||^2 over every nonzero delta row the hop
    sent: 0.0 for an identity hop, None for a hop that sent no nonzero row.
    """

    loss: list[float] = field(default_factory=list)
    grad_norm_sq: list[float] = field(default_factory=list)
    final_model: np.ndarray | None = None
    final_loss: float | None = None
    final_grad_norm_sq: float | None = None
    q_realized_mean: list[float | None] = field(default_factory=list)
    q_realized_max: list[float | None] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.loss)

    def mean_grad_norm_sq(self) -> float:
        return sum(self.grad_norm_sq) / len(self.grad_norm_sq)


def _stream(seed: int, kind: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(kind, *key)))


def _zeros(shape, exact: bool) -> np.ndarray:
    return np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)


def _hop_weights(topology: Topology, task: Task, weighted: bool, exact: bool) -> list[np.ndarray]:
    """weights[hop-1]: a column holding each layer-(hop-1) node's aggregation
    weight, its subtree mass over its parent's.

    Mass is the subtree's device count, or its dataset size when weighted.
    Exact mode keeps the ratios as Fractions.
    """
    mass = list(task.dataset_sizes()) if weighted else [1] * task.n_devices
    weights = []
    for hop, parents in enumerate(topology.parents, start=1):
        up = [0] * topology.layer_sizes[hop]
        for m, p in zip(mass, parents):
            up[p] += m
        ratios = [Fraction(m, up[p]) if exact else m / up[p] for m, p in zip(mass, parents)]
        weights.append(np.array(ratios)[:, None])
        mass = up
    return weights


def _evaluate(task: Task, w: np.ndarray, weighted: bool) -> tuple[float, float]:
    """Global loss and squared global-gradient norm at w; overflow gives inf or NaN silently."""
    loss_fn = flat_global_loss(task, weighted=weighted)
    with np.errstate(over="ignore", invalid="ignore"):
        g = task.global_gradient(w, weighted)
        return float(loss_fn(w)), float(np.dot(g, g))


def _error_ratios(delta: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """||payload - delta||^2 / ||delta||^2 of each nonzero row; scaling by the
    norm first keeps rows near the quantizer's overflow limit finite."""
    delta = np.asarray(delta, dtype=float)
    norm = np.linalg.norm(delta, axis=1)
    live = norm > 0.0
    return np.sum(((payload[live] - delta[live]) / norm[live, None]) ** 2, axis=1)


def _record(metrics: RunMetrics, task: Task, w: np.ndarray, weighted: bool) -> None:
    loss, grad_norm_sq = _evaluate(task, w, weighted)
    metrics.loss.append(loss)
    metrics.grad_norm_sq.append(grad_norm_sq)


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

    n_dev = task.n_devices
    # hop l completes every spans[l-1] device steps: one burst of layer l-1
    spans = [math.prod(schedule.taus[:hop]) for hop in range(1, n_layers + 1)]
    weights = _hop_weights(topology, task, weighted, exact)
    parents = [np.asarray(p) for p in topology.parents]

    metrics = RunMetrics()
    # per hop: sum, count and largest of the realized error ratios
    err_sum, err_rows, err_max = [0.0] * n_layers, [0] * n_layers, [0.0] * n_layers
    for t in range(schedule.global_rounds):
        _record(metrics, task, w, weighted)
        # a finite model far out can still overflow its loss or gradient norm
        if not exact and not (np.isfinite(metrics.loss[-1]) and np.isfinite(metrics.grad_norm_sq[-1])):
            raise Diverged(f"round {t}: loss or gradient norm is not finite")
        batches = [task.sample_batches(i, _stream(seed, _BATCH_STREAM, t, i), spans[-1]) for i in range(n_dev)]
        hop_rngs = [_stream(seed, _QUANT_STREAM, t, hop) for hop in range(1, n_layers + 1)]
        # anchor[l] / acc[l]: each layer-l node's model at the start of its
        # current burst, and its update since then
        anchor = [None] * n_layers + [w[None, :]]
        acc = [_zeros((size, task.dim), exact) for size in topology.layer_sizes]
        top = n_layers  # layers below `top` start new bursts from their parents' models
        try:
            for step in range(1, spans[-1] + 1):
                for layer in range(top - 1, -1, -1):
                    anchor[layer] = (anchor[layer + 1] + acc[layer + 1])[parents[layer]]
                    acc[layer] = _zeros(acc[layer].shape, exact)
                model = anchor[0] + acc[0]
                grads = np.array([task.stochastic_gradient(i, model[i], batches[i]) for i in range(n_dev)])
                acc[0] = acc[0] - lr * grads
                top = 0
                while top < n_layers and step % spans[top] == 0:
                    spec, delta = quantizers[top], acc[top]
                    payload = delta
                    if not spec.is_identity:
                        payload = quantize(spec, delta, hop_rngs[top])
                        ratios = _error_ratios(delta, payload)
                        err_sum[top] += ratios.sum()
                        err_rows[top] += len(ratios)
                        err_max[top] = max(err_max[top], ratios.max(initial=0.0))
                    # np.add.at adds in index order: each parent sums its children in order
                    np.add.at(acc[top + 1], parents[top], weights[top] * payload)
                    top += 1
        except NonFiniteInput as exc:
            raise Diverged(f"round {t}: {exc}") from exc
        del batches  # spent: free the round's batch blocks before the next round draws its own
        w = w + acc[n_layers][0]
        # object (Fraction) models are exact and cannot overflow
        if not exact and not np.all(np.isfinite(w)):
            raise Diverged(f"round {t}: model is not finite")

    for spec, total, rows, peak in zip(quantizers, err_sum, err_rows, err_max):
        sent = spec.is_identity or rows > 0  # an identity hop sends its delta exactly
        metrics.q_realized_mean.append(float(total) / max(rows, 1) if sent else None)
        metrics.q_realized_max.append(float(peak) if sent else None)
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
        _record(metrics, task, w, weighted)
        update = _zeros(w.shape, exact)
        for i in range(n):
            rng = _stream(seed, _BATCH_STREAM, t, i)
            acc = _zeros(w.shape, exact)
            for _ in range(local_steps):
                idx = _sample_batch(task.datasets[i].size, task.batch_size, rng)
                acc = acc - lr * task.batch_gradient(i, w + acc, idx)
            update = update + client_w[i] * acc
        w = w + update
    metrics.final_model = w
    metrics.final_loss, metrics.final_grad_norm_sq = _evaluate(task, w, weighted)
    return metrics
