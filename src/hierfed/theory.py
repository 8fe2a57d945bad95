"""Convergence condition, recursive architecture term, and rate bound.

The learning-rate condition and the rate bound are evaluated as stated for
the general N-layer case; the no-quantization and two-layer specializations
are transcribed independently in floats so they can serve as oracles for the
general forms. Every float is a rational, so the condition's sums and its
value are formed exactly as Fractions and rounded once: its sign, which
decides whether the bound applies, is exact at any float inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import Schedule
from .topology import Topology


class LayerOutOfRange(ValueError):
    """Recursion layer outside 1..N-1."""


class NeedsTwoLayers(ValueError):
    """The recursive term is only defined for N >= 2."""


class WrongSpecialization(ValueError):
    """A corollary was called outside its regime."""


@dataclass
class TheoryParams:
    """Inputs to the condition and bound.

    lipschitz: gradient Lipschitz constant L.
    sigma2: uniform stochastic-gradient variance bound.
    mu: learning rate.
    gap0: initial optimality gap F(w0) - F(w*).
    q: per-hop quantizer variance constants (q_1, ..., q_N).
    """

    lipschitz: float
    sigma2: float
    mu: float
    gap0: float
    q: tuple[float, ...]
    topology: Topology
    schedule: Schedule

    def __post_init__(self) -> None:
        self.q = tuple(float(x) for x in self.q)
        n = self.topology.num_layers
        if len(self.q) != n or len(self.schedule.taus) != n:
            raise ValueError(
                f"q ({len(self.q)}) and taus ({len(self.schedule.taus)}) must both "
                f"have length N = {n}"
            )
        if not (0 < self.lipschitz < math.inf and 0 < self.mu < math.inf):
            raise ValueError("lipschitz and mu must be positive and finite")
        if not all(0 <= x < math.inf for x in (self.sigma2, self.gap0, *self.q)):
            raise ValueError("sigma2, gap0 and q entries must be non-negative and finite")


def _layer_maxima(topo: Topology, taus: tuple[int, ...], q: tuple) -> list:
    """Layer-wide maxima of the per-node recursive architecture terms for
    layers 1..len(taus)-1, in the arithmetic of q (floats or Fractions).

    Layer-1 value for a node with subtree count c:
        c * q_2 * tau_1 * tau_2 + q_1 * (1 + q_2) * tau_1.
    A higher node adds its own quantization term to the worst child's count
    times that child's term; float rounding is monotone, so that nested max
    equals, bit for bit, the max along each layer-1 descent chain, taken once
    per distinct row of subtree counts, on which alone its value depends.
    """
    anc = range(topo.layer_sizes[1])  # each chain's node at the current layer
    counts = [topo.subtree_devices[1]]  # each chain's subtree count, layer by layer
    for n in range(2, len(taus)):
        anc = [topo.parents[n - 1][a] for a in anc]
        counts.append([topo.subtree_devices[n][a] for a in anc])
    chains = set(zip(*counts))
    values = [c[0] * q[1] * taus[0] * taus[1] + q[0] * (1 + q[1]) * taus[0] for c in chains]
    maxima = [max(values)]
    for n in range(2, len(taus)):
        tau_prod = math.prod(taus[: n + 1])
        values = [c[n - 1] * q[n] * tau_prod + (1 + q[n]) * (c[n - 2] * v) for c, v in zip(chains, values)]
        maxima.append(max(values))
    return maxima


def recursion_A(params: TheoryParams, layer: int) -> float:
    """Layer-wide maximum of the recursive architecture term."""
    n_layers = params.topology.num_layers
    if n_layers < 2:
        raise NeedsTwoLayers("the recursive term needs at least two layers")
    if not 1 <= layer <= n_layers - 1:
        raise LayerOutOfRange(f"layer must be in 1..{n_layers - 1}, got {layer}")
    return _layer_maxima(params.topology, params.schedule.taus, params.q)[layer - 1]


def _condition_sums(params: TheoryParams) -> tuple[Fraction, Fraction]:
    """Exact (S, B) of the condition value 1 - L^2 mu^2 S - L mu B; neither depends on mu.

    N = 1 is summed as its pass-through embedding, which runs bit-identically:
    a cloud hop with tau = 1 and q = 0 above the single layer.
    """
    taus, q = params.schedule.taus, tuple(map(Fraction, params.q))
    if len(taus) == 1:
        taus, q = (*taus, 1), (*q, Fraction(0))
    arch = _layer_maxima(params.topology, taus, q)  # arch[k - 1] = recursion_A at layer k, exactly
    sq = sum(t * (t - 1) // 2 * math.prod(taus[:idx]) ** 2 for idx, t in enumerate(taus))
    sq += q[0] * taus[1] * taus[0] ** 2
    sq += sum(math.prod(taus[: k + 2]) * arch[k - 1] for k in range(1, len(taus) - 1))  # layers 1..N-2
    return sq, math.prod(taus) + arch[-1] / params.topology.n_devices


def _condition(lip: float, mu: float, sq: Fraction, lin: Fraction) -> Fraction:
    x = Fraction(lip) * Fraction(mu)
    return 1 - x * x * sq - x * lin


def _round(value: Fraction) -> float:
    """The float nearest `value`, or the infinity of its sign past float range; a
    nonzero value that would round to 0 keeps its sign as the smallest subnormal."""
    sign = (value > 0) - (value < 0)
    try:
        return float(value) or sign * math.ulp(0.0)
    except OverflowError:
        return sign * math.inf


def condition_lhs(params: TheoryParams) -> float:
    """Left side of the learning-rate condition, exact, rounded once; the bound applies iff >= 0."""
    return _round(_condition(params.lipschitz, params.mu, *_condition_sums(params)))


def error_bracket(
    taus: tuple[int, ...] | list[float],
    counts: tuple[int, ...] | list[int],
    n_tot: int,
    q: tuple[float, ...] | list[float],
) -> float:
    """Shared post-convergence bracket:
    (tau_1 - 1) + sum_n (C_n / N_tot) (tau_{n+1} - 1) prod(1 + q_m) prod(tau_m).

    Also the error part of the iteration-count optimization objective, so the
    two modules agree by construction. `counts` holds (C_1, ..., C_{N-1}).
    """
    n = len(taus)
    if len(counts) != n - 1:
        raise ValueError(f"need {n - 1} layer counts, got {len(counts)}")
    terms = [taus[0] - 1.0]
    growth = 1.0
    tau_prod = 1.0
    for idx in range(n - 1):
        growth *= 1.0 + q[idx]
        tau_prod *= taus[idx]
        terms.append(counts[idx] / n_tot * (taus[idx + 1] - 1.0) * growth * tau_prod)
    return math.fsum(sorted(terms))


def rate_bound(params: TheoryParams, rounds: int) -> tuple[float, float, float]:
    """(speed term, post-convergence error term, total) after `rounds` rounds."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    taus = params.schedule.taus
    topo = params.topology
    lip, mu, s2 = params.lipschitz, params.mu, params.sigma2
    speed = 2.0 * params.gap0 / (mu * rounds * math.prod(taus))
    bracket = error_bracket(taus, topo.layer_sizes[1:-1], topo.n_devices, params.q)
    tail = lip * mu * s2 / topo.n_devices * math.prod(1.0 + x for x in params.q)
    error = _round((Fraction(lip) * Fraction(mu)) ** 2 * Fraction(bracket) * Fraction(s2) / 2) + tail
    return speed, error, speed + error


def corollary1_condition(params: TheoryParams) -> float:
    """No-quantization condition, transcribed directly (oracle path)."""
    if any(x != 0.0 for x in params.q):
        raise WrongSpecialization("corollary 1 requires q = 0")
    taus = params.schedule.taus
    lip, mu = params.lipschitz, params.mu
    terms = [taus[0] * (taus[0] - 1) / 2.0]
    for idx in range(1, len(taus)):
        terms.append(taus[idx] * (taus[idx] - 1) / 2.0 * math.prod(taus[:idx]) ** 2)
    return 1.0 - lip**2 * mu**2 * math.fsum(sorted(terms)) - lip * mu * math.prod(taus)


def corollary1_bound(params: TheoryParams, rounds: int) -> tuple[float, float, float]:
    """No-quantization rate bound, transcribed directly (oracle path)."""
    if any(x != 0.0 for x in params.q):
        raise WrongSpecialization("corollary 1 requires q = 0")
    taus = params.schedule.taus
    topo = params.topology
    lip, mu, s2 = params.lipschitz, params.mu, params.sigma2
    speed = 2.0 * params.gap0 / (mu * rounds * math.prod(taus))
    terms = [taus[0] - 1.0]
    counts = topo.layer_sizes[1:-1]
    for idx in range(len(taus) - 1):
        terms.append(
            counts[idx] / topo.n_devices * (taus[idx + 1] - 1.0) * math.prod(taus[: idx + 1])
        )
    error = lip**2 * mu**2 / 2.0 * math.fsum(sorted(terms)) * s2
    error += lip * mu * s2 / topo.n_devices
    return speed, error, speed + error


def corollary2_condition(params: TheoryParams) -> float:
    """Two-layer condition, transcribed directly (oracle path)."""
    topo = params.topology
    if topo.num_layers != 2:
        raise WrongSpecialization("corollary 2 requires N = 2")
    t1, t2 = params.schedule.taus
    q1, q2 = params.q
    lip, mu = params.lipschitz, params.mu
    sq = t1 * (t1 - 1) / 2.0 + t1**2 * t2 * (t2 - 1) / 2.0 + q1 * t2 * t1**2
    arch = max(
        topo.subtree_count(1, i) * (q2 * t1 * t2 + (1.0 + q2) * q1 * t1 / topo.subtree_count(1, i))
        for i in range(topo.layer_sizes[1])
    )
    return 1.0 - lip**2 * mu**2 * sq - lip * mu * (t2 * t1 + arch / topo.n_devices)


def corollary2_bound(params: TheoryParams, rounds: int) -> tuple[float, float, float]:
    """Two-layer rate bound, transcribed directly (oracle path)."""
    topo = params.topology
    if topo.num_layers != 2:
        raise WrongSpecialization("corollary 2 requires N = 2")
    t1, t2 = params.schedule.taus
    q1, q2 = params.q
    lip, mu, s2 = params.lipschitz, params.mu, params.sigma2
    c1 = topo.layer_sizes[1]
    speed = 2.0 * params.gap0 / (mu * rounds * t2 * t1)
    error = lip**2 * mu**2 / 2.0 * ((t1 - 1.0) + (1.0 + q1) * (t2 - 1.0) * t1 * c1 / topo.n_devices) * s2
    error += lip * mu / topo.n_devices * (1.0 + q2) * (1.0 + q1) * s2
    return speed, error, speed + error


def max_feasible_mu(params: TheoryParams) -> float:
    """Largest float learning rate whose exact condition value is >= 0.

    The condition value 1 - L^2 mu^2 S - L mu B falls from 1 at mu = 0 to its
    root 2 / (L (B + sqrt(B^2 + 4S))). Formed in floats as 1 / (B/2 +
    hypot(B/2, sqrt(S))) / L, whose denominator is finite wherever B and S
    are, it lies within a few floats of the answer; the loops step from there.
    """
    sq, lin = _condition_sums(params)
    lip = params.lipschitz
    mu = 1.0 / (lin / 2 + math.hypot(lin / 2, math.sqrt(sq))) / lip
    while mu == math.inf or _condition(lip, mu, sq, lin) < 0:
        mu = math.nextafter(mu, 0.0)
    while (up := math.nextafter(mu, math.inf)) < math.inf and _condition(lip, up, sq, lin) >= 0:
        mu = up
    if mu == 0.0:
        raise ValueError("the condition's positive root underflows: no positive float learning rate meets it")
    return mu
