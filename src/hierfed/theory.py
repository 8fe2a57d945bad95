"""Convergence condition, recursive architecture term, and rate bound.

The learning-rate condition and the rate bound are evaluated exactly as
stated for the general N-layer case; the no-quantization and two-layer
specializations are transcribed independently so they can serve as oracles
for the general forms. Term lists are reduced with math.fsum, since the
tau-product terms can span many orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if self.lipschitz <= 0 or self.mu <= 0:
            raise ValueError("lipschitz and mu must be positive")
        if self.sigma2 < 0 or self.gap0 < 0 or any(x < 0 for x in self.q):
            raise ValueError("sigma2, gap0 and q entries must be non-negative")


def _node_terms(params: TheoryParams, layer: int) -> list[float]:
    """Per-node recursive architecture terms at `layer` (1-indexed).

    Layer-1 value for a node with subtree count c:
        c * q_2 * tau_1 * tau_2 + q_1 * (1 + q_2) * tau_1.
    Higher layers combine each node's own quantization term with the worst
    child contribution, where "worst" maximizes the child count times the
    child's term (the upper envelope over descent chains).
    """
    topo, taus, q = params.topology, params.schedule.taus, params.q
    values = [
        topo.subtree_count(1, i) * q[1] * taus[0] * taus[1] + q[0] * (1.0 + q[1]) * taus[0]
        for i in range(topo.layer_sizes[1])
    ]
    for n in range(2, layer + 1):
        tau_prod = math.prod(taus[: n + 1])
        new_values = []
        for node in range(topo.layer_sizes[n]):
            kids = topo.children_of(n, node)
            worst_child = max(topo.subtree_count(n - 1, c) * values[c] for c in kids)
            new_values.append(
                topo.subtree_count(n, node) * q[n] * tau_prod
                + (1.0 + q[n]) * worst_child
            )
        values = new_values
    return values


def recursion_A(params: TheoryParams, layer: int) -> float:
    """Layer-wide maximum of the recursive architecture term."""
    n_layers = params.topology.num_layers
    if n_layers < 2:
        raise NeedsTwoLayers("the recursive term needs at least two layers")
    if not 1 <= layer <= n_layers - 1:
        raise LayerOutOfRange(f"layer must be in 1..{n_layers - 1}, got {layer}")
    return max(_node_terms(params, layer))


def _condition_sums(params: TheoryParams) -> tuple[float, float]:
    """(S, B) with condition value 1 - L^2 mu^2 S - L mu B; neither depends on mu.

    For N = 1 the architecture terms vanish: S = tau_1 (tau_1 - 1) / 2, B = tau_1.
    """
    taus = params.schedule.taus
    n = len(taus)
    sq_terms = [taus[0] * (taus[0] - 1) / 2.0]
    if n == 1:
        return sq_terms[0], float(taus[0])
    for idx in range(1, n):  # layers 2..N
        tau_n = taus[idx]
        sq_terms.append(tau_n * (tau_n - 1) / 2.0 * math.prod(taus[:idx]) ** 2)
    sq_terms.append(params.q[0] * taus[1] * taus[0] ** 2)
    for idx in range(1, n - 1):  # architecture terms for layers 1..N-2
        sq_terms.append(math.prod(taus[: idx + 2]) * recursion_A(params, idx))

    lin_terms = [
        math.prod(taus),
        recursion_A(params, n - 1) / params.topology.n_devices,
    ]
    return math.fsum(sorted(sq_terms)), math.fsum(sorted(lin_terms))


def condition_lhs(params: TheoryParams) -> float:
    """Left side of the learning-rate condition; the rate bound applies iff >= 0."""
    sq, lin = _condition_sums(params)
    lip, mu = params.lipschitz, params.mu
    return 1.0 - lip**2 * mu**2 * sq - lip * mu * lin


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
    error = lip**2 * mu**2 / 2.0 * bracket * s2 + tail
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
    """Largest learning rate with a non-negative condition value.

    The condition value 1 - L^2 mu^2 S - L mu B is a downward parabola in mu
    with value 1 at mu = 0 and B >= prod(taus) >= 1, so its positive root
    2 / (L (B + sqrt(B^2 + 4 S))) always exists; the loop steps down past the
    round-off of evaluating the condition there.
    """
    sq, lin = _condition_sums(params)
    mu = 2.0 / (params.lipschitz * (lin + math.sqrt(lin * lin + 4.0 * sq)))
    while condition_lhs(replace(params, mu=mu)) < 0.0:
        mu = math.nextafter(mu, 0.0)
    return mu
