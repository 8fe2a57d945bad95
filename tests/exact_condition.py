"""The learning-rate condition in exact rationals, transcribed independently
of `hierfed.theory`.

Every float is a rational, so `fractions.Fraction` holds each input exactly
and the condition value 1 - L^2 mu^2 S - L mu B below carries no rounding.
The recursive architecture term is taken node by node, each node adding its
own quantization term to the worst of its children (a nested max over
children), where `hierfed.theory` takes it over layer-1 descent chains. An
N = 1 tree is evaluated as its pass-through embedding: a cloud hop with
tau = 1 and q = 0 above the single layer.
"""

from __future__ import annotations

import math
from fractions import Fraction


def architecture_maxima(topo, taus, q) -> list[Fraction]:
    """max over layer-n nodes of the recursive term A_n, for n = 1..N-1."""
    counts = topo.subtree_devices
    values = [c * q[1] * taus[0] * taus[1] + q[0] * (1 + q[1]) * taus[0] for c in counts[1]]
    maxima = [max(values)]
    for n in range(2, len(taus)):
        children = [[] for _ in range(topo.layer_sizes[n])]
        for child, parent in enumerate(topo.parents[n - 1]):
            children[parent].append(child)
        values = [
            counts[n][node] * q[n] * math.prod(taus[: n + 1])
            + (1 + q[n]) * max(counts[n - 1][c] * values[c] for c in kids)
            for node, kids in enumerate(children)
        ]
        maxima.append(max(values))
    return maxima


def condition(params, mu: float | None = None) -> Fraction:
    """The exact condition value at `mu`, or at params.mu when it is None."""
    taus = tuple(params.schedule.taus)
    q = [Fraction(x) for x in params.q]
    if len(taus) == 1:
        taus, q = taus + (1,), q + [Fraction(0)]
    arch = architecture_maxima(params.topology, taus, q)
    sq = Fraction(taus[0] * (taus[0] - 1), 2) + q[0] * taus[1] * taus[0] ** 2
    for n in range(1, len(taus)):  # layers 2..N
        sq += Fraction(taus[n] * (taus[n] - 1), 2) * math.prod(taus[:n]) ** 2
    for n in range(1, len(taus) - 1):  # architecture terms of layers 1..N-2
        sq += math.prod(taus[: n + 2]) * arch[n - 1]
    lin = math.prod(taus) + arch[-1] / params.topology.n_devices
    x = Fraction(params.lipschitz) * Fraction(params.mu if mu is None else mu)
    return 1 - x**2 * sq - x * lin


def is_largest_feasible(params, mu: float) -> bool:
    """Whether `mu` is the largest float with an exact condition value >= 0:
    its own value is >= 0 and the next float's is < 0, or the next is inf."""
    up = math.nextafter(mu, math.inf)
    return condition(params, mu) >= 0 and (up == math.inf or condition(params, up) < 0)
