"""Unbiased stochastic vector quantizers and their relative-variance constants.

The stochastic quantizer maps x to sign(x) * ||x|| * zeta, where each
coordinate of zeta lands on one of two adjacent points of the uniform grid
{0, 1/s, ..., s/s}; the upper point is picked with probability
(s*|x_i|/||x||) - floor(s*|x_i|/||x||), which makes the map unbiased. Its
relative error variance E||Q(x)-x||^2 / ||x||^2 is bounded by a constant that
shrinks as the level count s grows: `measure_q` returns a certified such
bound in closed form. How much of it a run's deltas use is measured by the
engine (`RunMetrics.q_realized_mean` and `q_realized_max`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteInput(ValueError):
    """Quantizer input contains NaN or infinity."""


@dataclass
class QuantizerSpec:
    """Per-hop quantizer configuration.

    kind: "identity" (lossless) or "stochastic_levels".
    levels: number of grid levels s >= 1 (ignored for identity).
    """

    kind: str = "identity"
    levels: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "stochastic_levels"):
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        if self.kind == "stochastic_levels" and self.levels < 1:
            raise ValueError("stochastic_levels needs levels >= 1")

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"


def identity() -> QuantizerSpec:
    return QuantizerSpec(kind="identity")


def stochastic(levels: int) -> QuantizerSpec:
    return QuantizerSpec(kind="stochastic_levels", levels=levels)


def quantize(spec: QuantizerSpec, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Apply the quantizer to a real vector, or row by row to a (k, d) matrix.

    Identity returns x unchanged (same object; callers treat payloads as
    read-only). The stochastic kind scales each row by its own norm and
    consumes one uniform draw per coordinate of each nonzero row, in order,
    from `rng`; zero rows map to zero and draw nothing.
    """
    if spec.is_identity:
        return x
    if rng is None:
        raise ValueError("stochastic quantizer needs an rng")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("quantizer input must be finite")
    rows = x.reshape(-1, x.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(rows, axis=1, keepdims=True)
    # finite entries near 1e154 and above overflow the norm
    if not np.all(np.isfinite(norm)):
        raise NonFiniteInput("quantizer input norm overflows")
    out = np.zeros_like(rows)
    live = norm[:, 0] > 0.0
    rows, norm = rows[live], norm[live]
    s = spec.levels
    scaled = np.abs(rows) / norm * s
    lower = np.floor(scaled)
    # the boundary |x_i| == ||x|| lands exactly on level s/s
    np.clip(lower, 0, s - 1, out=lower)
    p_upper = scaled - lower
    u = rng.random(rows.shape)
    out[live] = np.sign(rows) * norm * ((lower + (u < p_upper)) / s)
    return out.reshape(x.shape)


def measure_q(spec: QuantizerSpec, dimension: int) -> float:
    """Certified relative-variance constant: an upper bound on
    E||Q(x)-x||^2 / ||x||^2 that holds for every nonzero x in R^dimension.

    With p_i the upper-level probability of coordinate i, the ratio is
    sum_i p_i(1-p_i) / s^2. Two bounds hold for every x: p(1-p) <= 1/4 gives
    d/(4s^2), and p_i <= s|x_i|/||x|| with ||x||_1 <= sqrt(d)||x|| gives
    sqrt(d)/s (the QSGD variance lemma, Alistarh et al., NeurIPS 2017).
    Returns their minimum; 0 for identity.
    """
    if spec.is_identity:
        return 0.0
    s = spec.levels
    return min(dimension / (4 * s * s), math.sqrt(dimension) / s)
