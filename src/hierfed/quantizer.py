"""Unbiased stochastic vector quantizers and their relative-variance constants.

The stochastic quantizer maps x to sign(x) * ||x|| * zeta, where each
coordinate of zeta lands on one of two adjacent points of the uniform grid
{0, 1/s, ..., s/s}; the upper point is picked with probability
(s*|x_i|/||x||) - floor(s*|x_i|/||x||), which makes the map unbiased. Its
relative error variance E||Q(x)-x||^2 / ||x||^2 is bounded by a constant that
shrinks as the level count s grows: `measure_q` returns a certified such
bound in closed form, and `typical_q` the exact ratio on a fixed probe set,
for comparison.
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
    """Apply the quantizer to a real vector.

    Identity returns x unchanged (same object; callers treat payloads as
    read-only). The stochastic kind consumes one uniform draw per coordinate,
    in index order, from `rng`. The all-zero vector maps to zero.
    """
    if spec.is_identity:
        return x
    if rng is None:
        raise ValueError("stochastic quantizer needs an rng")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("quantizer input must be finite")
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return np.zeros_like(x)
    # finite entries near 1e154 and above overflow the norm
    if not math.isfinite(norm):
        raise NonFiniteInput("quantizer input norm overflows")
    s = spec.levels
    ratio = np.abs(x) / norm
    scaled = ratio * s
    lower = np.floor(scaled)
    # the boundary |x_i| == ||x|| lands exactly on level s/s
    np.clip(lower, 0, s - 1, out=lower)
    p_upper = scaled - lower
    u = rng.random(x.shape)
    zeta = (lower + (u < p_upper)) / s
    return np.sign(x) * norm * zeta


def expected_error_ratio(spec: QuantizerSpec, x: np.ndarray) -> float:
    """Exact E||Q(x)-x||^2 / ||x||^2 for a fixed input, by two-point enumeration.

    Coordinates are independent given x, and each zeta_i is a two-outcome
    random variable with mean s*|x_i|/||x|| and variance p(1-p)/s^2, so the
    ratio is sum_i p_i(1-p_i) / s^2.
    """
    if spec.is_identity:
        return 0.0
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return 0.0
    s = spec.levels
    scaled = np.abs(x) / norm * s
    lower = np.clip(np.floor(scaled), 0, s - 1)
    p = scaled - lower
    return float(np.sum(p * (1.0 - p))) / s**2


def _probe_directions(dimension: int, rng: np.random.Generator, n_gaussian: int = 24) -> list[np.ndarray]:
    """Unit-norm probe set: normalized Gaussians plus sparse/structured vectors.

    Sparse directions matter because near-sparse inputs maximize the relative
    error of this quantizer family.
    """
    dirs: list[np.ndarray] = []
    for _ in range(n_gaussian):
        v = rng.standard_normal(dimension)
        n = np.linalg.norm(v)
        if n > 0:
            dirs.append(v / n)
    dirs.append(np.ones(dimension) / np.sqrt(dimension))
    one_hot = np.zeros(dimension)
    one_hot[0] = 1.0
    dirs.append(one_hot)
    if dimension >= 2:
        two_hot = np.zeros(dimension)
        two_hot[:2] = 1.0 / np.sqrt(2.0)
        dirs.append(two_hot)
        lopsided = np.zeros(dimension)
        lopsided[0], lopsided[1] = 0.95, np.sqrt(1 - 0.95**2)
        dirs.append(lopsided)
    return dirs


def measure_q(spec: QuantizerSpec, dimension: int) -> float:
    """Certified relative-variance constant: an upper bound on
    E||Q(x)-x||^2 / ||x||^2 that holds for every nonzero x in R^dimension.

    With p_i the upper-level probability of coordinate i, the ratio is
    sum_i p_i(1-p_i) / s^2 (see expected_error_ratio). Two bounds hold for
    every x: p(1-p) <= 1/4 gives d/(4s^2), and p_i <= s|x_i|/||x|| with
    ||x||_1 <= sqrt(d)||x|| gives sqrt(d)/s (the QSGD variance lemma,
    Alistarh et al., NeurIPS 2017). Returns their minimum; 0 for identity.
    """
    if spec.is_identity:
        return 0.0
    s = spec.levels
    return min(dimension / (4 * s * s), math.sqrt(dimension) / s)


def typical_q(spec: QuantizerSpec, dimension: int) -> float:
    """Exact ratio maximized over a fixed probe set; never above measure_q.

    Reported next to the certified constant to show how much of it typical
    inputs use. The probe set is drawn from a fixed generator, so the value
    depends only on the spec and the dimension.
    """
    if spec.is_identity:
        return 0.0
    return max(expected_error_ratio(spec, x) for x in _probe_directions(dimension, np.random.default_rng(0)))
