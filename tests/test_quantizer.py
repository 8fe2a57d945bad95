import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierfed.quantizer import (
    NonFiniteInput,
    QuantizerSpec,
    identity,
    measure_q,
    quantize,
    stochastic,
)


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


def enumeration_moments(x: np.ndarray, s: int):
    """Exact mean and variance of ||Q(x)-x||^2 by per-coordinate two-point
    enumeration; the independent oracle for the Monte-Carlo estimates."""
    norm = np.linalg.norm(x)
    scaled = np.abs(x) / norm * s
    lower = np.clip(np.floor(scaled), 0, s - 1)
    p = scaled - lower
    lo_err = (np.sign(x) * norm * lower / s - x) ** 2
    hi_err = (np.sign(x) * norm * (lower + 1) / s - x) ** 2
    mean_sq = (1 - p) * lo_err + p * hi_err
    second = (1 - p) * lo_err**2 + p * hi_err**2
    return float(mean_sq.sum()), float((second - mean_sq**2).sum())


class TestQuantize:
    def test_zero_vector(self):
        out = quantize(stochastic(4), np.zeros(5), np.random.default_rng(0))
        assert np.all(out == 0.0)

    def test_scalar_is_exact(self):
        rng = np.random.default_rng(0)
        for s in (1, 2, 7):
            for v in (2.0, -3.5, 0.125):
                out = quantize(stochastic(s), np.array([v]), rng)
                assert out[0] == v

    def test_grid_aligned_3_4(self):
        # ratios 0.6 and 0.8 sit exactly on levels 3/5 and 4/5
        out = quantize(stochastic(5), np.array([3.0, 4.0]), np.random.default_rng(1))
        assert out.tolist() == [3.0, 4.0]

    def test_identity_returns_input(self):
        x = np.array([1.0, -2.0, 0.5])
        assert quantize(identity(), x) is x

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            quantize(stochastic(4), np.array([1.0, np.nan]), np.random.default_rng(0))

    def test_norm_overflow_rejected(self):
        # every entry is finite, but ||x||^2 = 4e308 overflows
        with np.errstate(over="ignore"), pytest.raises(NonFiniteInput):
            quantize(stochastic(4), np.full(4, 1e154), np.random.default_rng(0))

    def test_sign_preserved(self):
        rng = np.random.default_rng(2)
        x = np.array([1.0, -1.0, 2.0, -0.1])
        for _ in range(50):
            out = quantize(stochastic(3), x, rng)
            assert np.all(out * x >= 0.0)

    def test_unbiasedness_monte_carlo(self):
        x = np.array([0.7, -1.3, 0.05, 2.4, -0.9, 0.3])
        s, trials = 4, 100_000
        rng = np.random.default_rng(3)
        total = np.zeros_like(x)
        for _ in range(trials):
            total += quantize(stochastic(s), x, rng)
        mean = total / trials
        norm = np.linalg.norm(x)
        scaled = np.abs(x) / norm * s
        p = scaled - np.clip(np.floor(scaled), 0, s - 1)
        se = norm / s * np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(mean - x) <= 4 * se + 1e-12)

    def test_norm_scaling_coupled_bitexact(self):
        x = np.array([0.3, -1.1, 0.7, 2.0])
        for c in (0.5, 2.0, 8.0):  # powers of two scale exactly in binary
            out1 = quantize(stochastic(4), x, np.random.default_rng(77))
            out2 = quantize(stochastic(4), c * x, np.random.default_rng(77))
            assert np.all(out2 == c * out1)


class TestRowWise:
    def test_rows_match_vector_calls_bitwise(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((6, 5)) * np.exp(rng.uniform(-3.0, 3.0, (6, 1)))
        x[2] = 0.0
        x[4] = [0.0, 3.0, 0.0, 4.0, 0.0]
        for s in (1, 4, 9):
            whole, one = np.random.default_rng(s), np.random.default_rng(s)
            out = quantize(stochastic(s), x, whole)
            expected = np.array([quantize(stochastic(s), row, one) for row in x])
            assert out.shape == x.shape
            assert np.array_equal(out, expected)
            # five nonzero rows of five coordinates: 25 draws, none for the zero row
            assert whole.bit_generator.state == one.bit_generator.state
            assert whole.random() == np.random.default_rng(s).random(26)[25]

    def test_zero_rows_map_to_zero(self):
        out = quantize(stochastic(3), np.zeros((3, 4)), np.random.default_rng(0))
        assert out.shape == (3, 4) and np.all(out == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_row_rejected(self, bad):
        x = np.ones((3, 4))
        x[1, 2] = bad
        with pytest.raises(NonFiniteInput, match="finite"):
            quantize(stochastic(4), x, np.random.default_rng(0))

    def test_row_norm_overflow_rejected(self):
        x = np.ones((3, 4))
        x[2] = 1e154
        with pytest.raises(NonFiniteInput, match="norm overflows"):
            quantize(stochastic(4), x, np.random.default_rng(0))


class TestMeasureQ:
    def test_identity_is_zero(self):
        spec = identity()
        assert measure_q(spec, 8) == 0.0

    def test_two_outcome_enumeration_oracle(self):
        # (1, 1) with s = 2: compare the Monte-Carlo ratio against exact enumeration
        x = np.array([1.0, 1.0])
        s, trials = 2, 50_000
        spec = stochastic(s)
        rng = np.random.default_rng(4)
        acc = 0.0
        for _ in range(trials):
            err = quantize(spec, x, rng) - x
            acc += float(err @ err)
        empirical = acc / trials / float(x @ x)
        exact_mean, exact_var = enumeration_moments(x, s)
        norm_sq = float(x @ x)
        exact_ratio = exact_mean / norm_sq
        se = math.sqrt(exact_var / trials) / norm_sq
        assert abs(empirical - exact_ratio) <= 3 * se
        assert abs(exact_ratio - expected_error_ratio(spec, x)) < 1e-12

    @pytest.mark.parametrize("dim", [4, 16])
    def test_monotone_in_levels(self, dim):
        q4 = measure_q(stochastic(4), dim)
        q8 = measure_q(stochastic(8), dim)
        assert q8 < q4

    def test_bound_holds_on_fresh_inputs(self):
        spec = stochastic(4)
        measured = measure_q(spec, 8)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(8)
            ratio = expected_error_ratio(spec, x)
            assert ratio <= measured


def _probe_input(kind: str, dim: int, levels: int, seed: int) -> np.ndarray:
    """Inputs that stress the bound: dense with mixed magnitudes, 1-3
    non-zeros, small-integer vectors whose ratios often land exactly on a
    level (one-hot, equal entries), and those nudged just off the grid."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return rng.standard_normal(dim) * np.exp(rng.uniform(-4.0, 4.0, dim))
    if kind == "sparse":
        x = np.zeros(dim)
        support = rng.choice(dim, size=min(dim, int(rng.integers(1, 4))), replace=False)
        x[support] = rng.standard_normal(len(support))
        return x
    x = np.zeros(dim)
    support = rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False)
    x[support] = rng.integers(1, levels + 1, len(support)) * rng.choice([-1.0, 1.0], len(support))
    if kind == "near_grid":
        x *= 1.0 + rng.uniform(-1e-9, 1e-9, dim)
    return x


class TestCertifiedBound:
    @settings(deadline=None)
    @given(
        levels=st.integers(1, 64),
        dim=st.integers(1, 512),
        kind=st.sampled_from(["dense", "sparse", "grid", "near_grid"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_ratio_never_exceeds_q(self, levels, dim, kind, seed):
        spec = stochastic(levels)
        x = _probe_input(kind, dim, levels, seed)
        assert expected_error_ratio(spec, x) <= measure_q(spec, dim) + 1e-12

    def test_closed_form(self):
        assert measure_q(stochastic(8), 314) == 314 / 256  # p(1-p) <= 1/4 binds
        assert measure_q(stochastic(1), 400) == 20.0  # sqrt(d)/s binds


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            QuantizerSpec(kind="rounding")

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            QuantizerSpec(kind="stochastic_levels", levels=0)
