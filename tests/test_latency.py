import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierfed.cli import _setup
from hierfed.gp_optimizer import ObjectiveSpec, _g_terms, _lse, g_value
from hierfed.latency import (
    LatencyParams,
    LengthMismatch,
    compute_tcp,
    compute_tde,
    deadline_ok,
    round_latency,
)


def make_params(**overrides):
    base = dict(
        cycles_per_sample=0.25e9,
        frequencies=[0.5e9, 1.1e9, 2.0e9],
        batch_size=40,
        model_bits=5.6724e6,
        bandwidth=1e6,
        tx_power=0.5,
        channel_gain=1e-8,
        noise_power=1e-10,
        t_edge=[1.0, 2.0],
        deadline=1e6,
        rounds=10,
    )
    base.update(overrides)
    return LatencyParams(**base)


def naive_round_latency(params, taus):
    """Independent term-by-term recomputation of the round latency."""
    n = len(taus)
    t_cp, t_de = compute_tcp(params), compute_tde(params)
    if n == 1:
        return taus[0] * t_cp + t_de
    total = math.prod(taus) * t_cp
    total += math.prod(taus[1:]) * t_de
    for layer in range(2, n):
        mult = 1
        for m in range(layer, n):
            mult *= taus[m]
        total += mult * params.t_edge[layer - 2]
    return total + params.t_edge[n - 2]


class TestComputation:
    def test_table_values_give_20s(self):
        p = make_params()
        assert compute_tcp(p) == 20.0

    def test_zero_batch(self):
        assert compute_tcp(make_params(batch_size=0)) == 0.0

    def test_doubling_frequencies_halves(self):
        p = make_params()
        fast = make_params(frequencies=[2 * f for f in p.frequencies])
        assert compute_tcp(fast) == compute_tcp(p) / 2


class TestTransmission:
    def test_table_values_give_one_second(self):
        # p h / N0 = 50, so the rate is W log2(51) and d_b was picked to make this ~1 s
        assert compute_tde(make_params()) == pytest.approx(1.0, abs=1e-4)

    def test_kappa_raises_time(self):
        base = compute_tde(make_params())
        scaled = compute_tde(make_params(kappa=10.0))
        assert scaled > base
        expected_gain = 10.0 ** (-3.4) * 1e-8
        manual = 5.6724e6 / (1e6 * math.log2(1.0 + 0.5 * expected_gain / 1e-10))
        assert scaled == pytest.approx(manual, rel=1e-12)

    def test_linear_in_bits(self):
        p = make_params()
        assert compute_tde(make_params(model_bits=2 * p.model_bits)) == pytest.approx(
            2 * compute_tde(p), rel=1e-15
        )

    def test_nonpositive_rate_guard(self):
        with pytest.raises(ValueError):
            make_params(noise_power=-1.0)


class TestRoundLatency:
    def test_two_layer_shape(self):
        p = make_params(t_edge=[3.0])
        t_cp, t_de = compute_tcp(p), compute_tde(p)
        for taus in [(1, 1), (4, 2), (3, 5)]:
            expected = taus[0] * taus[1] * t_cp + taus[1] * t_de + 3.0
            assert round_latency(p, taus) == expected

    def test_three_layer_all_ones(self):
        p = make_params(t_edge=[1.0, 2.0])
        total = round_latency(p, (1, 1, 1))
        assert total == pytest.approx(compute_tcp(p) + compute_tde(p) + 1.0 + 2.0, rel=1e-15)

    def test_single_layer(self):
        p = make_params(t_edge=[])
        assert round_latency(p, (5,)) == pytest.approx(
            5 * compute_tcp(p) + compute_tde(p), rel=1e-15
        )

    def test_six_layer_against_naive_oracle(self):
        t_de = compute_tde(make_params())
        p = make_params(t_edge=[10 * t_de, 20 * t_de, 30 * t_de, 40 * t_de, 50 * t_de])
        taus = (10, 2, 2, 2, 2, 2)
        got = round_latency(p, taus)
        assert got == pytest.approx(naive_round_latency(p, taus), rel=1e-14)

    def test_random_schedules_against_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p = make_params(t_edge=[float(v) for v in rng.uniform(0.1, 5.0, size=max(0, n - 1))])
            taus = tuple(int(v) for v in rng.integers(1, 8, size=n))
            assert round_latency(p, taus) == pytest.approx(
                naive_round_latency(p, taus), rel=1e-13
            )

    def test_strictly_increasing_in_taus(self):
        p = make_params(t_edge=[3.0])
        base = round_latency(p, (2, 2))
        assert round_latency(p, (3, 2)) > base
        assert round_latency(p, (2, 3)) > base

    def test_length_mismatch(self):
        p = make_params(t_edge=[1.0])
        with pytest.raises(LengthMismatch):
            round_latency(p, (1, 1, 1))


@st.composite
def schedules(draw):
    """A depth N in 1..6, taus in 1..16 and positive inter-edge times."""
    n = draw(st.integers(1, 6))
    taus = tuple(draw(st.lists(st.integers(1, 16), min_size=n, max_size=n)))
    t_edge = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    return taus, t_edge


class TestRoundLatencyProperties:
    @settings(max_examples=300, deadline=None)
    @given(schedules(), st.floats(1.0, 1e4), st.integers(1, 50))
    def test_equals_naive_expansion_and_deadline_posynomial(self, case, deadline, rounds):
        taus, t_edge = case
        n = len(taus)
        p = make_params(t_edge=t_edge, deadline=deadline, rounds=rounds)
        got = round_latency(p, taus)
        assert got == naive_round_latency(p, taus)
        spec = ObjectiveSpec(alpha=0.5, counts=(1,) * (n - 1), n_tot=1, q=(0.0,) * n, latency=p)
        # the barrier's log-space transcription of G = (T / T_d) * round latency
        barrier_g = math.exp(_lse(*_g_terms(spec), np.log(taus))[0])
        assert barrier_g * deadline / rounds == pytest.approx(got, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(schedules(), st.integers(1, 50))
    def test_g_value_decides_as_deadline_ok_at_the_boundary(self, case, rounds):
        taus, t_edge = case
        n = len(taus)
        p = make_params(t_edge=t_edge, rounds=rounds)
        spec = ObjectiveSpec(alpha=0.5, counts=(1,) * (n - 1), n_tot=1, q=(0.0,) * n, latency=p)
        exact = rounds * round_latency(p, taus)
        for direction in (-math.inf, math.inf):
            p.deadline = exact
            for _ in range(5):  # the deadline T * latency and 1..4 ulps to either side
                assert (g_value(spec, taus) <= 1.0) == deadline_ok(p, taus)[0], p.deadline
                p.deadline = math.nextafter(p.deadline, direction)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_length_mismatch_for_every_depth(self, n):
        for length in range(8):
            if length == n - 1:
                continue
            p = make_params(t_edge=[1.0] * length)
            with pytest.raises(LengthMismatch):
                round_latency(p, (2,) * n)
            spec = ObjectiveSpec(alpha=0.5, counts=(1,) * (n - 1), n_tot=1, q=(0.0,) * n, latency=p)
            with pytest.raises(LengthMismatch):
                g_value(spec, (2,) * n)


class TestDeadline:
    def test_exact_boundary(self):
        p = make_params(t_edge=[3.0])
        taus = (2, 2)
        lat = round_latency(p, taus)
        p.deadline, p.rounds = lat * 10, 10
        ok, slack = deadline_ok(p, taus)
        assert ok and slack == pytest.approx(0.0, abs=1e-12)

    def test_below_boundary(self):
        p = make_params(t_edge=[3.0])
        taus = (2, 2)
        p.deadline, p.rounds = round_latency(p, taus) * 10 * 0.99, 10
        ok, slack = deadline_ok(p, taus)
        assert not ok and slack < 0


class TestDefaults:
    def test_table_defaults_shape(self):
        """The table the CLI resolves for a 6-layer config with no latency section."""
        cfg = {
            "seed": 0,
            "topology": {"layer_sizes": [4, 2, 1, 1, 1, 1, 1], "fanouts": [2, 2, 1, 1, 1, 1]},
            "task": {"kind": "quadratic", "samples_per_device": 40},
            "schedule": {"rounds": 1},
        }
        p = _setup(cfg, "optimize").lat
        assert compute_tcp(p) == 20.0
        t_de = compute_tde(p)
        assert p.t_edge == [10.0 * (k + 1) * t_de for k in range(5)]
