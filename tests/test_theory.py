import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_condition import condition, is_largest_feasible
from hierfed.engine import Schedule
from hierfed.theory import (
    LayerOutOfRange,
    NeedsTwoLayers,
    TheoryParams,
    WrongSpecialization,
    condition_lhs,
    corollary1_bound,
    corollary1_condition,
    corollary2_bound,
    corollary2_condition,
    error_bracket,
    max_feasible_mu,
    rate_bound,
    recursion_A,
)
from hierfed.topology import build_topology

FIG1 = build_topology([11, 4, 2, 1], parents=[[0, 0, 0, 1, 2, 2, 3, 3, 3, 3, 3], [0, 0, 1, 1], [0, 0]])


def params(topo, taus, q, mu=0.01, lipschitz=1.0, sigma2=1.0, gap0=1.0, rounds=1):
    return TheoryParams(
        lipschitz=lipschitz, sigma2=sigma2, mu=mu, gap0=gap0, q=tuple(q),
        topology=topo, schedule=Schedule(tuple(taus), rounds),
    )


def random_two_layer(rng):
    n_dev = int(rng.integers(3, 15))
    c1 = int(rng.integers(2, n_dev))
    p0 = list(range(c1)) + [int(rng.integers(0, c1)) for _ in range(n_dev - c1)]
    rng.shuffle(p0)
    return build_topology([n_dev, c1, 1], parents=[p0, [0] * c1])


def random_tree(rng, n_layers):
    sizes = [1]
    for _ in range(n_layers):
        sizes.append(int(rng.integers(sizes[-1], sizes[-1] * 3 + 2)))
    sizes = sizes[::-1]
    parents = []
    for n in range(n_layers):
        p = list(range(sizes[n + 1])) + [int(rng.integers(0, sizes[n + 1])) for _ in range(sizes[n] - sizes[n + 1])]
        rng.shuffle(p)
        parents.append(p)
    return build_topology(sizes, parents=parents)


class TestRecursion:
    def test_zero_q_collapses(self):
        p = params(FIG1, (3, 2, 4), (0.0, 0.0, 0.0))
        assert recursion_A(p, 1) == 0.0
        assert recursion_A(p, 2) == 0.0

    def test_fig1_hand_values(self):
        # q = 1, tau = 1: layer-1 terms are count + 2 -> {5, 3, 4, 7}, max 7;
        # layer 2 node-wise: 4 + 2*max(3*5, 1*3) = 34 and 7 + 2*max(2*4, 5*7) = 77
        p = params(FIG1, (1, 1, 1), (1.0, 1.0, 1.0))
        assert recursion_A(p, 1) == 7.0
        assert recursion_A(p, 2) == 77.0

    def test_uniform_tree_symmetry(self):
        topo = build_topology([8, 4, 1], fanouts=[2, 4])
        q1, q2, t1, t2 = 0.3, 0.2, 3, 2
        p = params(topo, (t1, t2), (q1, q2))
        expected = 2 * q2 * t1 * t2 + q1 * (1 + q2) * t1
        assert recursion_A(p, 1) == pytest.approx(expected, rel=1e-15)

    def test_equals_nested_max_over_children(self):
        # the per-node recursion, each node's children grouped from parents:
        # recursion_A takes its layer maxima over descent chains instead, and
        # float rounding is monotone, so the two agree exactly
        rng = np.random.default_rng(108)
        for _ in range(300):
            n_layers = int(rng.integers(2, 6))
            topo = random_tree(rng, n_layers)
            counts = topo.subtree_devices
            # up to about 1e5 per layer, so tau prefix products pass 2**63
            taus = tuple(int(v) for v in np.exp(rng.uniform(0.0, 11.5, size=n_layers)).round())
            q = (0.0,) * n_layers if rng.random() < 0.2 else tuple(rng.uniform(0.0, 3.0, size=n_layers).tolist())
            p = params(topo, taus, q)
            values = [c * q[1] * taus[0] * taus[1] + q[0] * (1.0 + q[1]) * taus[0] for c in counts[1]]
            assert recursion_A(p, 1) == max(values)
            for n in range(2, n_layers):
                children = [[] for _ in range(topo.layer_sizes[n])]
                for c, parent in enumerate(topo.parents[n - 1]):
                    children[parent].append(c)
                values = [
                    counts[n][node] * q[n] * math.prod(taus[: n + 1])
                    + (1.0 + q[n]) * max(counts[n - 1][c] * values[c] for c in children[node])
                    for node in range(topo.layer_sizes[n])
                ]
                assert recursion_A(p, n) == max(values)

    def test_layer_out_of_range(self):
        p = params(FIG1, (1, 1, 1), (0.1, 0.1, 0.1))
        with pytest.raises(LayerOutOfRange):
            recursion_A(p, 3)
        with pytest.raises(LayerOutOfRange):
            recursion_A(p, 0)

    def test_needs_two_layers(self):
        topo = build_topology([3, 1], parents=[[0, 0, 0]])
        p = params(topo, (2,), (0.1,))
        with pytest.raises(NeedsTwoLayers):
            recursion_A(p, 1)


class TestCondition:
    def test_limit_mu_zero(self):
        p = params(FIG1, (2, 3, 2), (0.5, 0.5, 0.5), mu=1e-12)
        assert condition_lhs(p) == pytest.approx(1.0, abs=1e-9)

    def test_all_ones_no_quant(self):
        p = params(FIG1, (1, 1, 1), (0.0, 0.0, 0.0), mu=0.25, lipschitz=2.0)
        assert condition_lhs(p) == pytest.approx(1.0 - 2.0 * 0.25, rel=1e-15)

    def test_matches_corollary2(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            topo = random_two_layer(rng)
            p = params(
                topo,
                (int(rng.integers(1, 6)), int(rng.integers(1, 6))),
                rng.uniform(0.0, 1.0, size=2),
                mu=float(rng.uniform(1e-4, 0.1)),
                lipschitz=float(rng.uniform(0.5, 5.0)),
            )
            a, b = condition_lhs(p), corollary2_condition(p)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_matches_corollary1(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n_layers = int(rng.integers(1, 5))
            topo = random_tree(rng, n_layers)
            p = params(
                topo,
                [int(v) for v in rng.integers(1, 5, size=n_layers)],
                [0.0] * n_layers,
                mu=float(rng.uniform(1e-4, 0.05)),
                lipschitz=float(rng.uniform(0.5, 4.0)),
            )
            a, b = condition_lhs(p), corollary1_condition(p)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_one_layer_equals_its_pass_through_embedding(self):
        # an N = 1 run is bit-identical to the N = 2 run on [n, 1, 1] whose
        # cloud hop has tau 1 and q 0, so the theory must agree on the two exactly
        rng = np.random.default_rng(107)
        for _ in range(500):
            n_dev, tau, rounds = (int(v) for v in rng.integers(1, 17, size=3))
            q1 = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 3.0))
            kw = dict(
                mu=float(10 ** rng.uniform(-4, 0)),
                lipschitz=float(10 ** rng.uniform(-1, 1)),
                sigma2=float(rng.uniform(0.0, 2.0)),
                gap0=float(rng.uniform(0.0, 3.0)),
                rounds=rounds,
            )
            one = params(build_topology([n_dev, 1], fanouts=[n_dev]), (tau,), (q1,), **kw)
            two = params(build_topology([n_dev, 1, 1], fanouts=[n_dev, 1]), (tau, 1), (q1, 0.0), **kw)
            assert condition_lhs(one) == condition_lhs(two)
            assert max_feasible_mu(one) == max_feasible_mu(two)
            assert rate_bound(one, rounds) == rate_bound(two, rounds)


class TestRateBound:
    def test_speed_vanishes_large_t(self):
        p = params(FIG1, (2, 2, 2), (0.1, 0.1, 0.1), sigma2=0.5)
        speed, err, total = rate_bound(p, 10**15)
        assert speed == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(err, rel=1e-9)

    def test_all_ones_error_floor(self):
        p = params(FIG1, (1, 1, 1), (0.0, 0.0, 0.0), mu=0.02, lipschitz=3.0, sigma2=0.7)
        _, err, _ = rate_bound(p, 5)
        assert err == pytest.approx(3.0 * 0.02 * 0.7 / 11, rel=1e-15)

    def test_matches_corollary2(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            topo = random_two_layer(rng)
            p = params(
                topo,
                (int(rng.integers(1, 6)), int(rng.integers(1, 6))),
                rng.uniform(0.0, 1.0, size=2),
                mu=float(rng.uniform(1e-4, 0.1)),
                lipschitz=float(rng.uniform(0.5, 5.0)),
                sigma2=float(rng.uniform(0.0, 2.0)),
                gap0=float(rng.uniform(0.0, 3.0)),
            )
            t = int(rng.integers(1, 50))
            for a, b in zip(rate_bound(p, t), corollary2_bound(p, t)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_matches_corollary1(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n_layers = int(rng.integers(1, 5))
            topo = random_tree(rng, n_layers)
            p = params(
                topo,
                [int(v) for v in rng.integers(1, 5, size=n_layers)],
                [0.0] * n_layers,
                mu=float(rng.uniform(1e-4, 0.05)),
                lipschitz=float(rng.uniform(0.5, 4.0)),
                sigma2=float(rng.uniform(0.0, 2.0)),
                gap0=float(rng.uniform(0.0, 3.0)),
            )
            t = int(rng.integers(1, 50))
            for a, b in zip(rate_bound(p, t), corollary1_bound(p, t)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_speed_halves_when_tau_doubles(self):
        base = params(FIG1, (2, 3, 2), (0.1, 0.2, 0.3), gap0=1.7)
        s0 = rate_bound(base, 10)[0]
        for idx in range(3):
            taus = list(base.schedule.taus)
            taus[idx] *= 2
            s1 = rate_bound(replace(base, schedule=Schedule(tuple(taus), 10)), 10)[0]
            assert s1 == s0 / 2

    def test_error_monotone_in_q_and_tau(self):
        base = params(FIG1, (2, 2, 2), (0.1, 0.1, 0.1), sigma2=1.0)
        e0 = rate_bound(base, 10)[1]
        for idx in range(3):
            q = list(base.q)
            q[idx] += 0.2
            assert rate_bound(replace(base, q=tuple(q)), 10)[1] > e0
            taus = list(base.schedule.taus)
            taus[idx] += 1
            assert rate_bound(replace(base, schedule=Schedule(tuple(taus), 10)), 10)[1] > e0


@st.composite
def ragged_trees(draw, depth):
    """A depth-`depth` tree as in test_topology: every upper node gets one
    child, up to four more land anywhere, and each layer is shuffled."""
    sizes, parents = [1], []
    for _ in range(depth):
        up = sizes[0]
        extra = draw(st.lists(st.integers(0, up - 1), max_size=4))
        parents.insert(0, draw(st.permutations(list(range(up)) + extra)))
        sizes.insert(0, len(parents[0]))
    return build_topology(sizes, parents=parents)


@st.composite
def drawn_params(draw, depth, quantized):
    """TheoryParams on a ragged tree, in criterion 03's ranges; q = 0 unless `quantized`."""
    per_layer = st.lists(st.floats(0.0, 1.0) if quantized else st.just(0.0), min_size=depth, max_size=depth)
    return params(
        draw(ragged_trees(depth)),
        draw(st.lists(st.integers(1, 5), min_size=depth, max_size=depth)),
        draw(per_layer),
        mu=draw(st.floats(1e-4, 0.1)),
        lipschitz=draw(st.floats(0.5, 5.0)),
        sigma2=draw(st.floats(0.0, 2.0)),
        gap0=draw(st.floats(0.0, 3.0)),
    )


def assert_close(general, oracle):
    assert abs(general - oracle) <= 1e-12 * max(1.0, abs(general))


class TestCorollaries:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda depth: drawn_params(depth, quantized=False)), st.integers(1, 40))
    def test_general_forms_equal_corollary1_without_quantization(self, p, rounds):
        assert_close(condition_lhs(p), corollary1_condition(p))
        for general, oracle in zip(rate_bound(p, rounds), corollary1_bound(p, rounds)):
            assert_close(general, oracle)

    @settings(max_examples=200, deadline=None)
    @given(drawn_params(2, quantized=True), st.integers(1, 40))
    def test_general_forms_equal_corollary2_on_two_layers(self, p, rounds):
        assert_close(condition_lhs(p), corollary2_condition(p))
        for general, oracle in zip(rate_bound(p, rounds), corollary2_bound(p, rounds)):
            assert_close(general, oracle)

    def test_corollary2_all_ones(self):
        topo = random_two_layer(np.random.default_rng(104))
        p = params(topo, (1, 1), (0.0, 0.0), mu=0.3, lipschitz=2.0)
        assert corollary2_condition(p) == pytest.approx(1.0 - 2.0 * 0.3, rel=1e-15)

    def test_corollary2_reduces_to_corollary1(self):
        topo = random_two_layer(np.random.default_rng(105))
        p = params(topo, (3, 2), (0.0, 0.0), mu=0.01, sigma2=0.8, gap0=0.5)
        for a, b in zip(corollary2_bound(p, 7), corollary1_bound(p, 7)):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_wrong_specialization(self):
        p3 = params(FIG1, (1, 1, 1), (0.1, 0.1, 0.1))
        with pytest.raises(WrongSpecialization):
            corollary2_condition(p3)
        with pytest.raises(WrongSpecialization):
            corollary1_condition(p3)


class TestMaxFeasibleMu:
    def test_all_ones_is_inverse_lipschitz(self):
        topo = random_two_layer(np.random.default_rng(106))
        p = params(topo, (1, 1), (0.0, 0.0), lipschitz=2.5)
        assert max_feasible_mu(p) == pytest.approx(1.0 / 2.5, rel=1e-9)

    def test_root_property(self):
        p = params(FIG1, (3, 2, 2), (0.2, 0.1, 0.05), lipschitz=1.5)
        mu_star = max_feasible_mu(p)
        scale = 1.0 + 1.5 * mu_star * math.prod(p.schedule.taus)
        assert 0 <= condition(p, mu_star) <= 1e-9 * scale
        assert condition(p, math.nextafter(mu_star, math.inf)) < 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(1, 16), st.sampled_from([0.0, 0.05, 0.3, 2.0])), min_size=1, max_size=4),
        st.floats(0.1, 10.0),
    )
    def test_largest_float_with_nonnegative_condition(self, tree_seed, layers, lipschitz):
        taus, q = zip(*layers)
        topo = random_tree(np.random.default_rng(tree_seed), len(layers))
        p = params(topo, taus, q, lipschitz=lipschitz)
        assert is_largest_feasible(p, max_feasible_mu(p))

    def test_root_with_an_overflowing_product(self):
        # L (B + sqrt(B^2 + 4S)) passes float range here, but the root, about
        # 1e-309, is a subnormal float; the loops land on it as anywhere else
        p = params(FIG1, (2, 2, 2), (0.0, 0.0, 0.0), lipschitz=1e308)
        mu = max_feasible_mu(p)
        assert 0.0 < mu < 1e-308 and is_largest_feasible(p, mu)

    def test_root_underflow_raises(self):
        # B is about 1e18 and S about 5e35, so the root 2 / (L (B + sqrt(B^2 + 4S)))
        # is about 7e-327: not even the smallest subnormal meets the condition
        p = params(FIG1, (10**6,) * 3, (0.0, 0.0, 0.0), lipschitz=1e308)
        assert condition(p, math.ulp(0.0)) < 0
        with pytest.raises(ValueError, match="underflows"):
            max_feasible_mu(p)

    def test_monotone_in_each_tau(self):
        # raising any single iteration count weakly shrinks the feasible rate
        base = (2, 2, 2)
        mu_base = max_feasible_mu(params(FIG1, base, (0.1, 0.1, 0.1)))
        for idx in range(3):
            for bump in (1, 2, 4):
                taus = tuple(t + bump * (k == idx) for k, t in enumerate(base))
                assert max_feasible_mu(params(FIG1, taus, (0.1, 0.1, 0.1))) <= mu_base


class TestErrorBracket:
    def test_matches_rate_bound_decomposition(self):
        p = params(FIG1, (3, 2, 2), (0.2, 0.4, 0.1), sigma2=1.3, mu=0.02, lipschitz=2.0)
        bracket = error_bracket(p.schedule.taus, FIG1.layer_sizes[1:-1], 11, p.q)
        _, err, _ = rate_bound(p, 3)
        tail = 2.0 * 0.02 * 1.3 / 11 * math.prod(1 + x for x in p.q)
        assert err == pytest.approx(2.0**2 * 0.02**2 / 2 * bracket * 1.3 + tail, rel=1e-14)


def swept_params(rng):
    """A ragged tree of depth 1-5 with tau log-uniform in 1-200, q = 0 in a
    fifth of cases and U(0, 3) per layer otherwise, and L log-uniform from
    1e-320 to 1e300."""
    depth = int(rng.integers(1, 6))
    topo = random_tree(rng, depth)
    taus = tuple(int(v) for v in np.exp(rng.uniform(0.0, math.log(200.0), size=depth)).round())
    q = (0.0,) * depth if rng.random() < 0.2 else tuple(rng.uniform(0.0, 3.0, size=depth).tolist())
    return params(topo, taus, q, lipschitz=float(10 ** rng.uniform(-320.0, 300.0)))


class TestExactDecision:
    """The condition's sign, checked against the independent Fraction
    transcription in exact_condition.py."""

    def test_sweep_of_ragged_trees(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            p = swept_params(rng)
            mu = max_feasible_mu(p)
            assert is_largest_feasible(p, mu)
            for at in (mu, math.nextafter(mu, 0.0), math.nextafter(mu, math.inf), mu * rng.uniform(0.5, 2.0)):
                if 0.0 < at < math.inf:
                    exact, value = condition(p, at), condition_lhs(replace(p, mu=at))
                    assert (value >= 0.0) == (exact >= 0)  # bound_applies reads the exact sign
                    assert value != 0.0 or exact == 0

    def test_condition_is_the_exact_value_rounded_once(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            p = swept_params(rng)
            p = replace(p, mu=min(max_feasible_mu(p) * rng.uniform(0.01, 1.5), sys.float_info.max))
            exact = condition(p)
            if abs(exact) <= sys.float_info.max:
                assert condition_lhs(p) == float(exact)
            else:
                assert condition_lhs(p) == -math.inf

    def test_error_term_past_float_range(self):
        # L^2 overflows and mu^2 underflows, but L^2 mu^2 is about 0.01
        p = params(FIG1, (3, 2, 2), (0.2, 0.4, 0.1), sigma2=1.3, mu=1e-201, lipschitz=1e200)
        bracket = error_bracket(p.schedule.taus, FIG1.layer_sizes[1:-1], 11, p.q)
        tail = 1e200 * 1e-201 * 1.3 / 11 * math.prod(1 + x for x in p.q)
        exact = (Fraction(1e200) * Fraction(1e-201)) ** 2 * Fraction(bracket) * Fraction(1.3) / 2
        assert rate_bound(p, 3)[1] == float(exact) + tail
