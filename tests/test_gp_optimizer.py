import math

import numpy as np
import pytest

from hierfed import gp_optimizer
from hierfed.gp_optimizer import (
    InfeasibleStart,
    NoFeasiblePoint,
    NonPositiveTau,
    ObjectiveSpec,
    RegimeViolation,
    SearchTooLarge,
    SubproblemFailure,
    agma_step,
    brute_force,
    closed_form_computation_limited,
    g_value,
    j_minus,
    j_plus,
    objective,
    optimize,
)
from hierfed.latency import LatencyParams


def make_spec(alpha, counts, n_tot, q, t_edge, deadline, rounds=1, cycles=1e7):
    lat = LatencyParams(
        cycles_per_sample=cycles,
        frequencies=[2e9],
        batch_size=4,
        model_bits=1e5,
        bandwidth=1e6,
        tx_power=0.5,
        channel_gain=1e-8,
        noise_power=1e-10,
        t_edge=list(t_edge),
        deadline=deadline,
        rounds=rounds,
    )
    return ObjectiveSpec(alpha=alpha, counts=tuple(counts), n_tot=n_tot, q=tuple(q), latency=lat)


def random_spec(rng, n=None):
    n = n or int(rng.integers(2, 4))
    counts = tuple(int(c) for c in sorted(rng.integers(2, 9, size=n - 1))[::-1])
    return make_spec(
        alpha=float(rng.uniform(0.05, 0.95)),
        counts=counts,
        n_tot=int(counts[0] * rng.integers(2, 5)),
        q=tuple(float(v) for v in rng.uniform(0.0, 0.5, size=n)),
        t_edge=[float(v) for v in rng.uniform(0.1, 1.0, size=n - 1)],
        deadline=float(rng.uniform(20, 300)),
    )


def tilde_j_minus(spec, taus, delta, betas):
    """Spec-transcribed weighted geometric mean of the J- + delta terms."""
    beta0, rest = betas[0], betas[1:]
    val = ((spec.error_weight + delta) / beta0) ** beta0
    for k, bk in enumerate(rest, start=1):
        if bk == 0.0:
            continue
        u_k = (
            spec.error_weight
            * spec.counts[k - 1]
            / spec.n_tot
            * math.prod(1 + spec.q[m] for m in range(k))
            * math.prod(taus[:k])
        )
        val *= (u_k / bk) ** bk
    return val


class TestObjective:
    def test_all_ones_gives_alpha(self):
        spec = make_spec(0.37, (4,), 8, (0.2, 0.1), [0.5], deadline=100.0)
        assert objective(spec, (1, 1)) == pytest.approx(0.37, rel=1e-15)

    def test_alpha_one_is_pure_speed(self):
        spec = make_spec(1.0, (4,), 8, (0.2, 0.1), [0.5], deadline=100.0)
        assert objective(spec, (2, 4)) == pytest.approx(1.0 / 8.0, rel=1e-15)

    def test_alpha_zero_two_one(self):
        spec = make_spec(0.0, (4,), 8, (0.2, 0.1), [0.5], deadline=100.0)
        assert objective(spec, (2, 1)) == pytest.approx(1.0, rel=1e-15)

    def test_matches_posynomial_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            spec = random_spec(rng)
            taus = rng.uniform(1.0, 6.0, size=spec.n_layers)
            lhs = objective(spec, taus)
            rhs = j_plus(spec, taus) - j_minus(spec, taus)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_rejects_nonpositive(self):
        spec = make_spec(0.5, (4,), 8, (0.2, 0.1), [0.5], deadline=100.0)
        with pytest.raises(NonPositiveTau):
            objective(spec, (1, 0))


class TestAgmaStep:
    def test_betas_partition_unity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            spec = random_spec(rng)
            taus = tuple(float(v) for v in rng.integers(1, 3, size=spec.n_layers))
            if g_value(spec, taus) > 1.0:
                continue
            delta = max(objective(spec, taus), 1e-6)
            _, _, betas = agma_step(spec, taus, delta)
            assert sum(betas) == pytest.approx(1.0, rel=1e-12)

    def test_geometric_mean_minorizes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            spec = random_spec(rng)
            taus = tuple(float(v) for v in rng.uniform(1.0, 4.0, size=spec.n_layers))
            delta = float(rng.uniform(0.01, 1.0))
            jm = j_minus(spec, taus)
            beta0 = (spec.error_weight + delta) / (jm + delta)
            betas = [beta0]
            for k in range(1, spec.n_layers):
                u_k = (
                    spec.error_weight
                    * spec.counts[k - 1]
                    / spec.n_tot
                    * math.prod(1 + spec.q[m] for m in range(k))
                    * math.prod(taus[:k])
                )
                betas.append(u_k / (jm + delta))
            approx = tilde_j_minus(spec, taus, delta, betas)
            # equality at the matching point, <= everywhere else
            assert approx <= jm + delta + 1e-9 * (jm + delta)
            assert approx == pytest.approx(jm + delta, rel=1e-12)
            other = tuple(v * 1.7 for v in taus)
            assert tilde_j_minus(spec, other, delta, betas) <= j_minus(spec, other) + delta + 1e-9

    def test_one_step_never_increases_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            spec = random_spec(rng)
            taus = (1.0,) * spec.n_layers
            delta = max(j_plus(spec, taus) - j_minus(spec, taus), 1e-8)
            _, new_delta, _ = agma_step(spec, taus, delta)
            assert new_delta <= delta + 1e-12

    def test_infeasible_start_rejected(self):
        spec = make_spec(0.5, (4,), 8, (0.1, 0.1), [1.0], deadline=1e-6)
        with pytest.raises(InfeasibleStart):
            agma_step(spec, (5.0, 5.0), 0.1)


class TestOptimize:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            spec = random_spec(rng)
            res = optimize(spec)
            best, best_val = brute_force(spec, 32)
            assert res.objective_integer <= 1.02 * best_val
            assert res.slack >= 0.0
            deltas = res.delta_history
            assert all(b <= a for a, b in zip(deltas, deltas[1:]))

    def test_alpha_one_pushes_to_deadline(self):
        spec = make_spec(1.0, (4,), 16, (0.0, 0.0), [0.5], deadline=500.0)
        res = optimize(spec)
        assert g_value(spec, res.taus_continuous) == pytest.approx(1.0, abs=1e-5)

    def test_alpha_zero_stays_at_ones(self):
        spec = make_spec(0.0, (4,), 16, (0.2, 0.1), [0.5], deadline=500.0)
        res = optimize(spec)
        assert res.taus_integer == (1, 1)

    def test_no_feasible_point(self):
        spec = make_spec(0.5, (4,), 16, (0.1, 0.1), [1.0], deadline=1e-9)
        with pytest.raises(NoFeasiblePoint):
            optimize(spec)

    def test_integer_result_feasible_and_reported_honestly(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng)
        res = optimize(spec)
        assert g_value(spec, res.taus_integer) <= 1.0
        assert res.objective_integer == pytest.approx(objective(spec, res.taus_integer), rel=1e-15)


    def test_result_fields_are_plain_python(self):
        # the first spec accepts no AGMA step, so the result keeps the start point
        specs = [
            make_spec(0.2, (4,), 16, (0.2, 0.1), [0.5], deadline=500.0),
            random_spec(np.random.default_rng(5)),
        ]
        for spec in specs:
            res = optimize(spec)
            assert all(type(v) is float for v in res.taus_continuous)
            assert all(type(v) is int for v in res.taus_integer)
            floats = [res.objective_continuous, res.objective_integer, res.slack, *res.delta_history]
            assert all(type(v) is float for v in floats)
            assert type(res.iterations) is int and type(res.newton_steps) is int
            assert type(res.converged) is bool

    def test_newton_steps_sum_over_agma_steps(self):
        spec = random_spec(np.random.default_rng(5))
        res = optimize(spec)
        taus, delta, total = (1.0,) * spec.n_layers, res.delta_history[0], 0
        for _ in range(res.iterations):
            step = agma_step(spec, taus, delta)
            total += step.newton_steps
            if step[1] < delta:
                taus, delta = step[0], step[1]
        assert res.iterations >= 1 and res.newton_steps == total > 0


class TestInnerSolverBounds:
    @pytest.mark.parametrize(
        "bound, value", [("_MAX_BACKTRACK", 0), ("_MAX_NEWTON", 1), ("_MAX_PHASES", 1)]
    )
    def test_exhausted_bound_raises(self, monkeypatch, bound, value):
        monkeypatch.setattr(gp_optimizer, bound, value)
        spec = make_spec(1.0, (4,), 16, (0.0, 0.0), [0.5], deadline=500.0)
        with pytest.raises(SubproblemFailure):
            optimize(spec)


class TestBracketConsistency:
    def test_alpha_zero_objective_is_theory_bracket(self):
        # the error part of the objective and the bound's bracket share code,
        # so at alpha = 0 the objective must equal the bracket exactly
        from hierfed.theory import error_bracket

        counts, n_tot = (32, 16, 8, 4, 2), 96
        q = (0.12, 0.08, 0.05, 0.04, 0.03, 0.02)
        spec = make_spec(0.0, counts, n_tot, q, [0.1] * 5, deadline=1e9)
        for taus in [(10, 2, 2, 2, 2, 2), (4, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)]:
            assert objective(spec, taus) == error_bracket(taus, counts, n_tot, q)


class TestBruteForce:
    def test_one_dim_monotone_cases(self):
        # alpha = 1: largest feasible tau wins; alpha = 0: tau = 1 wins
        fast = make_spec(1.0, (), 4, (0.0,), [], deadline=100.0)
        best, _ = brute_force(fast, 64)
        cap = int((100.0 - 1) // (1e7 * 4 / 2e9))  # room left by t_CP after t_DE
        assert best[0] == min(64, cap + 1) or g_value(fast, (best[0] + 1,)) > 1.0
        slow = make_spec(0.0, (), 4, (0.0,), [], deadline=100.0)
        assert brute_force(slow, 64)[0] == (1,)

    def test_deterministic_tie_break(self):
        spec = make_spec(0.0, (4,), 8, (0.0, 0.0), [0.5], deadline=1e4)
        # alpha = 0 and q = 0: raising tau_2 alone leaves some cost ties; the
        # argmin must still be the lexicographically smallest feasible point
        a = brute_force(spec, 6)
        b = brute_force(spec, 6)
        assert a == b and a[0] == (1, 1)

    def test_search_too_large(self):
        spec = make_spec(0.5, (4, 2), 8, (0.1, 0.1, 0.1), [0.5, 0.5], deadline=1e4)
        with pytest.raises(SearchTooLarge):
            brute_force(spec, 400)


class TestClosedForm:
    def quiet_spec(self, alpha, counts, n_tot, q, deadline, cycles=1e7):
        return make_spec(
            alpha, counts, n_tot, q,
            t_edge=[1e-13] * (len(q) - 1),
            deadline=deadline,
            cycles=cycles,
        )

    def test_q_zero_selects_top_layer(self):
        spec = self.quiet_spec(0.5, (8, 2), 16, (0.0, 0.0, 0.0), deadline=0.166)
        # t_CP = 1e7 * 4 / 2e9 = 0.02 -> budget 8.3
        spec.latency.model_bits = 1e-9
        taus = closed_form_computation_limited(spec)
        assert taus[:2] == (1.0, 1.0)
        assert taus[2] == pytest.approx(8.3, rel=1e-12)

    def test_large_q1_moves_selection_down(self):
        # layer-2 slot coefficient (C_1/N)(1+q_1) exceeds 1 for big q_1,
        # so the device slot (coefficient 1) wins; alpha near 1 makes the
        # deadline bind so the weighted brute force sees the same choice
        spec = self.quiet_spec(0.995, (4,), 8, (3.0, 0.0), deadline=0.166)
        spec.latency.model_bits = 1e-9
        taus = closed_form_computation_limited(spec)
        assert taus[0] == pytest.approx(8.3, rel=1e-12)
        assert taus[1] == 1.0
        best, _ = brute_force(spec, 10)
        assert best == (8, 1)

    def test_matches_brute_force_q_zero(self):
        spec = self.quiet_spec(0.9, (8, 2), 16, (0.0, 0.0, 0.0), deadline=0.166)
        spec.latency.model_bits = 1e-9
        cf = closed_form_computation_limited(spec)
        best, _ = brute_force(spec, 10)
        assert tuple(int(v) for v in cf) == best

    def test_regime_violation_on_communication(self):
        spec = make_spec(0.5, (4,), 8, (0.0, 0.0), [1.0], deadline=100.0)
        with pytest.raises(RegimeViolation):
            closed_form_computation_limited(spec)

    def test_regime_violation_on_budget(self):
        spec = self.quiet_spec(0.5, (4,), 8, (0.0, 0.0), deadline=1e-4)
        spec.latency.model_bits = 1e-9
        with pytest.raises(RegimeViolation):
            closed_form_computation_limited(spec)


class TestSpecValidation:
    def test_requires_finite_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            make_spec(0.5, (4,), 8, (0.1, 0.1), [0.5], deadline=math.inf)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            make_spec(1.5, (4,), 8, (0.1, 0.1), [0.5], deadline=10.0)
