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
    objective,
    optimize,
)
from hierfed.latency import LatencyParams, round_latency


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


def posynomial(terms, taus):
    """Exp-sum of a (exponent matrix, log-coefficient vector) table at taus."""
    exps, logc = terms
    return float(np.sum(np.exp(exps @ np.log(taus) + logc)))


def j_plus(spec, taus):
    return posynomial(gp_optimizer._j_plus_terms(spec), taus)


def j_minus(spec, taus):
    return spec.error_weight + posynomial(gp_optimizer._u_terms(spec), taus)


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
            betas = agma_step(spec, taus, delta).betas
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
            new_delta = agma_step(spec, taus, delta).delta
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

    def test_near_miss_deadline_is_infeasible(self):
        # deadlines a few ulps below the all-ones latency leave G(1) within
        # roundoff of 1; the all-ones schedule still misses them
        rng = np.random.default_rng(8)
        for _ in range(20):
            spec = random_spec(rng)
            lat = spec.latency
            ones = round_latency(lat, (1,) * spec.n_layers)
            lat.deadline = ones * lat.rounds * (1 - 1e-15)
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
            if step.delta < delta:
                taus, delta = step.taus, step.delta
        assert res.iterations >= 1 and res.newton_steps == total > 0


def tight_spec(rng):
    """A spec whose deadline leaves room x the all-ones round time, q = 0."""
    n = int(rng.integers(2, 5))
    counts = tuple(int(c) for c in sorted(rng.integers(2, 40, n - 1))[::-1])
    cycles = float(10 ** rng.uniform(6, 8))
    t_edge = [float(v) for v in rng.uniform(0.1, 1.0, n - 1)]
    room = float(rng.choice((1.003, 1.03, 1.3, 3.0, 30.0)))
    alpha = float(rng.choice((0.1, 0.5, 0.9, 1.0)))
    n_tot = counts[0] * int(rng.integers(2, 5))
    spec = make_spec(alpha, counts, n_tot, (0.0,) * n, t_edge, deadline=1.0, cycles=cycles)
    spec.latency.deadline = room * round_latency(spec.latency, (1,) * n)
    return spec


class TestTightDeadlines:
    # the duality-gap test is relative, so at large t an absolute centering
    # stop asked for more digits than the barrier value holds, and these
    # raised SubproblemFailure (27 of the 80, all with room 1.003 or 1.03)
    def test_seeded_tight_deadlines(self):
        rng = np.random.default_rng(2026)
        for trial in range(80):
            spec = tight_spec(rng)
            res = optimize(spec)
            assert res.slack >= 0.0, trial
            assert g_value(spec, res.taus_integer) <= 1.0, trial

    def test_singular_newton_system_instance(self):
        # raised "singular Newton system"; brute force finds (1, 3, 1), 5.9%
        # better, which this local method does not reach from all-ones
        spec = make_spec(
            0.6552228908712859, (7, 7), 28, (0.0, 0.0, 0.0),
            [0.1035592747615156, 0.029662217811425876], deadline=0.37024226288078044,
            cycles=2307219.5760828475,
        )
        res = optimize(spec)
        assert res.taus_integer == (1, 1, 2)
        assert res.slack >= 0.0 and g_value(spec, res.taus_integer) <= 1.0

    def test_alpha_one_instance(self):
        # at alpha = 1 the inner objective is linear; centering at large t stalled
        spec = make_spec(
            1.0, (32, 20), 64, (0.0, 0.0, 0.0), [2.5246, 2.7870], deadline=10.8359,
            rounds=2, cycles=35518323.6,
        )
        res = optimize(spec)
        assert res.taus_integer == (1, 1, 1) == brute_force(spec, 8)[0]
        assert res.slack >= 0.0


    @pytest.mark.xfail(
        raises=SubproblemFailure,
        strict=True,
        reason="an iterate within roundoff of the deadline makes -log(-LSE(g)) noise; centering stalls",
    )
    def test_deadline_roundoff_stall_instance(self):
        # raises "centering took over 100 Newton steps at t = 2.1e+09": LSE(g)
        # reaches -1e-16 and half the squared Newton decrement stays near 1-3
        spec = make_spec(
            0.5067493909279576, (17, 12), 51, (0, 0, 0), [2.509188909370536, 0.9591139947270726],
            16.910132904544742, rounds=3, cycles=3229619.3188547036,
        )
        res = optimize(spec)
        assert res.slack >= 0.0 and g_value(spec, res.taus_integer) <= 1.0

    @pytest.mark.xfail(
        raises=SubproblemFailure,
        strict=True,
        reason="trial points land one ulp outside the deadline, so -log(-LSE(g)) is noise; centering stalls",
    )
    def test_deadline_roundoff_stall_draw_460(self):
        # draw 460 of tight_spec(np.random.default_rng(2026)), 1 of 600 draws:
        # "centering took over 100 Newton steps at t = 1.07e+10"
        spec = make_spec(
            0.9, (22, 18), 44, (0.0, 0.0, 0.0), [0.729141386231129, 0.57436588366197],
            deadline=3.979906824036173, cycles=2749597.340035251,
        )
        res = optimize(spec)
        assert res.slack >= 0.0 and g_value(spec, res.taus_integer) <= 1.0

    def test_alpha_one_singular_newton_instance(self):
        # the optimize inputs of tests/test_cli.py's quad_config at alpha 1. J+
        # is one monomial whose log-sum-exp Hessian is 0, so near the deadline
        # the Newton matrix is gc gc^T / c^2 (entries about 7.7e15) plus
        # diag(1/y^2) (about 0.03, below half an ulp of 7.7e15): rank one, and
        # LAPACK meets a zero pivot, in the t0 solve and in centering. Both
        # fall back to Sherman-Morrison, at every deadline from 1e4 to 1e9.
        from hierfed.cli import _setup

        cfg = {
            "seed": 7,
            "topology": {"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2, 2]},
            "task": {"kind": "quadratic", "dimension": 2, "samples_per_device": 6, "batch_size": 3},
            "schedule": {"rounds": 8},
            "alpha": 1.0,
            "latency": {"deadline": 1e9},
        }
        for deadline in (1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
            cfg["latency"]["deadline"] = deadline
            spec = _setup(cfg, "optimize").objective()
            res = optimize(spec)
            assert res.slack >= 0.0 and g_value(spec, res.taus_integer) <= 1.0, deadline


class TestInnerSolverBounds:
    @pytest.mark.parametrize(
        "bound, value", [("_MAX_BACKTRACK", 0), ("_MAX_NEWTON", 1), ("_MAX_PHASES", 1)]
    )
    def test_exhausted_bound_raises(self, monkeypatch, bound, value):
        monkeypatch.setattr(gp_optimizer, bound, value)
        spec = make_spec(1.0, (4,), 16, (0.0, 0.0), [0.5], deadline=500.0)
        with pytest.raises(SubproblemFailure):
            optimize(spec)

    def test_each_point_evaluated_once(self, monkeypatch):
        # within one inner solve: no LSE of a (term table, point) pair runs
        # twice, and both tables are evaluated at the start point and at every
        # accepted point; outside it, each AGMA step evaluates the objective
        # table once, at its incoming point, and no other table or point
        lse, solve_inner, agma_step = gp_optimizer._lse, gp_optimizer._solve_inner, gp_optimizer.agma_step
        solves, steps = [], []

        class Point(np.ndarray):
            # the solver squares its current point once per Newton iteration:
            # at the start point and at each point the line search accepted
            def __pow__(self, other):
                solves[-1]["newton"].add(self.tobytes())
                return np.asarray(self) ** other

        def counted(exps, logc, y):
            # filed under the running solve, else under the running AGMA step
            record = solves[-1] if solves and "steps" not in solves[-1] else steps[-1]
            record["lse"].append((exps, np.asarray(y).tobytes()))
            return lse(exps, logc, y)

        def recorded(*args):
            solves.append({"args": args, "lse": [], "newton": set()})
            y, f, n_steps = solve_inner(*args[:-1], args[-1].view(Point))
            solves[-1]["steps"] = n_steps
            return np.asarray(y), f, n_steps

        def table(exps, args):
            return "objective" if exps is args[0] else "deadline" if exps is args[3] else None

        def stepped(spec, taus, delta):
            steps.append({"y": np.log(np.asarray(taus, dtype=float)).tobytes(), "lse": []})
            return agma_step(spec, taus, delta)

        monkeypatch.setattr(gp_optimizer, "_lse", counted)
        monkeypatch.setattr(gp_optimizer, "_solve_inner", recorded)
        monkeypatch.setattr(gp_optimizer, "agma_step", stepped)
        rng = np.random.default_rng(11)
        for _ in range(4):
            optimize(random_spec(rng))
        assert len(solves) == len(steps) >= 4
        for solve, step in zip(solves, steps):
            args = solve["args"]
            calls = [(table(exps, args), y) for exps, y in solve["lse"]]
            assert None not in {name for name, _ in calls}
            assert len(set(calls)) == len(calls)
            both = {y for name, y in calls if name == "objective"} & {y for name, y in calls if name == "deadline"}
            assert args[-1].tobytes() in solve["newton"]
            assert len(solve["newton"]) == solve["steps"] + 1
            assert solve["newton"] <= both
            assert [(table(exps, args), y) for exps, y in step["lse"]] == [("objective", step["y"])]

    def test_returned_value_is_the_objective_at_the_returned_point(self, monkeypatch):
        # _solve_inner's f is LSE(obj)(y) - lin . y at its y, to the bit
        solve_inner, solves = gp_optimizer._solve_inner, []

        def recorded(*args):
            out = solve_inner(*args)
            solves.append((args, out))
            return out

        monkeypatch.setattr(gp_optimizer, "_solve_inner", recorded)
        rng = np.random.default_rng(37)
        for _ in range(8):
            optimize(random_spec(rng))
        assert len(solves) >= 8
        for (obj_exps, obj_logc, lin, *_), (y, f, _) in solves:
            assert f.hex() == (gp_optimizer._lse(obj_exps, obj_logc, y)[0] - float(lin @ y)).hex()


def reference_lse(exps: np.ndarray, logc: np.ndarray, y: np.ndarray):
    """The out-of-place log-sum-exp value, gradient and Hessian that _lse's
    in-place arithmetic must reproduce bit for bit."""
    z = exps @ y + logc
    m = float(z.max())
    w = np.exp(z - m)
    total = float(w.sum())
    value = m + math.log(total)
    pi = w / total
    grad = exps.T @ pi
    hess = exps.T @ (pi[:, None] * exps) - grad[:, None] * grad[None, :]
    return value, grad, hess


class TestLse:
    def tables(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            k, n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            exps = rng.integers(-1, 2, size=(k, n)).astype(float)
            logc = rng.normal(0.0, 30.0, size=k)
            logc[rng.random(k) < 0.3] = -math.inf  # zero weights, as _u_terms and _g_terms emit
            logc[rng.integers(k)] = rng.normal()  # one finite term at least
            yield exps, logc, rng.uniform(0.0, 12.0, size=n)
        rng = np.random.default_rng(29)
        for _ in range(50):
            spec = random_spec(rng)
            y = rng.uniform(0.0, 6.0, size=spec.n_layers)
            for terms in (gp_optimizer._j_plus_terms(spec), gp_optimizer._g_terms(spec)):
                yield *terms, y
        spec = make_spec(0.6, (4,), 8, (0.1, 0.2), [0.0], deadline=100.0)  # t_edge 0: a -inf term
        yield *gp_optimizer._g_terms(spec), np.array([0.3, 1.7])

    def test_bit_equal_to_reference(self):
        n_inf = 0
        for exps, logc, y in self.tables():
            n_inf += int(np.isinf(logc).any())
            value, grad, hess = gp_optimizer._lse(exps, logc, y)
            ref_value, ref_grad, ref_hess = reference_lse(exps, logc, y)
            assert math.isfinite(value) and value.hex() == ref_value.hex()
            assert grad.tobytes() == ref_grad.tobytes() and hess.tobytes() == ref_hess.tobytes()
        assert n_inf >= 50

    def test_leaves_its_inputs(self):
        rng = np.random.default_rng(31)
        exps, logc, y = rng.normal(size=(5, 3)), rng.normal(size=5), rng.normal(size=3)
        copies = exps.copy(), logc.copy(), y.copy()
        gp_optimizer._lse(exps, logc, y)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((exps, logc, y), copies))


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

    @pytest.mark.parametrize("tau_max", [0, -3])
    def test_tau_max_below_one(self, tau_max):
        spec = make_spec(0.5, (4,), 8, (0.1, 0.1), [0.5], deadline=1e4)
        with pytest.raises(ValueError, match="tau_max must be at least 1"):
            brute_force(spec, tau_max)

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
