"""Iteration-count selection under a deadline via successive geometric programming.

The objective alpha * prod(tau)^-1 + (1-alpha) * [post-convergence bracket]
is a difference of posynomials J+ - J-. With an auxiliary variable delta the
problem becomes min delta s.t. G(tau) <= 1 and J+/(J- + delta) <= 1; each
outer iteration replaces the denominator by its weighted geometric-mean
minorant (arithmetic-geometric mean approximation) at the current point and
solves the resulting standard GP.

In log variables the inner problem collapses further: at the optimum the
ratio constraint is active, so delta can be eliminated in closed form and
what remains is minimizing a convex log-sum-exp expression over
{log G <= 0, tau >= 1}. That small smooth convex program is solved with the
standard log-barrier method (Boyd & Vandenberghe, Convex Optimization, 11.3;
see _solve_inner), so no external solver is needed. t starts where the start
point is most nearly central, one relative tolerance of 1e-10 ends centering
and the phases, every trial point is evaluated once, in full, an accepted
one is not evaluated again, and a bound exceeded raises SubproblemFailure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# compute_tcp and compute_tde stay module attributes for profilers that wrap them by name
from .latency import compute_tcp, compute_tde  # noqa: F401
from .latency import LatencyParams, deadline_ok, round_coefficients, round_latency
from .theory import error_bracket


class NonPositiveTau(ValueError):
    """Iteration counts must be strictly positive."""


class NoFeasiblePoint(RuntimeError):
    """Even tau = all-ones misses the deadline."""


class InfeasibleStart(RuntimeError):
    """agma_step called from a deadline-violating point."""


class SubproblemFailure(RuntimeError):
    """The inner GP solve did not produce a usable point."""


class SearchTooLarge(ValueError):
    """Brute-force grid exceeds the safety cap."""


class ZeroRoundLatency(ValueError):
    """The round latency is zero against the deadline, which then bounds nothing."""


class RegimeViolation(ValueError):
    """Closed form requested outside the computation-limited regime."""


@dataclass
class ObjectiveSpec:
    """Inputs for the iteration-count optimization.

    alpha weighs convergence speed against post-convergence error; counts
    holds the edge-server cardinalities (C_1, ..., C_{N-1}); q holds the
    per-hop quantizer variance constants (length N).
    """

    alpha: float
    counts: tuple[int, ...]
    n_tot: int
    q: tuple[float, ...]
    latency: LatencyParams

    def __post_init__(self) -> None:
        self.counts = tuple(int(c) for c in self.counts)
        self.q = tuple(float(x) for x in self.q)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if len(self.counts) != len(self.q) - 1:
            raise ValueError("counts must have one entry fewer than q")
        if not math.isfinite(self.latency.deadline) or self.latency.deadline <= 0:
            raise ValueError("optimization needs a finite positive deadline")

    @property
    def n_layers(self) -> int:
        return len(self.q)

    @property
    def speed_weight(self) -> float:
        return self.alpha

    @property
    def error_weight(self) -> float:
        return 1.0 - self.alpha


@dataclass
class OptimizerResult:
    taus_continuous: tuple[float, ...]
    taus_integer: tuple[int, ...]
    objective_continuous: float
    objective_integer: float
    iterations: int
    converged: bool
    slack: float
    delta_history: list[float] = field(default_factory=list)
    newton_steps: int = 0  # over all inner barrier solves


def _check_taus(taus) -> np.ndarray:
    arr = np.asarray(taus, dtype=float)
    if np.any(arr <= 0):
        raise NonPositiveTau(f"taus must be positive, got {tuple(arr)}")
    return arr


def objective(spec: ObjectiveSpec, taus) -> float:
    """Weighted speed + post-convergence error objective at the given counts."""
    arr = _check_taus(taus)
    speed = spec.speed_weight / float(np.prod(arr))
    err = spec.error_weight * error_bracket(tuple(arr), spec.counts, spec.n_tot, spec.q)
    return speed + err


def _slot_weights(spec: ObjectiveSpec) -> list[float]:
    """w_k = (C_k / N_tot) prod_{m<k} (1 + q_m) for k = 0..N-1, with C_0 = N_tot:
    the post-convergence cost weight of iterating in slot k + 1."""
    weights, growth = [], 1.0
    for c, q in zip((spec.n_tot, *spec.counts), spec.q):
        weights.append(c / spec.n_tot * growth)
        growth *= 1.0 + q
    return weights


def _u_terms(spec: ObjectiveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Monomial terms u_k = (1 - alpha) w_k tau_1 ... tau_k of J- (excluding
    the constant), k = 1..N-1, as (exponent matrix, log-coefficient vector)."""
    coeffs = [spec.error_weight * w for w in _slot_weights(spec)[1:]]
    return np.tri(spec.n_layers)[:-1], np.array([math.log(c) if c > 0 else -math.inf for c in coeffs])


def _j_plus_terms(spec: ObjectiveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Posynomial J+ = alpha / prod(tau) + (1 - alpha) tau_1 + sum_k u_k tau_{k+1},
    as (exponent matrix, log-coefficient vector)."""
    n = spec.n_layers
    exps, logc = [], []
    if spec.speed_weight > 0.0:
        exps.append([-1.0] * n)
        logc.append(math.log(spec.speed_weight))
    if spec.error_weight > 0.0:
        u_exps, u_logc = _u_terms(spec)
        # (1 - alpha) tau_1, then each u_k's exponents plus one on tau_{k+1}
        exps += [[1.0] + [0.0] * (n - 1), *(u_exps + np.eye(n)[1:]).tolist()]
        logc += [math.log(spec.error_weight), *u_logc]
    return np.array(exps), np.array(logc)


def _g_terms(spec: ObjectiveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deadline posynomial G = (T / T_d) * round latency, as (exps, log coeffs):
    term j is (T / T_d) c_j prod(tau[j:]) for the latency coefficients c_j.
    Only the barrier reads this log-space form; g_value decides feasibility."""
    lat = spec.latency
    n = spec.n_layers
    scale = lat.rounds / lat.deadline
    coeffs = round_coefficients(lat, n)
    exps = [[0.0] * j + [1.0] * (n - j) for j in range(len(coeffs))]
    return np.array(exps), np.array([math.log(scale * c) if c > 0 else -math.inf for c in coeffs])


def g_value(spec: ObjectiveSpec, taus) -> float:
    """Deadline value G = round latency / (T_d / T), with the latency and the
    per-round budget written as deadline_ok writes them. Division is
    correctly rounded, so G <= 1 holds exactly when deadline_ok's slack is
    >= 0, for every input (taus are read as floats, which hold the products
    of any integer schedule exactly up to 2^53)."""
    lat = spec.latency
    return round_latency(lat, _check_taus(taus).tolist()) / (lat.deadline / lat.rounds)


def _lse(exps: np.ndarray, logc: np.ndarray, y: np.ndarray):
    """log-sum-exp value, gradient, Hessian of a posynomial in log variables,
    the one evaluator of the term tables: _solve_inner returns the objective's
    value at its point, and agma_step reads it from there.

    Shifts, exponentiates and normalizes in place, and reduces with the
    ufuncs that ndarray.max and .sum call: the same arithmetic as the
    out-of-place form, with fewer temporaries and calls."""
    z = exps @ y
    z += logc
    m = float(np.maximum.reduce(z))
    z -= m
    np.exp(z, out=z)
    total = float(np.add.reduce(z))
    value = m + math.log(total)
    z /= total
    pi = z
    grad = exps.T @ pi
    hess = exps.T @ (pi[:, None] * exps) - grad[:, None] * grad[None, :]
    return value, grad, hess


# Barrier-method settings of _solve_inner (Boyd & Vandenberghe, Convex
# Optimization, 11.3): one relative tolerance, for centering and for the
# duality gap alike.
_EPS = 1e-10
_T_GROWTH = 20.0
_MAX_PHASES = 40
_MAX_NEWTON = 100  # per centering phase
_FULL_STEP = 1e-3  # lambda^2/2 below which the Newton step is taken whole
_ARMIJO = 0.01
_MAX_BACKTRACK = 60
_TOLERANCE = 1e-8  # optimize stops once delta moves by less than this, relative,
_MAX_ITERS = 200  # or after this many AGMA steps
_COMM_TOL = 1e-6  # closed form: communication is negligible below this fraction of t_CP


def _newton_solve(t: float, hr, c: float, gc, hc, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with H x = rhs for the Hessian H = A + u u^T of t f + phi (t = 0: of
    phi alone, which sets t0), A = t hr - hc/c + diag(1/y^2) positive
    definite and u = gc/c. LAPACK solves H; where it finds H singular, as at
    alpha = 1 near the deadline (hr = 0, and u u^T swamps the diagonal),
    Sherman-Morrison solves it from A (Boyd & Vandenberghe, Convex
    Optimization, C.4.3)."""
    stride = len(y) + 1  # along the diagonal of the flattened matrix
    a = t * hr - hc / c
    hess = a + gc[:, None] * gc[None, :] / c**2
    hess.ravel()[::stride] += 1.0 / y**2
    try:
        return np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError:
        pass
    a.ravel()[::stride] += 1.0 / y**2
    u = gc / c
    try:
        a_rhs, a_u = np.linalg.solve(a, np.column_stack((rhs, u))).T
    except np.linalg.LinAlgError as exc:
        raise SubproblemFailure("singular Newton system") from exc
    return a_rhs - a_u * float(u @ a_rhs) / (1.0 + float(u @ a_u))


def _solve_inner(
    obj_exps: np.ndarray,
    obj_logc: np.ndarray,
    lin: np.ndarray,
    g_exps: np.ndarray,
    g_logc: np.ndarray,
    y0: np.ndarray,
) -> tuple[np.ndarray, float, int]:
    """Minimize f(y) = LSE(obj)(y) - lin . y  s.t.  LSE(g)(y) <= 0 and y >= 0.

    Barrier method: for t = t0, 20 t0, 400 t0, ... center t f(y) + phi(y),
    phi(y) = -log(-LSE(g)(y)) - sum log y, with Newton steps until
    lambda^2/2 <= _EPS max(1, |t f + phi|), where lambda^2 = -grad . step is
    the Newton decrement; stop once the duality gap m/t of the m = n + 1
    constraints is at most _EPS max(1, |f|). Both tests are relative, so
    neither asks for more digits than the barrier value holds at large t.
    t0 = -<grad f, H^-1 grad phi> / <grad f, H^-1 grad f>, H = hess phi(y0),
    makes y0 most nearly central (Boyd & Vandenberghe 11.3.1); it is 1 if
    that is smaller or the denominator is not finite and positive. The line
    search halves the step until the trial point is strictly feasible and,
    while lambda^2/2 > _FULL_STEP, until it also passes the Armijo test;
    closer to the center, where the decrease drops below the roundoff of the
    barrier value, the whole step is taken. Every trial point is evaluated
    once, in full (LSE value, gradient and Hessian): the deadline table at
    each positive one, the objective table where that is feasible, and the
    solver keeps the accepted point's results, so y0 and each accepted point
    are evaluated once for all phases. The t0 system and every Newton system
    go through _newton_solve, which falls back to Sherman-Morrison where
    LAPACK finds the matrix singular. y0 must be strictly feasible. Returns
    the optimal y, f(y) as the solver already holds it, and the Newton step
    count; raises SubproblemFailure rather than return an unconverged point.
    """
    m = len(y0) + 1
    y = y0.copy()
    f, gr, hr = _lse(obj_exps, obj_logc, y)
    f -= float(lin @ y)
    c, gc, hc = _lse(g_exps, g_logc, y)
    h_grad_f = _newton_solve(0.0, hr, c, gc, hc, y, gr - lin)
    den = float((gr - lin) @ h_grad_f)
    t = max(float((gc / c + 1.0 / y) @ h_grad_f) / den, 1.0) if 0.0 < den < math.inf else 1.0
    steps = 0
    for _ in range(_MAX_PHASES):
        for _ in range(_MAX_NEWTON):
            grad = t * (gr - lin) - gc / c - 1.0 / y
            step = _newton_solve(t, hr, c, gc, hc, y, -grad)
            lam2 = float(-grad @ step)
            value = t * f - math.log(-c) - float(np.log(y).sum())
            if lam2 / 2 <= _EPS * max(1.0, abs(value)):
                break
            damped = lam2 / 2 > _FULL_STEP
            alpha = 1.0
            for _ in range(_MAX_BACKTRACK):
                cand = y + alpha * step
                if (cand > 0.0).all():
                    c_cand, gc_cand, hc_cand = _lse(g_exps, g_logc, cand)
                    if c_cand < 0.0:
                        f_cand, gr_cand, hr_cand = _lse(obj_exps, obj_logc, cand)
                        f_cand -= float(lin @ cand)
                        if not damped or (
                            t * f_cand - math.log(-c_cand) - float(np.log(cand).sum())
                            <= value - _ARMIJO * alpha * lam2
                        ):
                            break
                alpha *= 0.5
            else:
                raise SubproblemFailure(f"line search stalled at t = {t:.3g}")
            y, f, gr, hr, c, gc, hc = cand, f_cand, gr_cand, hr_cand, c_cand, gc_cand, hc_cand
            steps += 1
        else:
            raise SubproblemFailure(f"centering took over {_MAX_NEWTON} Newton steps at t = {t:.3g}")
        if m / t <= _EPS * max(1.0, abs(f)):
            return y, f, steps
        t *= _T_GROWTH
    raise SubproblemFailure(f"duality gap above tolerance after {_MAX_PHASES} barrier phases")


def _strictly_feasible_start(spec: ObjectiveSpec, taus: np.ndarray) -> np.ndarray:
    y = np.log(np.maximum(taus, 1.0 + 1e-9))
    for _ in range(80):
        if g_value(spec, np.exp(y)) < 1.0 - 1e-12:
            return y
        y *= 0.5
        y = np.maximum(y, 1e-12)
        if np.all(y <= 1e-12):
            break
    if g_value(spec, np.exp(y)) < 1.0:
        return y
    raise InfeasibleStart("no strictly feasible point near the given taus")


class AgmaStep(NamedTuple):
    """agma_step's new point, its delta, the geometric-mean weights it used,
    and the inner solve's Newton step count."""

    taus: tuple[float, ...]
    delta: float
    betas: tuple[float, ...]
    newton_steps: int


def agma_step(spec: ObjectiveSpec, taus, delta: float) -> AgmaStep:
    """One outer iteration: refresh the geometric-mean weights at the current
    point, solve the resulting standard GP, and return the new point as an
    AgmaStep.

    The weights are beta_0 = (err_weight + delta) / (J- + delta) for the
    constant+delta group and beta_k = u_k(tau) / (J- + delta) for each
    monomial of J-; they sum to one by construction. With the ratio
    constraint active, delta = (J+ * beta_0^beta_0 * prod (beta_k/u_k)^beta_k)
    ^(1/beta_0) - err_weight, leaving a convex minimization over tau only.
    The solve's point takes its delta from the value _solve_inner returns
    with it; only the incoming point's objective is evaluated here.
    """
    arr = _check_taus(taus)
    if g_value(spec, arr) > 1.0 + 1e-9:
        raise InfeasibleStart(f"G(taus) = {g_value(spec, arr):.6g} > 1")
    u_exps, u_logc = _u_terms(spec)
    y_cur = np.log(arr)
    u_vals = np.exp(u_exps @ y_cur + u_logc)
    denom = spec.error_weight + float(np.sum(u_vals)) + delta  # J- + delta
    beta0 = (spec.error_weight + delta) / denom
    betas = u_vals / denom

    # constants of R(y) = log J+(e^y) + beta0 log beta0 + sum beta_k (log beta_k - log u_k)
    const = beta0 * math.log(beta0) if beta0 > 0 else 0.0
    lin = np.zeros(spec.n_layers)
    for k, b in enumerate(betas):
        if b > 0.0:
            const += b * (math.log(b) - u_logc[k])
            lin += b * u_exps[k]

    obj_exps, obj_logc = _j_plus_terms(spec)
    g_exps, g_logc = _g_terms(spec)
    start = _strictly_feasible_start(spec, arr)
    y_new, f_new, newton_steps = _solve_inner(obj_exps, obj_logc, lin, g_exps, g_logc, start)
    # the incoming point is subproblem-feasible too (geometric-mean weights
    # match there, so its delta equals the current one); keep the smaller
    # delta, not the smaller f, which exp may round to the same delta; a tie
    # keeps y_new
    f_cur = _lse(obj_exps, obj_logc, y_cur)[0] - float(lin @ y_cur)
    candidates = [(math.exp((f + const) / beta0) - spec.error_weight, y) for f, y in ((f_new, y_new), (f_cur, y_cur))]
    new_delta, y_best = min(candidates, key=lambda c: c[0])
    new_taus = tuple(float(v) for v in np.exp(y_best))
    return AgmaStep(new_taus, new_delta, (beta0, *betas.tolist()), newton_steps)


def _round_with_repair(spec: ObjectiveSpec, taus: tuple[float, ...]) -> tuple[int, ...]:
    """Floor to integers, then greedily raise whichever coordinate improves the
    objective most while the deadline still holds."""
    current = [max(1, math.floor(v)) for v in taus]
    while True:
        best_gain, best_idx = 0.0, None
        base = objective(spec, current)
        for idx in range(len(current)):
            cand = list(current)
            cand[idx] += 1
            if g_value(spec, cand) > 1.0:
                continue
            gain = base - objective(spec, cand)
            if gain > best_gain + 1e-15:
                best_gain, best_idx = gain, idx
        if best_idx is None:
            return tuple(current)
        current[best_idx] += 1


def optimize(spec: ObjectiveSpec) -> OptimizerResult:
    """Run the successive-GP loop from tau = all-ones until the delta sequence
    stabilizes, then round to a deadline-feasible integer schedule."""
    n = spec.n_layers
    ones = np.ones(n)
    g_ones = g_value(spec, ones)
    if g_ones == 0.0:  # G is then 0 at every tau, and log G is -inf
        raise ZeroRoundLatency("the round latency is zero against the deadline, so the deadline bounds nothing")
    if g_ones > 1.0:
        raise NoFeasiblePoint(f"even tau = 1 misses the deadline (G = {g_ones:.6g})")
    taus: tuple[float, ...] = (1.0,) * n
    # J+(1) - J-(1), as each monomial is its coefficient at tau = 1
    j_plus, u_sum = (float(np.exp(logc).sum()) for _, logc in (_j_plus_terms(spec), _u_terms(spec)))
    delta = max(j_plus - (spec.error_weight + u_sum), _TOLERANCE)
    history = [delta]
    converged = False
    iterations = newton_steps = 0
    if g_ones < 1.0 - 1e-12:
        for iterations in range(1, _MAX_ITERS + 1):
            step = agma_step(spec, taus, delta)
            newton_steps += step.newton_steps
            if step.delta < delta:  # accept improvements only, so the sequence
                taus, delta = step.taus, step.delta  # is non-increasing by construction
            history.append(delta)
            if abs(history[-1] - history[-2]) < _TOLERANCE * max(1.0, abs(history[-2])):
                converged = True
                break
    else:
        converged = True  # deadline leaves no room beyond all-ones

    taus_int = _round_with_repair(spec, taus)
    ok, slack = deadline_ok(spec.latency, taus_int)
    if not ok:
        raise SubproblemFailure("rounded schedule misses the deadline")
    return OptimizerResult(
        taus_continuous=taus,
        taus_integer=taus_int,
        objective_continuous=objective(spec, taus),
        objective_integer=objective(spec, taus_int),
        iterations=iterations,
        converged=converged,
        slack=float(slack),
        delta_history=history,
        newton_steps=newton_steps,
    )


def brute_force(spec: ObjectiveSpec, tau_max: int) -> tuple[tuple[int, ...], float]:
    """Exhaustive deadline-feasible minimum over {1..tau_max}^N.

    Ties keep the lexicographically smallest schedule. Independent of the
    AGMA path, down to its own transcription of the bracket; used as its
    oracle. The grid is filtered by round_latency against T_d / T, the test
    g_value and deadline_ok make, not by the barrier's log-space posynomial.
    """
    n = spec.n_layers
    if tau_max < 1:
        raise ValueError(f"tau_max must be at least 1, got {tau_max}")
    if tau_max**n > 10_000_000:
        raise SearchTooLarge(f"grid of {tau_max**n} points exceeds the cap")
    grid = np.array(list(itertools.product(range(1, tau_max + 1), repeat=n)), dtype=float)
    lat = spec.latency
    feasible = round_latency(lat, grid.T) <= lat.deadline / lat.rounds
    if not np.any(feasible):
        raise NoFeasiblePoint("no grid point satisfies the deadline")
    values = np.full(len(grid), math.inf)
    speed = spec.speed_weight / np.prod(grid, axis=1)
    bracket = grid[:, 0] - 1.0
    cum, growth = np.ones(len(grid)), 1.0
    for k in range(n - 1):
        cum *= grid[:, k]
        growth *= 1.0 + spec.q[k]
        bracket += spec.counts[k] / spec.n_tot * (grid[:, k + 1] - 1.0) * growth * cum
    values[feasible] = (speed + spec.error_weight * bracket)[feasible]
    idx = int(np.argmin(values))  # first minimum = lexicographically smallest
    best = tuple(int(v) for v in grid[idx])
    return best, objective(spec, best)


def closed_form_computation_limited(spec: ObjectiveSpec) -> tuple[float, ...]:
    """Closed-form schedule when communication times are negligible.

    All iterations go to the slot whose post-convergence cost weight
    (_slot_weights) is smallest; ties pick the highest slot. Without
    quantization that is always the top layer. The selected slot gets
    T_d / (T * t_CP), everything else 1.
    """
    lat = spec.latency
    t_cp, *comm = round_coefficients(lat, spec.n_layers)
    if t_cp <= 0 or max(comm) > _COMM_TOL * t_cp:
        raise RegimeViolation("communication times are not negligible vs t_CP")
    budget = lat.deadline / lat.rounds / t_cp
    if budget < 1.0:
        raise RegimeViolation(f"deadline allows only {budget:.3g} < 1 iterations")
    weights = _slot_weights(spec)
    taus = [1.0] * spec.n_layers
    taus[min(reversed(range(spec.n_layers)), key=weights.__getitem__)] = budget  # first minimum from the top
    return tuple(taus)
