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
standard log-barrier method (Boyd & Vandenberghe, Convex Optimization, 11.3),
so no external solver is needed: the barrier parameter t starts where the
start point is most nearly central (11.3.1), clamped to [1, twice the t whose
duality gap meets the tolerance there]; each centering stops when half the
squared Newton decrement is at most 1e-10, t grows 20x per phase until the
duality gap m/t is at most 1e-10 max(1, |f|), and the line search backtracks
on values only, first to stay strictly feasible and then, away from the
center, for Armijo decrease. A phase or line search that exceeds its bound
raises SubproblemFailure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Schedule
from .latency import LatencyParams, compute_tcp, compute_tde, deadline_ok
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


def _prefix_growth(spec: ObjectiveSpec, upto: int) -> float:
    return math.prod(1.0 + spec.q[m] for m in range(upto))


def _j_plus_terms(spec: ObjectiveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Posynomial J+ as (exponent matrix, log-coefficient vector)."""
    n = spec.n_layers
    exps, logc = [], []
    if spec.speed_weight > 0.0:
        exps.append([-1.0] * n)
        logc.append(math.log(spec.speed_weight))
    if spec.error_weight > 0.0:
        e1 = [0.0] * n
        e1[0] = 1.0
        exps.append(e1)
        logc.append(math.log(spec.error_weight))
        for k in range(1, n):
            coeff = spec.error_weight * spec.counts[k - 1] / spec.n_tot * _prefix_growth(spec, k)
            e = [1.0 if m <= k else 0.0 for m in range(n)]
            exps.append(e)
            logc.append(math.log(coeff))
    return np.array(exps), np.array(logc)


def _u_terms(spec: ObjectiveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Monomial terms u_k of J- (excluding the constant), k = 1..N-1."""
    n = spec.n_layers
    exps, logc = [], []
    for k in range(1, n):
        coeff = spec.error_weight * spec.counts[k - 1] / spec.n_tot * _prefix_growth(spec, k)
        e = [1.0 if m < k else 0.0 for m in range(n)]
        exps.append(e)
        logc.append(math.log(coeff) if coeff > 0 else -math.inf)
    if not exps:
        return np.zeros((0, n)), np.zeros(0)
    return np.array(exps), np.array(logc)


def j_minus(spec: ObjectiveSpec, taus) -> float:
    arr = _check_taus(taus)
    total = spec.error_weight
    for k in range(1, spec.n_layers):
        total += (
            spec.error_weight
            * spec.counts[k - 1]
            / spec.n_tot
            * _prefix_growth(spec, k)
            * float(np.prod(arr[:k]))
        )
    return total


def j_plus(spec: ObjectiveSpec, taus) -> float:
    exps, logc = _j_plus_terms(spec)
    y = np.log(_check_taus(taus))
    return float(np.sum(np.exp(exps @ y + logc)))


def _g_terms(spec: ObjectiveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deadline posynomial G = (T / T_d) * round latency, as (exps, log coeffs)."""
    lat = spec.latency
    n = spec.n_layers
    scale = lat.rounds / lat.deadline
    t_cp, t_de = compute_tcp(lat), compute_tde(lat)
    exps = [[1.0] * n]
    logc = [math.log(scale * t_cp)]
    if n == 1:
        exps.append([0.0])
        logc.append(math.log(scale * t_de))
    else:
        if len(lat.t_edge) != n - 1:
            raise ValueError(f"need {n - 1} inter-edge times, got {len(lat.t_edge)}")
        exps.append([0.0] + [1.0] * (n - 1))
        logc.append(math.log(scale * t_de))
        for layer in range(2, n):
            exps.append([1.0 if m >= layer else 0.0 for m in range(n)])
            logc.append(math.log(scale * lat.t_edge[layer - 2]))
        exps.append([0.0] * n)
        logc.append(math.log(scale * lat.t_edge[n - 2]))
    return np.array(exps), np.array(logc)


def g_value(spec: ObjectiveSpec, taus) -> float:
    exps, logc = _g_terms(spec)
    y = np.log(_check_taus(taus))
    return float(np.sum(np.exp(exps @ y + logc)))


def _lse(exps: np.ndarray, logc: np.ndarray, y: np.ndarray):
    """log-sum-exp value, gradient, Hessian of a posynomial in log variables."""
    z = exps @ y + logc
    m = float(np.max(z))
    w = np.exp(z - m)
    total = float(np.sum(w))
    value = m + math.log(total)
    pi = w / total
    grad = exps.T @ pi
    hess = exps.T @ (pi[:, None] * exps) - np.outer(grad, grad)
    return value, grad, hess


def _lse_value(exps: np.ndarray, logc: np.ndarray, y: np.ndarray) -> float:
    """log-sum-exp value alone, for line-search trial points."""
    z = exps @ y + logc
    m = float(np.max(z))
    return m + math.log(float(np.sum(np.exp(z - m))))


# Barrier-method settings of _solve_inner (Boyd & Vandenberghe, Convex
# Optimization, 11.3): one tolerance for centering and for the duality gap.
_EPS = 1e-10
_T_GROWTH = 20.0
_MAX_PHASES = 40
_MAX_NEWTON = 100  # per centering phase
_FULL_STEP = 1e-3  # lambda^2/2 below which the Newton step is taken whole
_ARMIJO = 0.01
_MAX_BACKTRACK = 60


def _solve_inner(
    obj_exps: np.ndarray,
    obj_logc: np.ndarray,
    lin: np.ndarray,
    g_exps: np.ndarray,
    g_logc: np.ndarray,
    y0: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Minimize f(y) = LSE(obj)(y) - lin . y  s.t.  LSE(g)(y) <= 0 and y >= 0.

    Barrier method: for t = t0, 20 t0, 400 t0, ... center t f(y) + phi(y),
    phi(y) = -log(-LSE(g)(y)) - sum log y, with Newton steps until
    lambda^2/2 <= _EPS, where lambda^2 = -grad . step is the Newton
    decrement; stop once the duality gap m/t of the m = n + 1 constraints is
    at most _EPS max(1, |f|). t0 = -<grad f, H^-1 grad phi> / <grad f, H^-1
    grad f>, H = hess phi(y0), makes y0 most nearly central (Boyd &
    Vandenberghe 11.3.1); it is 1 if the denominator is not finite and
    positive, and clamped to [1, 2m / (_EPS max(1, |f(y0)|))], where the
    gap test passes even if f loses half its size while centering (at the
    bare threshold a start at the optimum of a problem with f < 0 fails it
    by roundoff and goes on to a 20x larger t). The line search
    evaluates values only: it halves the step until the trial point is
    strictly feasible and, while lambda^2/2 > _FULL_STEP, until it also
    passes the Armijo test; closer to the center, where the decrease drops
    below the roundoff of the barrier value, the whole step is taken. y0
    must be strictly feasible. Returns the optimal y and the number of
    Newton steps taken; raises SubproblemFailure instead of returning an
    unconverged point.
    """
    m = len(y0) + 1
    y = y0.copy()

    def barrier_value(yv: np.ndarray, t: float, c: float) -> float:
        f = _lse_value(obj_exps, obj_logc, yv) - float(lin @ yv)
        return t * f - math.log(-c) - float(np.sum(np.log(yv)))

    r, gr, _ = _lse(obj_exps, obj_logc, y)
    c, gc, hc = _lse(g_exps, g_logc, y)
    h_grad_f = np.linalg.solve(-hc / c + np.outer(gc, gc) / c**2 + np.diag(1.0 / y**2), gr - lin)
    den = float((gr - lin) @ h_grad_f)
    t_max = 2.0 * m / (_EPS * max(1.0, abs(r - float(lin @ y))))
    t = min(max(float((gc / c + 1.0 / y) @ h_grad_f) / den, 1.0), t_max) if 0.0 < den < math.inf else 1.0
    steps = 0
    for _ in range(_MAX_PHASES):
        for _ in range(_MAX_NEWTON):
            r, gr, hr = _lse(obj_exps, obj_logc, y)
            c, gc, hc = _lse(g_exps, g_logc, y)
            f = r - float(lin @ y)
            grad = t * (gr - lin) - gc / c - 1.0 / y
            hess = t * hr - hc / c + np.outer(gc, gc) / c**2 + np.diag(1.0 / y**2)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError as exc:
                raise SubproblemFailure("singular Newton system") from exc
            lam2 = float(-grad @ step)
            if lam2 / 2 <= _EPS:
                break
            damped = lam2 / 2 > _FULL_STEP
            value = t * f - math.log(-c) - float(np.sum(np.log(y)))
            alpha = 1.0
            for _ in range(_MAX_BACKTRACK):
                cand = y + alpha * step
                c_cand = _lse_value(g_exps, g_logc, cand) if np.all(cand > 0.0) else 0.0
                if c_cand < 0.0 and (
                    not damped or barrier_value(cand, t, c_cand) <= value - _ARMIJO * alpha * lam2
                ):
                    break
                alpha *= 0.5
            else:
                raise SubproblemFailure(f"line search stalled at t = {t:.3g}")
            y = cand
            steps += 1
        else:
            raise SubproblemFailure(f"centering took over {_MAX_NEWTON} Newton steps at t = {t:.3g}")
        if m / t <= _EPS * max(1.0, abs(f)):
            return y, steps
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


class AgmaStep(tuple):
    """agma_step's (taus, delta, betas): unpacks as that 3-tuple and also
    carries the inner solve's Newton step count."""

    newton_steps: int

    def __new__(cls, taus: tuple[float, ...], delta: float, betas: tuple[float, ...], newton_steps: int):
        self = super().__new__(cls, (taus, delta, betas))
        self.newton_steps = newton_steps
        return self


def agma_step(spec: ObjectiveSpec, taus, delta: float) -> AgmaStep:
    """One outer iteration: refresh the geometric-mean weights at the current
    point, solve the resulting standard GP, and return (taus, delta, betas)
    as an AgmaStep.

    The weights are beta_0 = (err_weight + delta) / (J- + delta) for the
    constant+delta group and beta_k = u_k(tau) / (J- + delta) for each
    monomial of J-; they sum to one by construction. With the ratio
    constraint active, delta = (J+ * beta_0^beta_0 * prod (beta_k/u_k)^beta_k)
    ^(1/beta_0) - err_weight, leaving a convex minimization over tau only.
    """
    arr = _check_taus(taus)
    if g_value(spec, arr) > 1.0 + 1e-9:
        raise InfeasibleStart(f"G(taus) = {g_value(spec, arr):.6g} > 1")
    jm = j_minus(spec, arr)
    denom = jm + delta
    beta0 = (spec.error_weight + delta) / denom
    u_exps, u_logc = _u_terms(spec)
    y_cur = np.log(arr)
    u_vals = np.exp(u_exps @ y_cur + u_logc) if len(u_logc) else np.zeros(0)
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

    def delta_at(yv: np.ndarray) -> float:
        r, _, _ = _lse(obj_exps, obj_logc, yv)
        r = r - float(lin @ yv) + const
        return math.exp(r / beta0) - spec.error_weight

    start = _strictly_feasible_start(spec, arr)
    y_new, newton_steps = _solve_inner(obj_exps, obj_logc, lin, g_exps, g_logc, start)
    # the incoming point is subproblem-feasible too (geometric-mean weights
    # match there, so its delta equals the current one); keep the better point
    candidates = [(delta_at(y_new), y_new), (delta_at(y_cur), y_cur)]
    new_delta, y_best = min(candidates, key=lambda c: c[0])
    new_taus = tuple(float(v) for v in np.exp(y_best))
    return AgmaStep(new_taus, new_delta, (beta0, *betas.tolist()), newton_steps)


def _round_with_repair(spec: ObjectiveSpec, taus: tuple[float, ...]) -> tuple[int, ...]:
    """Floor to integers, then greedily raise whichever coordinate improves the
    objective most while the deadline still holds."""
    current = [max(1, int(math.floor(v + 1e-9))) for v in taus]
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


def optimize(
    spec: ObjectiveSpec,
    tolerance: float = 1e-8,
    max_iters: int = 200,
) -> OptimizerResult:
    """Run the successive-GP loop from tau = all-ones until the delta sequence
    stabilizes, then round to a deadline-feasible integer schedule."""
    n = spec.n_layers
    ones = np.ones(n)
    if g_value(spec, ones) > 1.0 + 1e-12:
        raise NoFeasiblePoint(
            f"even tau = 1 misses the deadline (G = {g_value(spec, ones):.6g})"
        )
    taus: tuple[float, ...] = (1.0,) * n
    delta = max(j_plus(spec, ones) - j_minus(spec, ones), tolerance)
    history = [delta]
    converged = False
    iterations = newton_steps = 0
    if g_value(spec, ones) < 1.0 - 1e-12:
        for iterations in range(1, max_iters + 1):
            step = agma_step(spec, taus, delta)
            new_taus, new_delta, _ = step
            newton_steps += step.newton_steps
            if new_delta < delta:  # accept improvements only, so the sequence
                taus, delta = new_taus, new_delta  # is non-increasing by construction
            history.append(delta)
            if abs(history[-1] - history[-2]) < tolerance * max(1.0, abs(history[-2])):
                converged = True
                break
    else:
        converged = True  # deadline leaves no room beyond all-ones

    taus_int = _round_with_repair(spec, taus)
    ok, slack = deadline_ok(spec.latency, Schedule(taus_int, spec.latency.rounds))
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


def brute_force(spec: ObjectiveSpec, tau_max) -> tuple[tuple[int, ...], float]:
    """Exhaustive deadline-feasible minimum over {1..tau_max}^N.

    Ties keep the lexicographically smallest schedule. Independent of the
    AGMA path; used as its oracle.
    """
    n = spec.n_layers
    if isinstance(tau_max, int):
        caps = [tau_max] * n
    else:
        caps = [int(v) for v in tau_max]
        if len(caps) != n:
            raise ValueError(f"need {n} per-layer caps, got {len(caps)}")
    if math.prod(caps) > 10_000_000:
        raise SearchTooLarge(f"grid of {math.prod(caps)} points exceeds the cap")
    grid = np.array(list(itertools.product(*(range(1, c + 1) for c in caps))), dtype=float)
    y = np.log(grid)
    g_exps, g_logc = _g_terms(spec)
    feasible = np.exp(y @ g_exps.T + g_logc).sum(axis=1) <= 1.0
    if not np.any(feasible):
        raise NoFeasiblePoint("no grid point satisfies the deadline")
    values = np.full(len(grid), math.inf)
    speed = spec.speed_weight / np.prod(grid, axis=1)
    bracket = grid[:, 0] - 1.0
    cum = np.ones(len(grid))
    for k in range(n - 1):
        cum *= grid[:, k]
        bracket += spec.counts[k] / spec.n_tot * (grid[:, k + 1] - 1.0) * _prefix_growth(spec, k + 1) * cum
    values[feasible] = (speed + spec.error_weight * bracket)[feasible]
    idx = int(np.argmin(values))  # first minimum = lexicographically smallest
    best = tuple(int(v) for v in grid[idx])
    return best, objective(spec, best)


def closed_form_computation_limited(
    spec: ObjectiveSpec, comm_tol: float = 1e-6
) -> tuple[float, ...]:
    """Closed-form schedule when communication times are negligible.

    All iterations go to the slot whose post-convergence cost coefficient
    (C_{j-1} / N_tot) * prod_{m<j} (1 + q_m), with C_0 = N_tot, is smallest;
    ties pick the highest slot. Without quantization that is always the top
    layer. The selected slot gets T_d / (T * t_CP), everything else 1.
    """
    lat = spec.latency
    t_cp = compute_tcp(lat)
    comm = [compute_tde(lat), *lat.t_edge]
    if t_cp <= 0 or max(comm) > comm_tol * t_cp:
        raise RegimeViolation("communication times are not negligible vs t_CP")
    budget = lat.deadline / lat.rounds / t_cp
    if budget < 1.0:
        raise RegimeViolation(f"deadline allows only {budget:.3g} < 1 iterations")
    n = spec.n_layers
    ext_counts = (spec.n_tot, *spec.counts)  # C_0 = N_tot
    best_slot, best_cost = 1, math.inf
    for slot in range(1, n + 1):
        cost = ext_counts[slot - 1] / spec.n_tot * _prefix_growth(spec, slot - 1)
        if cost <= best_cost:  # ties resolve to the highest slot
            best_slot, best_cost = slot, cost
    taus = [1.0] * n
    taus[best_slot - 1] = budget
    return tuple(taus)
