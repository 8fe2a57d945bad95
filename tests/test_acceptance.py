"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints a
pass line (visible with `pytest -s` or `-rP`). The criteria:

 1. flat-averaging collapse of the nested engine, bit-identical under
    coupled seeds (exact-rational arithmetic; float64 companion check)
 2. quantizer unbiasedness, variance-constant monotonicity, exact grid hits
 3. general condition/bound equal the no-quantization and two-layer
    transcriptions to 1e-12 relative
 4. measured average squared gradient norm stays below the theoretical bound
 5. rounds-to-threshold shrink as the per-round iteration product grows
 6. successive-GP optimizer lands within 2% of the brute-force optimum
 7. computation-limited closed form: everything goes to the top layer
 8. latency arithmetic on the reference run-time constants
 9. removing layers (with distance-scaled device hops) strictly increases
    simulated time-to-threshold
10. post-convergence error grows with depth when every hop quantizes
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hierfed import gp_optimizer
from hierfed.cli import compare_depths
from hierfed.engine import Schedule, run, run_fedavg_reference
from hierfed.gp_optimizer import (
    ObjectiveSpec,
    brute_force,
    closed_form_computation_limited,
    g_value,
    optimize,
)
from hierfed.latency import LatencyParams, compute_tcp, compute_tde, round_latency
from hierfed.quantizer import identity, measure_q, quantize, stochastic
from hierfed.tasks import LocalDataset, QuadraticTask, flat_global_loss, make_quadratic_task
from hierfed.theory import (
    TheoryParams,
    condition_lhs,
    corollary1_bound,
    corollary1_condition,
    corollary2_bound,
    corollary2_condition,
    max_feasible_mu,
    rate_bound,
)
from hierfed.topology import build_topology, reduce_depth


def _report(number: int, text: str, started: float) -> None:
    print(f"[PASS] criterion {number}: {text} ({time.monotonic() - started:.1f}s)")


def random_3layer(rng, max_devices=12):
    n_dev = int(rng.integers(4, max_devices + 1))
    c1 = int(rng.integers(2, max(3, n_dev // 2) + 1))
    c2 = int(rng.integers(2, c1 + 1))
    p0 = list(range(c1)) + [int(rng.integers(0, c1)) for _ in range(n_dev - c1)]
    rng.shuffle(p0)
    p1 = list(range(c2)) + [int(rng.integers(0, c2)) for _ in range(c1 - c2)]
    rng.shuffle(p1)
    return build_topology([n_dev, c1, c2, 1], parents=[p0, p1, [0] * c2])


def test_criterion_01_fedavg_collapse():
    started = time.monotonic()
    rng = np.random.default_rng(20250810)
    for trial in range(5):
        topo = random_3layer(rng)
        # dyadic data and learning rate keep the rational trajectories exact
        datasets = []
        for _ in range(topo.n_devices):
            vals = rng.integers(-16, 16, size=(4, 2))
            feats = np.array([[Fraction(int(v), 8) for v in row] for row in vals], dtype=object)
            datasets.append(LocalDataset(features=feats))
        task = QuadraticTask(datasets, batch_size=2)
        tau1 = int(rng.integers(1, 5))
        w0 = np.array([Fraction(0), Fraction(1, 4)], dtype=object)
        mu = Fraction(1, 8)
        seed = 9000 + trial
        nested = run(task, topo, Schedule((tau1, 1, 1), 3), [identity()] * 3, mu, seed=seed, w0=w0)
        flat = run_fedavg_reference(task, tau1, 3, mu, seed=seed, w0=w0)
        assert all(a == b for a, b in zip(nested.final_model, flat.final_model))
        assert nested.loss == flat.loss
        assert nested.grad_norm_sq == flat.grad_norm_sq

        # float64 companion run on the same topology
        fl_task = QuadraticTask(
            [LocalDataset(features=np.asarray(d.features, dtype=float) / 1.0) for d in datasets],
            batch_size=2,
        )
        fl_nested = run(fl_task, topo, Schedule((tau1, 1, 1), 3), [identity()] * 3, 0.125, seed=seed)
        fl_flat = run_fedavg_reference(fl_task, tau1, 3, 0.125, seed=seed)
        np.testing.assert_allclose(fl_nested.final_model, fl_flat.final_model, rtol=1e-12, atol=1e-15)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, "nested run collapses to flat averaging bit-for-bit (5 random trees)", started)


def test_criterion_02_quantizer_soundness():
    started = time.monotonic()
    trials = 100_000
    for dim in (4, 64):
        measured = {}
        for levels in (2, 4, 8):
            spec = stochastic(levels)
            rng = np.random.default_rng(31_000 + dim + levels)
            x = rng.standard_normal(dim)
            total = np.zeros(dim)
            # a row-wise call draws what as many vector calls draw, in order
            # (test_quantizer.TestRowWise), so the sum is bit-identical
            for _ in range(trials // 10_000):
                for row in quantize(spec, np.broadcast_to(x, (10_000, dim)), rng):
                    total += row
            mean = total / trials
            norm = np.linalg.norm(x)
            scaled = np.abs(x) / norm * levels
            p = scaled - np.clip(np.floor(scaled), 0, levels - 1)
            se = norm / levels * np.sqrt(p * (1 - p) / trials)
            assert np.all(np.abs(mean - x) <= 4 * se + 1e-12)
            measured[levels] = measure_q(spec, dim)
        assert measured[8] < measured[4] < measured[2]
    # grid-aligned inputs quantize exactly
    out = quantize(stochastic(5), np.array([3.0, 4.0]), np.random.default_rng(0))
    assert out.tolist() == [3.0, 4.0]
    one_hot = np.array([0.0, -7.0, 0.0])
    out = quantize(stochastic(3), one_hot, np.random.default_rng(1))
    assert np.all(out == one_hot)
    _report(2, "quantizer unbiased within 4 SE, variance constant decreasing in levels", started)


def test_criterion_03_theorem_corollary_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(333)

    def random_tree(n_layers):
        sizes = [1]
        for _ in range(n_layers):
            sizes.append(int(rng.integers(sizes[-1], sizes[-1] * 3 + 2)))
        sizes = sizes[::-1]
        parents = []
        for n in range(n_layers):
            p = list(range(sizes[n + 1])) + [
                int(rng.integers(0, sizes[n + 1])) for _ in range(sizes[n] - sizes[n + 1])
            ]
            rng.shuffle(p)
            parents.append(p)
        return build_topology(sizes, parents=parents)

    for _ in range(20):  # no-quantization specialization, any depth
        n_layers = int(rng.integers(1, 5))
        topo = random_tree(n_layers)
        p = TheoryParams(
            lipschitz=float(rng.uniform(0.5, 5.0)),
            sigma2=float(rng.uniform(0.0, 2.0)),
            mu=float(rng.uniform(1e-4, 0.05)),
            gap0=float(rng.uniform(0.0, 3.0)),
            q=(0.0,) * n_layers,
            topology=topo,
            schedule=Schedule(tuple(int(v) for v in rng.integers(1, 5, size=n_layers)), 1),
        )
        a, b = condition_lhs(p), corollary1_condition(p)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        t = int(rng.integers(1, 40))
        for x, y in zip(rate_bound(p, t), corollary1_bound(p, t)):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x))

    for _ in range(20):  # two-layer specialization
        topo = random_tree(2)
        p = TheoryParams(
            lipschitz=float(rng.uniform(0.5, 5.0)),
            sigma2=float(rng.uniform(0.0, 2.0)),
            mu=float(rng.uniform(1e-4, 0.1)),
            gap0=float(rng.uniform(0.0, 3.0)),
            q=tuple(float(v) for v in rng.uniform(0.0, 1.0, size=2)),
            topology=topo,
            schedule=Schedule(tuple(int(v) for v in rng.integers(1, 6, size=2)), 1),
        )
        a, b = condition_lhs(p), corollary2_condition(p)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        t = int(rng.integers(1, 40))
        for x, y in zip(rate_bound(p, t), corollary2_bound(p, t)):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x))
    _report(3, "general forms match both specializations to 1e-12 (20 draws each)", started)


TOPO16 = build_topology([16, 8, 4, 1], fanouts=[2, 2, 4])


def test_criterion_04_bound_soundness():
    started = time.monotonic()
    sched = Schedule((2, 2, 2), 200)
    hits = 0
    for seed in range(10):
        task = make_quadratic_task(
            16, 3, np.random.default_rng(1000 + seed),
            center_spread=0.3, sample_spread=0.2, samples_per_device=8, batch_size=4,
        )
        w0 = np.full(3, 2.0)
        loss = flat_global_loss(task)
        gap0 = float(loss(w0) - loss(task.optimum()))
        probe = TheoryParams(
            lipschitz=1.0, sigma2=task.gradient_noise_sigma2(), mu=1e-3, gap0=gap0,
            q=(0.0, 0.0, 0.0), topology=TOPO16, schedule=sched,
        )
        mu = 0.5 * max_feasible_mu(probe)
        params = TheoryParams(
            lipschitz=1.0, sigma2=probe.sigma2, mu=mu, gap0=gap0,
            q=(0.0, 0.0, 0.0), topology=TOPO16, schedule=sched,
        )
        assert condition_lhs(params) >= 0.0
        metrics = run(task, TOPO16, sched, [identity()] * 3, mu, seed=seed, w0=w0)
        hits += metrics.mean_grad_norm_sq() <= rate_bound(params, sched.global_rounds)[2]
    elapsed = time.monotonic() - started
    assert hits == 10
    assert elapsed < 30.0
    _report(4, "measured mean grad norm below the bound in 10/10 seeded runs", started)


def test_criterion_05_speed_scaling():
    started = time.monotonic()
    schedules = [Schedule((4, 1, 1), 150), Schedule((4, 2, 1), 150), Schedule((4, 2, 2), 150)]

    def rounds_to(metrics, threshold):
        for t, g in enumerate(metrics.grad_norm_sq):
            if g <= threshold:
                return t
        return None

    good = 0
    for seed in range(10):
        task = make_quadratic_task(
            16, 3, np.random.default_rng(2000 + seed),
            center_spread=0.02, sample_spread=0.02, samples_per_device=8, batch_size=8,
        )
        w0 = np.full(3, 3.0)
        probe = TheoryParams(
            lipschitz=1.0, sigma2=1.0, mu=1e-3, gap0=1.0,
            q=(0.0, 0.0, 0.0), topology=TOPO16, schedule=schedules[-1],
        )
        mu = 0.5 * max_feasible_mu(probe)  # feasible for the smaller products too
        rounds = [
            rounds_to(run(task, TOPO16, s, [identity()] * 3, mu, seed=seed, w0=w0), 1e-4)
            for s in schedules
        ]
        if all(r is not None for r in rounds) and rounds[0] > rounds[1] > rounds[2]:
            good += 1
    assert good >= 9
    _report(5, f"rounds-to-threshold monotone in the iteration product ({good}/10 seeds)", started)


def _optimizer_spec(rng, n):
    counts = tuple(int(c) for c in sorted(rng.integers(2, 9, size=n - 1))[::-1])
    lat = LatencyParams(
        cycles_per_sample=1e7,
        frequencies=[2e9],
        batch_size=4,
        model_bits=1e5,
        bandwidth=1e6,
        tx_power=0.5,
        channel_gain=1e-8,
        noise_power=1e-10,
        t_edge=[float(v) for v in rng.uniform(0.1, 1.0, size=n - 1)],
        deadline=float(rng.uniform(20, 300)),
        rounds=1,
    )
    return ObjectiveSpec(
        alpha=float(rng.uniform(0.05, 0.95)),
        counts=counts,
        n_tot=int(counts[0] * rng.integers(2, 5)),
        q=tuple(float(v) for v in rng.uniform(0.0, 0.5, size=n)),
        latency=lat,
    )


def test_criterion_06_optimizer_vs_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(666)
    for trial in range(20):
        spec = _optimizer_spec(rng, int(rng.integers(2, 4)))
        result = optimize(spec)
        _, oracle_val = brute_force(spec, 32)
        assert result.objective_integer <= 1.02 * oracle_val, trial
        deltas = result.delta_history
        assert all(b <= a for a, b in zip(deltas, deltas[1:])), trial
        assert result.slack >= 0.0
        assert g_value(spec, result.taus_integer) <= 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(6, "20 random instances within 2% of brute force, delta non-increasing", started)


def test_criterion_06_newton_steps_per_agma_step():
    # a count, not a timer: centering that roundoff keeps from converging
    # runs every barrier phase to its cap, about 230 steps per AGMA step
    rng = np.random.default_rng(666)
    for trial in range(20):
        spec = _optimizer_spec(rng, int(rng.integers(2, 4)))
        result = optimize(spec)
        assert result.newton_steps <= 120 * max(result.iterations, 1), trial


def test_criterion_06_barrier_warm_start(monkeypatch):
    # counts, not timers: each barrier solve starts at the t for which its
    # start point is most nearly central, so an AGMA step begun at the last
    # step's optimum skips the early phases; restarting every solve at t = 1
    # takes 5527 Newton steps here, and a median of 88 per later step
    per_step, later, total = [], [], 0
    agma_step = gp_optimizer.agma_step

    def counted(*args):
        step = agma_step(*args)
        per_step.append(step.newton_steps)
        return step

    monkeypatch.setattr(gp_optimizer, "agma_step", counted)
    rng = np.random.default_rng(666)
    for _ in range(20):
        per_step.clear()
        result = optimize(_optimizer_spec(rng, int(rng.integers(2, 4))))
        assert result.newton_steps == sum(per_step)
        total += result.newton_steps
        later += per_step[1:]
    assert total <= 3000
    assert float(np.median(later)) <= 20


def test_criterion_07_closed_form_special_case():
    started = time.monotonic()
    # negligible communication, no quantization, speed-dominant weighting
    lat = LatencyParams(
        cycles_per_sample=1e7,
        frequencies=[2e9],
        batch_size=4,
        model_bits=1e-9,
        bandwidth=1e6,
        tx_power=0.5,
        channel_gain=1e-8,
        noise_power=1e-10,
        t_edge=[1e-13, 1e-13],
        deadline=0.166,  # t_CP = 0.02 -> budget 8.3
        rounds=1,
    )
    spec = ObjectiveSpec(alpha=0.99, counts=(8, 2), n_tot=16, q=(0.0, 0.0, 0.0), latency=lat)
    budget = lat.deadline / (lat.rounds * compute_tcp(lat))
    closed = closed_form_computation_limited(spec)
    assert closed[:2] == (1.0, 1.0)
    assert closed[2] == pytest.approx(budget, rel=1e-12)

    result = optimize(spec)
    expected = (1, 1, int(math.floor(budget)))
    assert result.taus_integer == expected
    oracle, _ = brute_force(spec, 10)
    assert oracle == expected
    _report(7, "computation-limited optimum puts all iterations at the top layer", started)


def test_criterion_08_latency_arithmetic():
    started = time.monotonic()
    params = LatencyParams(
        cycles_per_sample=0.25e9,
        frequencies=[0.5e9, 1.3e9, 2.0e9],
        batch_size=40,
        model_bits=5.6724e6,
        bandwidth=1e6,
        tx_power=0.5,
        channel_gain=1e-8,
        noise_power=1e-10,
        t_edge=[7.5],
    )
    assert compute_tcp(params) == 20.0
    t_cp, t_de = compute_tcp(params), compute_tde(params)
    for taus in [(1, 1), (3, 2), (10, 4)]:
        expected = taus[0] * taus[1] * t_cp + taus[1] * t_de + 7.5
        assert round_latency(params, Schedule(taus, 1)) == expected
    _report(8, "reference constants give t_CP = 20 s and the exact 2-layer expansion", started)


def test_criterion_09_depth_time_ordering():
    started = time.monotonic()
    probe = LatencyParams(
        cycles_per_sample=0.25e9, frequencies=[0.5e9], batch_size=4,
        model_bits=5.6724e6, bandwidth=1e6, tx_power=0.5, channel_gain=1e-8,
        noise_power=1e-10,
    )
    tde = compute_tde(probe)
    cfg = {
        "seed": 11,
        "topology": {"layer_sizes": [24, 8, 4, 2, 1], "fanouts": [3, 2, 2, 2]},
        "task": {
            "kind": "quadratic", "dimension": 2, "samples_per_device": 4,
            "batch_size": 4, "center_spread": 0.05, "sample_spread": 0.01,
            "init_scale": 2.0,
        },
        "schedule": {"taus": [2, 2, 2, 2], "rounds": 50},
        "lr": 0.02,
        "latency": {
            "cycles_per_sample": 0.25e9, "frequencies": [0.5e9] * 24, "batch_size": 4,
            "model_bits": 5.6724e6, "deadline": 1e12,
            # inter-edge times in absolute seconds: identical across depths
            "t_edge": [10 * tde, 20 * tde, 30 * tde],
        },
        "compare": {
            "depths": [4, 3, 2, 1],
            "threshold": 1e-4,
            "kappas": {4: 1.0, 3: 10.0, 2: 25.0, 1: 80.0},
            "taus": {4: [2, 2, 2, 2], 3: [4, 2, 2], 2: [8, 2], 1: [16]},
        },
        "output_dir": "/tmp/hierfed_acceptance_depths",
    }
    rows = compare_depths(cfg)
    assert [r["depth"] for r in rows] == [4, 3, 2, 1]
    times = [r["time_to_threshold"] for r in rows]
    assert all(t is not None for t in times)
    assert all(b > a for a, b in zip(times, times[1:]))
    _report(9, "time-to-threshold strictly increases as layers are removed", started)


def test_criterion_10_error_term_depth_ordering():
    started = time.monotonic()
    levels = [4, 6, 8, 10, 12, 14]
    q_by_level = {s: measure_q(stochastic(s), 8) for s in levels}
    assert all(v > 0.0 for v in q_by_level.values())
    base = build_topology([96, 32, 16, 8, 4, 2, 1], fanouts=[3, 2, 2, 2, 2, 2])
    errors = []
    for depth in (1, 2, 3, 4, 6):
        topo = reduce_depth(base, 6 - depth)
        q = tuple(q_by_level[s] for s in levels[-depth:])  # keep the upper hops' settings
        params = TheoryParams(
            lipschitz=5.0, sigma2=1e-6, mu=0.01, gap0=1.0,
            q=q, topology=topo,
            # same work per depth so only the hop count varies
            schedule=Schedule((4,) + (1,) * (depth - 1), 1),
        )
        errors.append(rate_bound(params, 1)[1])
    assert all(b > a for a, b in zip(errors, errors[1:]))
    _report(10, "post-convergence error strictly increases with quantized depth", started)
