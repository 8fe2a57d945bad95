from fractions import Fraction

import numpy as np
import pytest

from hierfed.engine import (
    DimensionMismatch,
    Diverged,
    QuantizerCountMismatch,
    RunMetrics,
    Schedule,
    run,
    run_fedavg_reference,
)
from hierfed.quantizer import identity, stochastic
from hierfed.tasks import LocalDataset, QuadraticTask, flat_global_loss
from hierfed.theory import TheoryParams, corollary1_condition
from hierfed.topology import build_topology


def point_task(centers, batch_size=1):
    ds = [LocalDataset(features=np.atleast_2d(np.asarray(c, dtype=float))) for c in centers]
    return QuadraticTask(ds, batch_size=batch_size)


def exact_task(rng, n_devices, dim=2, samples=4, batch=2):
    """Quadratic task on dyadic rationals so trajectories are exact."""
    ds = []
    for _ in range(n_devices):
        vals = rng.integers(-16, 16, size=(samples, dim))
        feats = np.array([[Fraction(int(v), 8) for v in row] for row in vals], dtype=object)
        ds.append(LocalDataset(features=feats))
    return QuadraticTask(ds, batch_size=batch)


def random_3layer(rng, max_devices=12):
    n_dev = int(rng.integers(4, max_devices + 1))
    c1 = int(rng.integers(2, max(3, n_dev // 2) + 1))
    c2 = int(rng.integers(2, c1 + 1))
    p0 = list(range(c1)) + [int(rng.integers(0, c1)) for _ in range(n_dev - c1)]
    rng.shuffle(p0)
    p1 = list(range(c2)) + [int(rng.integers(0, c2)) for _ in range(c1 - c2)]
    rng.shuffle(p1)
    return build_topology([n_dev, c1, c2, 1], parents=[p0, p1, [0] * c2])


FOUR_DEV = build_topology([4, 2, 1], parents=[[0, 0, 1, 1], [0, 0]])


class TestSchedule:
    def test_product(self):
        assert Schedule((2, 3, 4), 1).product == 24

    def test_rejects_zero_tau(self):
        with pytest.raises(ValueError):
            Schedule((2, 0), 1)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            Schedule((1,), 0)


class TestRunBasics:
    def test_centralized_step_all_taus_one(self):
        # identity quantizers + single steps = one exact global gradient step
        centers = [[1.0], [3.0], [-2.0], [0.5]]
        task = point_task(centers)
        w0 = np.array([0.25])
        mu = 0.125
        m = run(task, FOUR_DEV, Schedule((1, 1), 1), [identity()] * 2, mu, seed=0, w0=w0)
        expected = w0 - mu * task.global_gradient(w0)
        assert np.allclose(m.final_model, expected, rtol=1e-14, atol=0)

    def test_hand_simulated_two_device_trajectory(self):
        # two devices under one edge, tau = (2, 1): each runs two steps then averages
        task = point_task([[1.0], [3.0]])
        topo = build_topology([2, 1, 1], parents=[[0, 0], [0]])
        m = run(task, topo, Schedule((2, 1), 1), [identity()] * 2, 0.1, seed=0, w0=np.zeros(1))
        assert m.final_model[0] == pytest.approx(0.38, abs=1e-15)

    def test_fixed_point_zero_gradients(self):
        w0 = np.array([0.5, -1.0])
        task = point_task([[0.5, -1.0]] * 4)
        quants = [stochastic(3), stochastic(5)]
        m = run(task, FOUR_DEV, Schedule((3, 2), 4), quants, 0.2, seed=1, w0=w0)
        assert np.all(m.final_model == w0)
        assert all(v == m.loss[0] for v in m.loss)

    def test_metrics_lengths(self):
        task = point_task([[1.0]] * 4)
        m = run(task, FOUR_DEV, Schedule((1, 1), 7), [identity()] * 2, 0.1, seed=2,
                round_latency=2.5)
        assert m.rounds == 7
        assert len(m.grad_norm_sq) == len(m.cumulative_time) == 7
        assert m.cumulative_time == pytest.approx([2.5 * (t + 1) for t in range(7)])

    def test_quantizer_count_mismatch(self):
        task = point_task([[1.0]] * 4)
        with pytest.raises(QuantizerCountMismatch):
            run(task, FOUR_DEV, Schedule((1, 1), 1), [identity()], 0.1, seed=0)

    def test_dimension_mismatch(self):
        task = point_task([[1.0]] * 4)
        with pytest.raises(DimensionMismatch):
            run(task, FOUR_DEV, Schedule((1, 1), 1), [identity()] * 2, 0.1, seed=0,
                w0=np.zeros(3))

    def test_final_metrics_describe_returned_model(self):
        rng = np.random.default_rng(3)
        task = QuadraticTask(
            [LocalDataset(features=rng.normal(size=(6, 2))) for _ in range(4)], batch_size=3
        )
        m = run(task, FOUR_DEV, Schedule((2, 1), 3), [stochastic(4), identity()], 0.05, seed=7,
                w0=np.full(2, 3.0))
        assert m.rounds == 3
        g = task.global_gradient(m.final_model)
        assert m.final_loss == float(flat_global_loss(task)(m.final_model))
        assert m.final_grad_norm_sq == float(np.dot(g, g))
        assert m.final_loss < m.loss[-1]

    def test_quantizer_norm_overflow_diverges_same_round(self):
        # finite deltas of 1e154 per coordinate overflow the quantizer's norm
        task = point_task([[1e150] * 4] * 4)
        with np.errstate(over="ignore"), pytest.raises(Diverged, match="round 0: .*norm overflows"):
            run(task, FOUR_DEV, Schedule((1, 1), 2), [stochastic(4), identity()], 1e4, seed=0)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        task = QuadraticTask(
            [LocalDataset(features=rng.normal(size=(6, 2))) for _ in range(4)], batch_size=3
        )
        quants = [stochastic(4), stochastic(8)]
        a = run(task, FOUR_DEV, Schedule((2, 2), 5), quants, 0.05, seed=42)
        b = run(task, FOUR_DEV, Schedule((2, 2), 5), quants, 0.05, seed=42)
        assert np.all(a.final_model == b.final_model)
        assert a.loss == b.loss and a.grad_norm_sq == b.grad_norm_sq


class TestCollapse:
    def test_exact_collapse_bit_identical(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            topo = random_3layer(rng)
            task = exact_task(rng, topo.n_devices)
            w0 = np.array([Fraction(0), Fraction(1, 2)], dtype=object)
            mu = Fraction(1, 8)
            tau1 = int(rng.integers(1, 4))
            nested = run(task, topo, Schedule((tau1, 1, 1), 3), [identity()] * 3, mu,
                         seed=11, w0=w0)
            flat = run_fedavg_reference(task, tau1, 3, mu, seed=11, w0=w0)
            assert all(x == y for x, y in zip(nested.final_model, flat.final_model))
            assert nested.loss == flat.loss
            assert nested.grad_norm_sq == flat.grad_norm_sq

    def test_float_collapse_close(self):
        rng = np.random.default_rng(5)
        topo = random_3layer(rng)
        task = QuadraticTask(
            [LocalDataset(features=rng.normal(size=(5, 2))) for _ in range(topo.n_devices)],
            batch_size=2,
        )
        nested = run(task, topo, Schedule((3, 1, 1), 5), [identity()] * 3, 0.1, seed=6)
        flat = run_fedavg_reference(task, 3, 5, 0.1, seed=6)
        assert np.allclose(nested.final_model, flat.final_model, rtol=1e-12, atol=1e-14)

    def test_single_layer_matches_reference_bitwise(self):
        # N = 1 aggregates devices directly with the same arithmetic order
        rng = np.random.default_rng(7)
        task = QuadraticTask(
            [LocalDataset(features=rng.normal(size=(4, 2))) for _ in range(5)], batch_size=2
        )
        topo = build_topology([5, 1], parents=[[0] * 5])
        for tau in (1, 4):
            nested = run(task, topo, Schedule((tau,), 4), [identity()], 0.1, seed=8)
            flat = run_fedavg_reference(task, tau, 4, 0.1, seed=8)
            assert np.all(nested.final_model == flat.final_model)

    def test_one_step_full_batch_is_gd(self):
        task = point_task([[2.0], [4.0]])
        topo = build_topology([2, 1], parents=[[0, 0]])
        m = run_fedavg_reference(task, 1, 1, 0.5, seed=0, w0=np.zeros(1))
        assert m.final_model[0] == pytest.approx(0.5 * 3.0)


class TestWeightedMode:
    def test_weighted_uses_dataset_sizes(self):
        # two devices, sizes (1, 3): the weighted average leans to device 2
        ds = [
            LocalDataset(features=np.full((1, 1), 1.0)),
            LocalDataset(features=np.full((3, 1), 3.0)),
        ]
        task = QuadraticTask(ds, batch_size=1)
        topo = build_topology([2, 1, 1], parents=[[0, 0], [0]])
        m_unw = run(task, topo, Schedule((1, 1), 1), [identity()] * 2, 1.0, seed=0,
                    w0=np.zeros(1))
        m_wgt = run(task, topo, Schedule((1, 1), 1), [identity()] * 2, 1.0, seed=0,
                    w0=np.zeros(1), weighted=True)
        assert m_unw.final_model[0] == pytest.approx(2.0)  # mean of (1, 3)
        assert m_wgt.final_model[0] == pytest.approx((1 * 1.0 + 3 * 3.0) / 4.0)

    def test_weighted_collapse_exact(self):
        rng = np.random.default_rng(9)
        topo = random_3layer(rng)
        task = exact_task(rng, topo.n_devices, samples=3, batch=3)
        w0 = np.array([Fraction(0), Fraction(0)], dtype=object)
        nested = run(task, topo, Schedule((2, 1, 1), 2), [identity()] * 3, Fraction(1, 4),
                     seed=10, w0=w0, weighted=True)
        flat = run_fedavg_reference(task, 2, 2, Fraction(1, 4), seed=10, w0=w0, weighted=True)
        assert all(x == y for x, y in zip(nested.final_model, flat.final_model))


class TestWeights:
    def test_aggregation_weights_sum_to_one(self):
        from hierfed.engine import _node_weights

        rng = np.random.default_rng(20)
        topo = random_3layer(rng)
        sizes = [int(rng.integers(1, 6)) for _ in range(topo.n_devices)]
        task = QuadraticTask(
            [LocalDataset(features=rng.normal(size=(s, 1))) for s in sizes], batch_size=1
        )
        for weighted in (False, True):
            weights = _node_weights(topo, task, weighted, exact=False)
            for layer in weights:
                for row in layer:
                    assert sum(row) == pytest.approx(1.0, abs=1e-12)
        exact = _node_weights(topo, task, True, exact=True)
        assert all(sum(row) == 1 for layer in exact for row in layer)

    def test_centralized_step_exact_rationals(self):
        # identity quantizers + unit counts reproduce one global gradient step
        rng = np.random.default_rng(21)
        topo = random_3layer(rng)
        task = exact_task(rng, topo.n_devices, dim=1, samples=2, batch=2)
        w0 = np.array([Fraction(3, 2)], dtype=object)
        mu = Fraction(1, 4)
        m = run(task, topo, Schedule((1, 1, 1), 1), [identity()] * 3, mu, seed=0, w0=w0)
        expected = w0 - mu * task.global_gradient(w0)
        assert m.final_model[0] == expected[0]


class TestRoundMapOracle:
    """Independent closed form for the full-batch quadratic round map.

    A device burst from anchor v gives (1-mu)^tau1 * v + (1-(1-mu)^tau1) * a_i,
    and every aggregation level preserves that affine shape with the exponent
    multiplied by its iteration count (anchors are refreshed each iteration),
    so one global round is w' = c * w + (1 - c) * a_bar with c = (1-mu)^prod(tau)
    and a_bar the aggregation-weighted mean of device means. A wrong nesting
    or a stale anchor would change the coefficient.
    """

    def _reference(self, task, topo, taus, mu, w, weighted=False):
        c = (1.0 - mu) ** np.prod(taus)
        if weighted:
            sizes = task.dataset_sizes()
            weights = np.array(sizes, dtype=float) / sum(sizes)
        else:
            weights = np.full(task.n_devices, 1.0 / task.n_devices)
        a_bar = sum(w_i * task.device_mean(i) for i, w_i in enumerate(weights))
        return c * w + (1.0 - c) * a_bar

    @pytest.mark.parametrize("taus", [(2, 3, 2), (1, 4, 1), (3, 1, 2)])
    def test_matches_engine_rounds(self, taus):
        rng = np.random.default_rng(30)
        topo = random_3layer(rng, max_devices=9)
        sizes = [int(rng.integers(2, 5)) for _ in range(topo.n_devices)]

        class FullBatch(QuadraticTask):
            def stochastic_gradient(self, device, w, rng, batch_size=None):
                return self.full_gradient(device, w)

        fb = FullBatch(
            [LocalDataset(features=rng.normal(size=(s, 2))) for s in sizes], batch_size=1
        )
        mu = 0.07
        w = np.array([1.7, -0.4])
        m = run(fb, topo, Schedule(taus, 3), [identity()] * 3, mu, seed=0, w0=w)
        expected = w.copy()
        for _ in range(3):
            expected = self._reference(fb, topo, taus, mu, expected)
        np.testing.assert_allclose(m.final_model, expected, rtol=1e-12, atol=1e-14)

    def test_matches_engine_weighted(self):
        rng = np.random.default_rng(31)
        topo = random_3layer(rng, max_devices=8)
        sizes = [int(rng.integers(1, 6)) for _ in range(topo.n_devices)]

        class FullBatch(QuadraticTask):
            def stochastic_gradient(self, device, w, rng, batch_size=None):
                return self.full_gradient(device, w)

        fb = FullBatch(
            [LocalDataset(features=rng.normal(size=(s, 2))) for s in sizes], batch_size=1
        )
        mu, taus = 0.05, (2, 2, 3)
        w = np.array([0.3, 0.9])
        m = run(fb, topo, Schedule(taus, 2), [identity()] * 3, mu, seed=0, w0=w,
                weighted=True)
        expected = w.copy()
        for _ in range(2):
            expected = self._reference(fb, topo, taus, mu, expected, weighted=True)
        np.testing.assert_allclose(m.final_model, expected, rtol=1e-12, atol=1e-14)


class TestQuantizedUnbiasedness:
    def test_quantized_round_mean_matches_identity(self):
        # full-batch gradients isolate the quantizer noise: over independent
        # seeds the mean one-round result must match the lossless run
        rng = np.random.default_rng(32)
        topo = build_topology([4, 2, 1], parents=[[0, 0, 1, 1], [0, 0]])

        class FullBatch(QuadraticTask):
            def stochastic_gradient(self, device, w, rng, batch_size=None):
                return self.full_gradient(device, w)

        task = FullBatch(
            [LocalDataset(features=rng.normal(size=(3, 2))) for _ in range(4)], batch_size=1
        )
        w0 = np.array([1.0, -1.0])
        sched = Schedule((2, 2), 1)
        ref = run(task, topo, sched, [identity()] * 2, 0.1, seed=0, w0=w0).final_model
        quants = [stochastic(3), stochastic(4)]
        draws = np.array(
            [
                run(task, topo, sched, quants, 0.1, seed=s, w0=w0).final_model
                for s in range(1500)
            ]
        )
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - ref) <= 4 * se + 1e-12)


class TestDescent:
    def test_loss_non_increasing_under_condition(self):
        rng = np.random.default_rng(11)
        topo = random_3layer(rng, max_devices=10)
        ds = [LocalDataset(features=rng.normal(size=(4, 2))) for _ in range(topo.n_devices)]
        task = QuadraticTask(ds, batch_size=4)  # full batch: deterministic descent
        sched = Schedule((2, 2, 1), 15)
        params = TheoryParams(
            lipschitz=1.0, sigma2=0.0, mu=0.05, gap0=1.0, q=(0.0, 0.0, 0.0),
            topology=topo, schedule=sched,
        )
        assert corollary1_condition(params) > 0.0
        m = run(task, topo, sched, [identity()] * 3, 0.05, seed=12, w0=np.full(2, 3.0))
        assert all(b <= a + 1e-12 for a, b in zip(m.loss, m.loss[1:]))


class TestRunMetrics:
    def test_mean_grad_norm(self):
        m = RunMetrics(loss=[1, 2], grad_norm_sq=[4.0, 2.0], round_latency=[1, 1],
                       cumulative_time=[1, 2])
        assert m.mean_grad_norm_sq() == 3.0
