import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hierfed.tasks import (
    BatchTooLarge,
    InsufficientPool,
    LocalDataset,
    LogisticTask,
    QuadraticTask,
    TinyMLPTask,
    flat_global_loss,
    make_blob_pool,
    make_quadratic_task,
    partition,
)
from hierfed.engine import Schedule, run
from hierfed.quantizer import stochastic
from hierfed.tasks import _sample_batch, _sample_batches
from hierfed.topology import build_topology


def estimate_sigma2(task, w0, rng, trials):
    """Monte-Carlo oracle for gradient_noise_sigma2: the worst device's mean
    squared deviation of stochastic gradients at w0 from the global
    full-batch gradient."""
    g_ref = task.global_gradient(w0)
    worst = 0.0
    for i in range(task.n_devices):
        acc = 0.0
        batches = task.sample_batches(i, rng, trials)
        for _ in range(trials):
            diff = task.stochastic_gradient(i, w0, batches) - g_ref
            acc += float(np.dot(diff, diff))
        worst = max(worst, acc / trials)
    return worst


def point_task(centers, batch_size=1):
    """One sample per device at the given center: F_i(w) = ||w - a_i||^2 / 2."""
    ds = [LocalDataset(features=np.atleast_2d(np.asarray(c, dtype=float))) for c in centers]
    return QuadraticTask(ds, batch_size=batch_size)


class TestSampleBatch:
    def test_sorted_distinct_in_range(self):
        rng = np.random.default_rng(50)
        for size, batch in ((8, 4), (9, 1), (12, 11), (100, 37)):
            for _ in range(50):
                idx = _sample_batch(size, batch, rng)
                assert len(idx) == batch
                assert np.all(np.diff(idx) > 0)
                assert 0 <= idx[0] and idx[-1] < size

    def test_inclusion_frequency_uniform(self):
        size, batch, trials = 10, 3, 20_000
        rng = np.random.default_rng(51)
        hits = np.zeros(size)
        for _ in range(trials):
            hits[_sample_batch(size, batch, rng)] += 1
        p = batch / size
        se = math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(hits / trials - p) <= 4 * se)

    def test_full_batch_draws_nothing(self):
        rng = np.random.default_rng(52)
        before = rng.bit_generator.state
        assert np.array_equal(_sample_batch(6, 6, rng), np.arange(6))
        assert rng.bit_generator.state == before


class TestSampleBatches:
    """A round's block of batches equals that many successive per-step draws."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(lambda size: st.tuples(st.just(size), st.integers(1, size))),
        st.integers(1, 50),
        st.integers(0, 2**63 - 1),
    )
    @example((7, 7), 5, 0)  # full batch: broadcast rows, no draw
    def test_rows_equal_successive_draws(self, size_batch, steps, seed):
        size, batch = size_batch
        block_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = _sample_batches(size, batch, block_rng, steps)
        assert block.shape == (steps, batch)
        for row in block:
            one = _sample_batch(size, batch, step_rng)
            assert row.dtype == one.dtype and np.array_equal(row, one)
        assert block_rng.bit_generator.state == step_rng.bit_generator.state

    @pytest.mark.parametrize("size, batch", [(1, 2), (5, 6), (8, 40)])
    def test_batch_too_large(self, size, batch):
        rng = np.random.default_rng(54)
        before = rng.bit_generator.state
        with pytest.raises(BatchTooLarge):
            _sample_batches(size, batch, rng, 4)
        assert rng.bit_generator.state == before


class TestQuadratic:
    def test_loss_at_minimum(self):
        task = point_task([[2.0]])
        assert task.local_loss(0, np.array([2.0])) == 0.0

    def test_loss_analytic(self):
        task = point_task([[2.0]])
        assert task.local_loss(0, np.array([0.0])) == 2.0

    def test_full_gradient(self):
        task = point_task([[1.0, -2.0]])
        w = np.array([0.5, 0.5])
        assert np.allclose(task.full_gradient(0, w), w - np.array([1.0, -2.0]))

    def test_full_batch_is_deterministic(self):
        rng = np.random.default_rng(0)
        task = make_quadratic_task(3, 2, rng, samples_per_device=5, batch_size=5)
        w = np.array([0.3, -0.1])
        g1 = task.stochastic_gradient(0, w, task.sample_batches(0, np.random.default_rng(1), 1))
        g2 = task.full_gradient(0, w)
        assert np.all(g1 == g2)

    def test_stochastic_unbiased_monte_carlo(self):
        rng = np.random.default_rng(2)
        task = make_quadratic_task(1, 3, rng, sample_spread=0.5, samples_per_device=16, batch_size=4)
        w = np.zeros(3)
        trials = 100_000
        draws = np.empty((trials, 3))
        batches = task.sample_batches(0, np.random.default_rng(3), trials)
        for k in range(trials):
            draws[k] = task.stochastic_gradient(0, w, batches)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(mean - task.full_gradient(0, w)) <= 4 * se + 1e-12)

    def test_seed_replay_bit_identical(self):
        task = make_quadratic_task(2, 4, np.random.default_rng(4), batch_size=3)
        w = np.ones(4)
        g1 = task.stochastic_gradient(1, w, task.sample_batches(1, np.random.default_rng(99), 1))
        g2 = task.stochastic_gradient(1, w, task.sample_batches(1, np.random.default_rng(99), 1))
        assert np.all(g1 == g2)

    def test_batch_too_large(self):
        with pytest.raises(BatchTooLarge):
            point_task([[1.0]], batch_size=2)
        with pytest.raises(BatchTooLarge):
            _sample_batch(1, 2, np.random.default_rng(0))

    def test_optimum_is_stationary(self):
        task = make_quadratic_task(5, 3, np.random.default_rng(5))
        g = task.global_gradient(task.optimum())
        assert np.linalg.norm(g) < 1e-12

    def test_exact_sigma2_matches_empirical(self):
        task = make_quadratic_task(4, 2, np.random.default_rng(6), sample_spread=0.4,
                                   samples_per_device=10, batch_size=3)
        exact = task.gradient_noise_sigma2()
        emp = estimate_sigma2(task, np.zeros(2), np.random.default_rng(7), trials=4000)
        assert abs(emp - exact) / exact < 0.15

    def test_theory_constants_exact(self):
        task = make_quadratic_task(5, 3, np.random.default_rng(22), batch_size=4)
        w0 = np.full(3, 2.0)
        consts = task.theory_constants(w0)
        assert task.theory_source == "exact"
        assert consts["lipschitz"] == 1.0
        assert consts["sigma2"] == task.gradient_noise_sigma2()
        # F(w) - F* = ||w - optimum||^2 / 2 for this task
        assert consts["gap0"] == pytest.approx(float(np.sum((w0 - task.optimum()) ** 2)) / 2, rel=1e-12)
        # equal dataset sizes: the weighted objective is the device average
        assert task.theory_constants(w0, weighted=True) == consts

    def test_theory_constants_weighted_ragged_certifies_nothing(self):
        # with unequal sizes the weighted objective has another optimum and noise
        rng = np.random.default_rng(23)
        ds = [LocalDataset(features=rng.normal(size=(s, 2))) for s in (2, 5)]
        task = QuadraticTask(ds, batch_size=2)
        assert task.theory_constants(np.zeros(2), weighted=True) == {}
        assert set(task.theory_constants(np.zeros(2))) == {"lipschitz", "sigma2", "gap0"}


def assert_same_bits(a, b):
    """Equal dtype and values; floats compared by their bytes, so -0.0 != 0.0."""
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert all(type(x) is type(y) and x == y for x, y in zip(a, b))
    else:
        assert a.tobytes() == b.tobytes()


def assert_stream_matches_kernel(task, w, steps, seed):
    """Each device's stream gives, call by call, the per-step kernel's
    gradient on the same draw: `batch_gradient` on a `_sample_batch` row."""
    for i, ds in enumerate(task.datasets):
        batches = task.sample_batches(i, np.random.default_rng(seed), steps)
        step_rng = np.random.default_rng(seed)
        for _ in range(steps):
            idx = _sample_batch(ds.size, task.batch_size, step_rng)
            assert_same_bits(task.stochastic_gradient(i, w, batches), task.batch_gradient(i, w, idx))
        assert next(batches, None) is None


class TestQuadraticBatchStream:
    """The pre-reduced stream (one batch mean per step) equals the per-step kernel bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5),
        st.lists(st.integers(1, 40), min_size=1, max_size=3),
        st.integers(1, 40),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_random_datasets(self, dim, sizes, batch, steps, seed):
        rng = np.random.default_rng(seed)
        batch = min(batch, *sizes)
        scale = 10.0 ** rng.uniform(-3, 3)
        task = QuadraticTask([LocalDataset(features=scale * rng.normal(size=(s, dim))) for s in sizes], batch)
        assert_stream_matches_kernel(task, rng.normal(size=dim), steps, seed)

    @pytest.mark.parametrize(
        "dim, size, batch",
        [
            # one number per target with batch >= 8: numpy sums the batch pairwise
            (1, 8, 8), (1, 12, 8), (1, 20, 9), (1, 40, 16), (1, 80, 40), (1, 300, 257),
            (4, 9, 9), (2, 6, 6),  # the full batch: broadcast index rows, no draw
            (1, 5, 1), (3, 7, 1),  # batch 1
            (8, 30, 12), (314, 20, 10),
        ],
    )
    def test_shapes(self, dim, size, batch):
        rng = np.random.default_rng(size * 1000 + batch * 10 + dim)
        task = QuadraticTask([LocalDataset(features=rng.normal(size=(size, dim))) for _ in range(2)], batch)
        assert_stream_matches_kernel(task, rng.normal(size=dim), 50, 17)

    @pytest.mark.parametrize("dim, size, batch", [(1, 10, 8), (2, 6, 3), (2, 5, 5), (3, 4, 1)])
    def test_exact_rational_features(self, dim, size, batch):
        rng = np.random.default_rng(dim * 100 + size)
        datasets = []
        for _ in range(2):
            vals = rng.integers(-50, 50, size=(size, dim))
            feats = np.array([[Fraction(int(v), 7) for v in row] for row in vals], dtype=object)
            datasets.append(LocalDataset(features=feats))
        task = QuadraticTask(datasets, batch)
        w = np.array([Fraction(k, 3) for k in range(dim)], dtype=object)
        assert_stream_matches_kernel(task, w, 20, 5)


class TestLogistic:
    def test_loss_at_zero_is_ln2(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 2.0], [3.0, -1.0]])
        y = np.array([1, -1, 1, -1])
        task = LogisticTask([LocalDataset(features=x, labels=y)], batch_size=4)
        assert abs(task.local_loss(0, np.zeros(2)) - math.log(2.0)) < 1e-15

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 3))
        y = np.where(rng.random(6) < 0.5, -1, 1)
        task = LogisticTask([LocalDataset(features=x, labels=y)], batch_size=6)
        w = rng.normal(size=3)
        g = task.full_gradient(0, w)
        eps = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd = (task.local_loss(0, w + e) - task.local_loss(0, w - e)) / (2 * eps)
            assert abs(fd - g[k]) < 1e-6


_COORD = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def logistic_cases(draw):
    """A logistic task (single-sample devices included), a start point w0 and
    a point w (each possibly 0), a weighting and a batch-draw seed."""
    dim = draw(st.integers(1, 3))
    datasets = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 4))
        x = draw(arrays(np.float64, (size, dim), elements=_COORD))
        y = draw(arrays(np.int64, size, elements=st.sampled_from([-1, 1])))
        datasets.append(LocalDataset(features=x, labels=y))
    task = LogisticTask(datasets, batch_size=draw(st.integers(1, min(ds.size for ds in datasets))))
    point = st.one_of(st.just(np.zeros(dim)), arrays(np.float64, dim, elements=_COORD))
    return task, draw(point), draw(point), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def assert_lipschitz_bounds_hessians(task, w, lipschitz):
    """L bounds every device's Hessian, mean of p(1-p) x x^T, at w."""
    for ds in task.datasets:
        p = 1.0 / (1.0 + np.exp(-ds.labels * (ds.features @ w)))
        hess = np.einsum("n,ni,nj->ij", p * (1.0 - p), ds.features, ds.features) / ds.size
        assert np.linalg.eigvalsh(hess)[-1] <= lipschitz * (1.0 + 1e-12)


class TestLogisticTheoryConstants:
    @settings(max_examples=300, deadline=None)
    @given(logistic_cases())
    def test_constants_bound_the_objective(self, case):
        task, w0, w, weighted, seed = case
        consts = task.theory_constants(w0, weighted)
        assert_lipschitz_bounds_hessians(task, w, consts["lipschitz"])
        # sigma2 bounds the squared deviation of any batch gradient at w
        g = task.global_gradient(w, weighted)
        rng = np.random.default_rng(seed)
        for i, ds in enumerate(task.datasets):
            for _ in range(4):
                diff = task.batch_gradient(i, w, _sample_batch(ds.size, task.batch_size, rng)) - g
                assert float(diff @ diff) <= consts["sigma2"]
        # gap0 bounds F(w0) - F(w) under the run's weighting
        loss = flat_global_loss(task, weighted)
        assert loss(w0) - loss(w) <= consts["gap0"]

    def test_subnormal_squares_still_bounded(self):
        # features of scale 1e-162..1e-150 have subnormal squares, where
        # rounding is absolute, not relative: L = R^2/4 must still bound
        rng = np.random.default_rng(1)
        for _ in range(300):
            size, dim = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            x = 10.0 ** rng.uniform(-162, -150) * rng.normal(size=(size, dim))
            y = np.where(rng.random(size) < 0.5, -1, 1)
            task = LogisticTask([LocalDataset(features=x, labels=y)], batch_size=1)
            consts = task.theory_constants(np.zeros(dim))
            assert_lipschitz_bounds_hessians(task, rng.normal(size=dim), consts["lipschitz"])


class TestTinyMLP:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        task = TinyMLPTask([LocalDataset(features=x, labels=y)], batch_size=8, n_classes=3, hidden=5)
        w = 0.3 * rng.standard_normal(task.dim)
        g = task.full_gradient(0, w)
        eps = 1e-6
        idx = rng.choice(task.dim, size=12, replace=False)
        for k in idx:
            e = np.zeros(task.dim)
            e[k] = eps
            fd = (task.local_loss(0, w + e) - task.local_loss(0, w - e)) / (2 * eps)
            assert abs(fd - g[k]) < 1e-5

    def test_certifies_no_theory_constants(self):
        task = TinyMLPTask([LocalDataset(features=np.ones((2, 2)), labels=np.array([0, 1]))],
                           batch_size=2, n_classes=2, hidden=2)
        assert task.theory_constants(np.zeros(task.dim)) == {}

    def test_hidden_cap(self):
        with pytest.raises(ValueError):
            TinyMLPTask([LocalDataset(features=np.zeros((2, 2)), labels=np.zeros(2, dtype=int))],
                        batch_size=2, n_classes=2, hidden=64)

    def test_accuracy_reaches_separation(self):
        pool = make_blob_pool(600, 3, 4, np.random.default_rng(10), spread=0.2)
        parts = partition(pool.features, pool.labels, 2, 3, (50, 80), np.random.default_rng(11))
        task = TinyMLPTask(parts, batch_size=16, n_classes=3, hidden=8)
        w = 0.1 * np.random.default_rng(12).standard_normal(task.dim)
        rng = np.random.default_rng(13)
        for _ in range(300):
            g = task.full_gradient(0, w) + task.full_gradient(1, w)
            w = w - 0.5 * g / 2
        assert task.accuracy(w, pool.holdout_features, pool.holdout_labels) > 0.8


class ReferenceTinyMLP(TinyMLPTask):
    """Every call through one pass that builds both the loss and the gradient,
    and full-batch calls through an index gather: the tiny-MLP code before
    its methods were split, kept verbatim as the oracle for the split."""

    def _forward_ref(self, w: np.ndarray, x: np.ndarray):
        w1, b1, w2, b2 = self._unpack(w)
        hid = np.tanh(x @ w1.T + b1)
        logits = hid @ w2.T + b2
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        return hid, probs

    def _loss_grad(self, w: np.ndarray, x: np.ndarray, y: np.ndarray):
        w1, b1, w2, b2 = self._unpack(w)
        hid, probs = self._forward_ref(w, x)
        n = len(x)
        loss = -float(np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        dw2 = dlogits.T @ hid
        db2 = dlogits.sum(axis=0)
        dhid = (dlogits @ w2) * (1.0 - hid * hid)
        dw1 = dhid.T @ x
        db1 = dhid.sum(axis=0)
        grad = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])
        return loss, grad

    def local_loss(self, device: int, w: np.ndarray) -> float:
        ds = self.datasets[device]
        loss, _ = self._loss_grad(w, ds.features, ds.labels)
        return loss

    def batch_gradient(self, device: int, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        ds = self.datasets[device]
        _, grad = self._loss_grad(w, ds.features[idx], ds.labels[idx])
        return grad

    def full_gradient(self, device: int, w: np.ndarray) -> np.ndarray:
        return self.batch_gradient(device, w, np.arange(self.datasets[device].size))


def mlp_pair(seed, n_devices=1, size_range=(6, 12), hidden=5, n_classes=4, dim=3, batch=1):
    """The same seeded tiny-MLP task as TinyMLPTask and as ReferenceTinyMLP."""
    rng = np.random.default_rng(seed)
    pool = make_blob_pool(400, n_classes, dim, rng)
    parts = partition(pool.features, pool.labels, n_devices, 3, size_range, rng)
    return tuple(cls(parts, batch_size=batch, n_classes=n_classes, hidden=hidden)
                 for cls in (TinyMLPTask, ReferenceTinyMLP))


class TestTinyMLPSplit:
    """Each split method equals the combined pass bit for bit: the same numpy
    operations on the same operands, so the same BLAS calls and roundings."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_combined_pass(self, seed):
        task, ref = mlp_pair(seed, hidden=1 + seed, n_classes=2 + seed % 3)
        rng = np.random.default_rng(100 + seed)
        size = task.datasets[0].size
        for _ in range(3):
            w = rng.standard_normal(task.dim)
            for batch in (1, size // 2, size):
                idx = _sample_batch(size, batch, rng)
                assert np.array_equal(task.batch_gradient(0, w, idx), ref.batch_gradient(0, w, idx))
            assert np.array_equal(task.full_gradient(0, w), ref.full_gradient(0, w))
            assert task.local_loss(0, w) == ref.local_loss(0, w)

    def test_engine_run_bitwise_equal(self):
        task, ref = mlp_pair(7, n_devices=4, size_range=(10, 14), hidden=3, batch=4)
        topo = build_topology([4, 2, 1], fanouts=[2, 2])
        sched = Schedule((2, 2), 3)
        w0 = 0.1 * np.random.default_rng(8).standard_normal(task.dim)
        runs = [run(t, topo, sched, [stochastic(8), stochastic(12)], 0.2, seed=9, w0=w0) for t in (task, ref)]
        assert runs[0].loss == runs[1].loss
        assert runs[0].grad_norm_sq == runs[1].grad_norm_sq
        assert runs[0].final_loss == runs[1].final_loss
        assert np.array_equal(runs[0].final_model, runs[1].final_model)


def derived_case(kind, seed):
    """A seeded 3-device task of `kind` with ragged dataset sizes, and a point w;
    "quadratic_exact" holds the quadratic's features and w as Fractions."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 12, size=3)
    x = [rng.normal(size=(int(s), 3)) for s in sizes]
    if kind == "tiny_mlp":
        ds = [LocalDataset(features=xi, labels=rng.integers(0, 3, size=len(xi))) for xi in x]
        task = TinyMLPTask(ds, batch_size=1, n_classes=3, hidden=4)
    elif kind == "logistic":
        ds = [LocalDataset(features=xi, labels=np.where(rng.random(len(xi)) < 0.5, -1, 1)) for xi in x]
        task = LogisticTask(ds, batch_size=1)
    else:
        exact = np.vectorize(Fraction, otypes=[object]) if kind == "quadratic_exact" else np.asarray
        task = QuadraticTask([LocalDataset(features=exact(xi)) for xi in x], batch_size=1)
        return task, exact(rng.normal(size=3))
    return task, rng.normal(size=task.dim)


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert [(type(v), v) for v in a] == [(type(v), v) for v in b]
    else:
        assert a.tobytes() == b.tobytes()


class TestDerivedGradients:
    """The full and global gradients the Task base derives from batch_gradient
    equal their explicit forms bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["quadratic", "quadratic_exact", "logistic", "tiny_mlp"])
    def test_bitwise_equal_to_explicit_forms(self, kind, seed):
        task, w = derived_case(kind, seed)
        sizes = task.dataset_sizes()
        for i, size in enumerate(sizes):
            assert_bitwise_equal(task.full_gradient(i, w), task.batch_gradient(i, w, np.arange(size)))
        # the device average, and the weighted sum the engine used to form
        total = task.full_gradient(0, w)
        for i in range(1, task.n_devices):
            total = total + task.full_gradient(i, w)
        assert_bitwise_equal(task.global_gradient(w), total / task.n_devices)
        weights = [s / sum(sizes) for s in sizes]
        total = weights[0] * task.full_gradient(0, w)
        for i in range(1, task.n_devices):
            total = total + weights[i] * task.full_gradient(i, w)
        assert_bitwise_equal(task.global_gradient(w, weighted=True), total)


class TestGlobalLoss:
    def test_two_devices_unweighted(self):
        task = point_task([[0.0], [4.0]])
        w = np.array([0.0])
        # F_1 = 0, F_2 = 8 -> mean 4; with centers 0/4: losses 0 and 8
        assert flat_global_loss(task)(w) == pytest.approx(4.0)

    def test_constant_losses_any_weighting(self):
        task = point_task([[1.5]] * 11)
        w = np.array([100.0])
        c = task.local_loss(0, w)
        assert flat_global_loss(task)(w) == pytest.approx(c)
        assert flat_global_loss(task, weighted=True)(w) == pytest.approx(c)

    def test_weighted_example(self):
        # D = (1, 3) samples, local losses 0 and 4 at w = 2 -> weighted mean 3
        ds = [
            LocalDataset(features=np.full((1, 1), 2.0)),
            LocalDataset(features=np.full((3, 1), 2.0 - math.sqrt(8.0))),
        ]
        task = QuadraticTask(ds, batch_size=1)
        w = np.array([2.0])
        assert task.local_loss(0, w) == pytest.approx(0.0)
        assert task.local_loss(1, w) == pytest.approx(4.0)
        assert flat_global_loss(task, weighted=True)(w) == pytest.approx(3.0)
        assert flat_global_loss(task, weighted=False)(w) == pytest.approx(2.0)


class TestPartition:
    def pool(self, seed=15, n=4000):
        return make_blob_pool(n, 10, 3, np.random.default_rng(seed))

    def test_case1_two_classes(self):
        pool = self.pool()
        parts = partition(pool.features, pool.labels, 6, 1, (30, 60), np.random.default_rng(16))
        for p in parts:
            assert len(np.unique(p.labels)) == 2

    def test_case2_six_classes(self):
        pool = self.pool()
        parts = partition(pool.features, pool.labels, 6, 2, (60, 90), np.random.default_rng(17))
        for p in parts:
            assert len(np.unique(p.labels)) == 6

    def test_case3_all_classes(self):
        pool = self.pool()
        parts = partition(pool.features, pool.labels, 6, 3, (60, 90), np.random.default_rng(18))
        for p in parts:
            assert set(np.unique(p.labels)) == set(range(10))

    def test_sizes_in_range(self):
        pool = self.pool()
        parts = partition(pool.features, pool.labels, 8, 3, (50, 70), np.random.default_rng(19))
        assert all(50 <= p.size <= 70 for p in parts)

    def test_insufficient_pool(self):
        pool = self.pool(n=200)
        with pytest.raises(InsufficientPool):
            partition(pool.features, pool.labels, 40, 1, (80, 100), np.random.default_rng(20))

    def test_partitions_disjoint(self):
        pool = self.pool()
        parts = partition(pool.features, pool.labels, 5, 3, (40, 50), np.random.default_rng(21))
        seen = [tuple(row) for p in parts for row in p.features]
        assert len(seen) == len(set(seen))


# make_quadratic_task as one rng.normal pair per device, and partition on
# Python lists: oracles for the bytes of every dataset.
def reference_make_quadratic_task(
    n_devices, dim, rng, center_spread=1.0, sample_spread=0.1, samples_per_device=8, batch_size=None
):
    datasets = []
    for _ in range(n_devices):
        center = rng.normal(0.0, center_spread, size=dim)
        pts = center + rng.normal(0.0, sample_spread, size=(samples_per_device, dim))
        datasets.append(LocalDataset(features=pts))
    b = samples_per_device if batch_size is None else batch_size
    return QuadraticTask(datasets, batch_size=b)


def reference_partition(features, labels, n_devices, case, size_range, rng):
    lo, hi = int(size_range[0]), int(size_range[1])
    classes = np.unique(labels)
    k = {1: 2, 2: 6, 3: None}[case] or len(classes)
    pools = {int(c): list(rng.permutation(np.flatnonzero(labels == c))) for c in classes}
    out = []
    for _ in range(n_devices):
        size = int(rng.integers(lo, hi + 1))
        chosen = rng.choice(classes, size=k, replace=False)
        per_class = np.full(k, size // k)
        per_class[rng.permutation(k)[: size % k]] += 1
        idx: list[int] = []
        for c, want in zip(chosen, per_class):
            pool = pools[int(c)]
            if len(pool) < want:
                raise InsufficientPool(f"class {c} exhausted ({len(pool)} < {want})")
            idx.extend(pool[:want])
            del pool[:want]
        idx_arr = np.sort(np.asarray(idx, dtype=int))
        out.append(LocalDataset(features=features[idx_arr], labels=labels[idx_arr]))
    return out


class TestQuadraticBlockDraw:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize(
        "n_devices, dim, samples, center_spread, sample_spread",
        [
            (96, 4, 8, 0.5, 0.1),
            (5, 1, 1, 1.0, 0.1),  # dim 1, one sample per device
            (7, 3, 4, 0.0, 0.0),  # zero spreads: every point a signed zero times z
            (3, 2, 5, 0.0, 0.7),
            (4, 6, 2, 2.5, 0.0),
            (1, 1, 1, 1e-300, 1e300),
        ],
    )
    def test_bytes_equal_per_device_draws(self, seed, n_devices, dim, samples, center_spread, sample_spread):
        args = (n_devices, dim)
        kw = dict(center_spread=center_spread, sample_spread=sample_spread, samples_per_device=samples)
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        new = make_quadratic_task(*args, rng_new, **kw)
        ref = reference_make_quadratic_task(*args, rng_ref, **kw)
        assert new.batch_size == ref.batch_size and new.n_devices == ref.n_devices
        for a, b in zip(new.datasets, ref.datasets):
            assert_same_bits(a.features, b.features)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state  # the same draws consumed

    @pytest.mark.parametrize("key", ["center_spread", "sample_spread"])
    def test_negative_spread_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            make_quadratic_task(3, 2, np.random.default_rng(0), **{key: -0.5})


class TestPartitionArrays:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_bytes_equal_list_partition(self, seed, case):
        pool = make_blob_pool(3000, 10, 3, np.random.default_rng(seed))
        args = (pool.features, pool.labels, 12, case, (20, 60))
        rng_new, rng_ref = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        new, ref = partition(*args, rng_new), reference_partition(*args, rng_ref)
        assert len(new) == len(ref)
        for a, b in zip(new, ref):
            assert_same_bits(a.features, b.features)
            assert_same_bits(a.labels, b.labels)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_exhausted_class_same_message(self, seed, case):
        pool = make_blob_pool(400, 10, 2, np.random.default_rng(seed))
        args = (pool.features, pool.labels, 40, case, (15, 40))
        with pytest.raises(InsufficientPool) as new:
            partition(*args, np.random.default_rng(seed))
        with pytest.raises(InsufficientPool) as ref:
            reference_partition(*args, np.random.default_rng(seed))
        assert "exhausted" in str(new.value) and str(new.value) == str(ref.value)
