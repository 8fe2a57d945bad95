"""Loss/gradient oracles, synthetic datasets, and non-IID partitioning.

Model parameters are plain 1-D numpy vectors. Three task families:

* quadratic -- each device holds target points c_ij and the per-sample loss is
  ||w - c||^2 / 2, so every quantity of interest (optimum, gap, gradient
  noise) has a closed form. This is the main verification vehicle.
* logistic -- binary logistic regression on small hand-sized datasets.
* tiny_mlp -- one hidden layer with manual backprop, for qualitative
  multi-class runs at desk scale.

The quadratic task also works on exact-rational vectors (numpy object arrays
of fractions.Fraction): all its arithmetic is +, -, *, / so trajectories can
be computed without floating-point rounding.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np


class BatchTooLarge(ValueError):
    """Requested mini-batch exceeds the device's dataset."""


class InsufficientPool(ValueError):
    """Labeled pool cannot supply the requested partition."""


@dataclass
class LocalDataset:
    """One device's training data: feature rows plus (optional) labels."""

    features: np.ndarray
    labels: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.features)


def _sample_batch(size: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement indices, sorted for a deterministic sum order:
    the positions of the `batch` smallest of `size` uniform keys, one draw."""
    if batch > size:
        raise BatchTooLarge(f"batch {batch} > dataset size {size}")
    if batch == size:
        return np.arange(size)
    idx = rng.random(size).argpartition(batch - 1)[:batch]
    idx.sort()
    return idx


def _sample_batches(size: int, batch: int, rng: np.random.Generator, steps: int) -> np.ndarray:
    """`steps` successive `_sample_batch` draws as the rows of one index block.

    One `(steps, size)` key draw fills the rows with the doubles `steps`
    successive `rng.random(size)` calls would give, so row k is the k-th
    per-step draw. Only the sorted `(steps, batch)` indices outlive the call.
    """
    if batch > size:
        raise BatchTooLarge(f"batch {batch} > dataset size {size}")
    if batch == size:
        return np.broadcast_to(np.arange(size), (steps, size))
    return np.sort(rng.random((steps, size)).argpartition(batch - 1, axis=1)[:, :batch], axis=1)


class Task:
    """Common surface: per-device losses and (stochastic) gradients.

    A task supplies `local_loss` and `batch_gradient`; the full, stochastic
    and global gradients are derived from `batch_gradient` here, the
    stochastic one from a device's batch stream (`sample_batches`), whose
    items `step_gradient` turns into gradients. Here an item is a row of
    batch indices; a task may pre-reduce its stream by overriding both.
    """

    kind: str
    theory_source = "certified"  # how theory_constants are known: "exact" or "certified"

    def __init__(self, datasets: list[LocalDataset], batch_size: int):
        self.datasets = datasets
        self.batch_size = int(batch_size)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        if any(ds.size < self.batch_size for ds in datasets):
            raise BatchTooLarge("batch size exceeds a device dataset")
        self.dim = int(np.shape(datasets[0].features)[1])  # one weight per feature

    @property
    def n_devices(self) -> int:
        return len(self.datasets)

    def dataset_sizes(self) -> list[int]:
        return [d.size for d in self.datasets]

    def local_loss(self, device: int, w: np.ndarray) -> float:
        raise NotImplementedError

    def batch_gradient(self, device: int, w: np.ndarray, idx: np.ndarray | slice) -> np.ndarray:
        """Mean-loss gradient over the rows `idx`: an index array or slice(None)."""
        raise NotImplementedError

    def theory_constants(self, w0: np.ndarray, weighted: bool = False) -> dict:
        """The TheoryParams constants (lipschitz, sigma2, gap0) this task can
        bound for the objective trained from w0, device-averaged or, when
        `weighted`, dataset-size-weighted; none without a cheap global bound."""
        return {}

    def full_gradient(self, device: int, w: np.ndarray) -> np.ndarray:
        return self.batch_gradient(device, w, slice(None))

    def sample_batches(self, device: int, rng: np.random.Generator, steps: int) -> Iterator[np.ndarray]:
        """The device's batch stream for `steps` steps: uniform mini-batches
        drawn as one block, equal to `steps` successive per-step draws; each
        item is one mini-batch's index row."""
        return iter(_sample_batches(self.datasets[device].size, self.batch_size, rng, steps))

    def step_gradient(self, device: int, w: np.ndarray, batch) -> np.ndarray:
        """Gradient of the mean loss over one item of the batch stream."""
        return self.batch_gradient(device, w, batch)

    def stochastic_gradient(self, device: int, w: np.ndarray, batches: Iterator) -> np.ndarray:
        """Gradient of the mean loss over the next mini-batch of the stream."""
        return self.step_gradient(device, w, next(batches))

    def global_gradient(self, w: np.ndarray, weighted: bool = False) -> np.ndarray:
        """Full-batch gradient of the global objective: the device average or,
        when `weighted`, the dataset-size-weighted average."""
        sizes = self.dataset_sizes()
        mass = sum(sizes)
        coeffs = [s / mass for s in sizes] if weighted else [1] * len(sizes)
        total = coeffs[0] * self.full_gradient(0, w)
        for i in range(1, self.n_devices):
            total = total + coeffs[i] * self.full_gradient(i, w)
        return total if weighted else total / self.n_devices


class QuadraticTask(Task):
    """Per-sample loss ||w - c||^2 / 2 on device-local target points."""

    kind = "quadratic"
    theory_source = "exact"

    def device_mean(self, device: int):
        return self._batch_means(device, slice(None))

    def local_loss(self, device: int, w: np.ndarray):
        feats = self.datasets[device].features
        diff = feats - w[None, :]
        return (diff * diff).sum() / len(feats) / 2

    def _batch_means(self, device: int, idx: np.ndarray | slice) -> np.ndarray:
        """Mean target over the rows `idx`, or per row of a 2-D index block:
        one numpy reduction for both keeps them bit-identical, which a loop
        over the batch would not (numpy sums a one-feature batch pairwise)."""
        batch = self.datasets[device].features[idx]
        return batch.sum(axis=-2) / batch.shape[-2]

    def batch_gradient(self, device: int, w: np.ndarray, idx: np.ndarray | slice) -> np.ndarray:
        return w - self._batch_means(device, idx)

    def sample_batches(self, device: int, rng: np.random.Generator, steps: int) -> Iterator[np.ndarray]:
        """The base stream pre-reduced: each item is its mini-batch's mean
        target, since the gradient w - mean does not otherwise read the batch."""
        idx = _sample_batches(self.datasets[device].size, self.batch_size, rng, steps)
        return iter(self._batch_means(device, idx))

    def step_gradient(self, device: int, w: np.ndarray, batch: np.ndarray) -> np.ndarray:
        return w - batch  # the stream item is the batch's mean target

    def theory_constants(self, w0: np.ndarray, weighted: bool = False) -> dict:
        """L = 1 (the Hessian is I), the noise bound below and F(w0) - F(optimum),
        exact for the device average, which weighting changes only when
        dataset sizes differ."""
        if weighted and len(set(self.dataset_sizes())) > 1:
            return {}
        loss = flat_global_loss(self)
        gap0 = float(loss(w0) - loss(self.optimum()))
        return {"lipschitz": 1.0, "sigma2": self.gradient_noise_sigma2(), "gap0": gap0}

    def optimum(self) -> np.ndarray:
        """Unweighted global minimizer: the mean of the device means."""
        total = self.device_mean(0)
        for i in range(1, self.n_devices):
            total = total + self.device_mean(i)
        return total / self.n_devices

    def gradient_noise_sigma2(self) -> float:
        """Exact uniform bound on E||g_i(w) - grad F(w)||^2 over devices and w.

        For this task the stochastic gradient at device i deviates from the
        global full gradient by (a_bar - a_i) + (a_i - batch mean), which is
        independent of w; the two parts are uncorrelated, and the batch-mean
        variance follows the without-replacement sampling formula.
        """
        a_bar = self.optimum()
        worst = 0.0
        for i, ds in enumerate(self.datasets):
            a_i = self.device_mean(i)
            hetero = float(np.dot(a_i - a_bar, a_i - a_bar))
            d_i, b = ds.size, self.batch_size
            if d_i > 1 and b < d_i:
                centered = ds.features - a_i[None, :]
                s2 = float((centered * centered).sum()) / (d_i - 1)
                sampling = s2 / b * (1.0 - b / d_i)
            else:
                sampling = 0.0
            worst = max(worst, hetero + sampling)
        return worst


def make_quadratic_task(
    n_devices: int,
    dimension: int,
    rng: np.random.Generator,
    center_spread: float = 1.0,
    sample_spread: float = 0.1,
    samples_per_device: int = 8,
    batch_size: int | None = None,
) -> QuadraticTask:
    """Random quadratic task: device centers a_i plus per-device sample clouds."""
    for name, spread in (("center_spread", center_spread), ("sample_spread", sample_spread)):
        if not spread >= 0.0:  # rng.normal's own check, which the block draw skips
            raise ValueError(f"{name} must be >= 0, got {spread}")
    # one block in the order per-device rng.normal(0.0, spread) calls draw, each
    # 0.0 + spread * z on the same stream; the 0.0 + turns a -0.0 into +0.0
    z = rng.standard_normal((n_devices, 1 + samples_per_device, dimension))
    centers = 0.0 + center_spread * z[:, :1]
    points = centers + (0.0 + sample_spread * z[:, 1:])
    b = samples_per_device if batch_size is None else batch_size
    return QuadraticTask(list(map(LocalDataset, points)), batch_size=b)


class LogisticTask(Task):
    """Binary logistic regression, labels in {-1, +1}."""

    kind = "logistic"

    def _margins(self, device: int, w: np.ndarray, idx: np.ndarray | slice = slice(None)):
        ds = self.datasets[device]
        x, y = ds.features[idx], ds.labels[idx]
        return x, y, y * (x @ w)

    def local_loss(self, device: int, w: np.ndarray) -> float:
        _, _, m = self._margins(device, w)
        return float(np.mean(np.logaddexp(0.0, -m)))

    def batch_gradient(self, device: int, w: np.ndarray, idx: np.ndarray | slice) -> np.ndarray:
        x, y, m = self._margins(device, w, idx)
        coeff = -y / (1.0 + np.exp(m))
        return (coeff[:, None] * x).mean(axis=0)

    def theory_constants(self, w0: np.ndarray, weighted: bool = False) -> dict:
        """Certified bounds from R^2 = max ||x||^2 over all devices (Bottou,
        Curtis & Nocedal, SIAM Rev. 2018): each sample's loss Hessian is at
        most x x^T / 4, so L = R^2/4; each per-sample gradient is shorter
        than ||x||, so a batch gradient is within 2R of the global one and
        sigma2 = 4R^2; the loss is >= 0, so the gap is at most F(w0).

        R^2 is rounded up so that both stay bounds: over d features ||x||^2
        rounds d squares and d - 1 sums by a relative u = 2^-53 each, and a
        subnormal square by an absolute 2^-1075; R^2 / 4 rounds by 2^-1075
        more when subnormal, and 4 R^2 is exact. So the computed max ||x||^2
        times 1 + 2 d u, plus (d + 2) 2^-1074 >= (d + 4) 2^-1075, covers both.
        """
        r2 = max(float((ds.features**2).sum(axis=1).max()) for ds in self.datasets)
        r2 = r2 * (1.0 + 2 * self.dim * 2.0**-53) + (self.dim + 2) * 2.0**-1074
        gap0 = float(flat_global_loss(self, weighted)(w0))
        return {"lipschitz": r2 / 4, "sigma2": 4 * r2, "gap0": gap0}

    def accuracy(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        pred = np.where(features @ w >= 0.0, 1, -1)
        return float(np.mean(pred == labels))


class TinyMLPTask(Task):
    """One-hidden-layer softmax classifier with manual backprop.

    Parameters are flattened as [W1 (h x in), b1 (h), W2 (k x h), b2 (k)].
    Hidden activation is tanh, which keeps the loss smooth.
    """

    kind = "tiny_mlp"

    def __init__(
        self,
        datasets: list[LocalDataset],
        batch_size: int,
        n_classes: int,
        hidden: int = 16,
    ):
        if hidden > 32:
            raise ValueError("tiny MLP is capped at 32 hidden units")
        super().__init__(datasets, batch_size)
        self.n_in = self.dim  # the base counts features; the MLP has more weights
        self.hidden = hidden
        self.n_classes = n_classes
        self.dim = hidden * self.n_in + hidden + n_classes * hidden + n_classes

    def _unpack(self, w: np.ndarray):
        h, n_in, k = self.hidden, self.n_in, self.n_classes
        ofs = 0
        w1 = w[ofs : ofs + h * n_in].reshape(h, n_in)
        ofs += h * n_in
        b1 = w[ofs : ofs + h]
        ofs += h
        w2 = w[ofs : ofs + k * h].reshape(k, h)
        ofs += k * h
        b2 = w[ofs : ofs + k]
        return w1, b1, w2, b2

    def _forward(self, x: np.ndarray, w1, b1, w2, b2):
        hid = np.tanh(x @ w1.T + b1)
        logits = hid @ w2.T + b2
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        return hid, probs

    def _gradient(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Backprop of the mean cross-entropy over (x, y); the loss itself is
        never formed, and the softmax buffer becomes dlogits in place."""
        w1, b1, w2, b2 = self._unpack(w)
        hid, dlogits = self._forward(x, w1, b1, w2, b2)
        n = len(x)
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        dw2 = dlogits.T @ hid
        db2 = dlogits.sum(axis=0)
        dhid = (dlogits @ w2) * (1.0 - hid * hid)
        dw1 = dhid.T @ x
        db1 = dhid.sum(axis=0)
        return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])

    def local_loss(self, device: int, w: np.ndarray) -> float:
        ds = self.datasets[device]
        _, probs = self._forward(ds.features, *self._unpack(w))
        return -float(np.mean(np.log(probs[np.arange(ds.size), ds.labels] + 1e-300)))

    def batch_gradient(self, device: int, w: np.ndarray, idx: np.ndarray | slice) -> np.ndarray:
        ds = self.datasets[device]
        return self._gradient(w, ds.features[idx], ds.labels[idx])

    def accuracy(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        _, probs = self._forward(features, *self._unpack(w))
        return float(np.mean(probs.argmax(axis=1) == labels))


def flat_global_loss(task: Task, weighted: bool = False):
    """Straight device average (or dataset-size-weighted average) of local losses."""

    def value(w: np.ndarray):
        losses = [task.local_loss(i, w) for i in range(task.n_devices)]
        if not weighted:
            return sum(losses) / task.n_devices
        sizes = task.dataset_sizes()
        return sum(d * l for d, l in zip(sizes, losses)) / sum(sizes)

    return value


_CASE_CLASSES = {1: 2, 2: 6, 3: None}  # None: all classes


def partition(
    features: np.ndarray,
    labels: np.ndarray,
    n_devices: int,
    case: int,
    size_range: tuple[int, int],
    rng: np.random.Generator,
) -> list[LocalDataset]:
    """Split a labeled pool across devices under one of three heterogeneity cases.

    Case 1 gives each device 2 randomly selected classes, case 2 gives 6, and
    case 3 draws uniformly from all classes. Device sizes are uniform in
    [lo, hi]. Draws are without replacement across devices, so the pool must
    be large enough; otherwise InsufficientPool is raised.
    """
    if case not in _CASE_CLASSES:
        raise ValueError(f"case must be 1, 2, or 3, got {case}")
    lo, hi = int(size_range[0]), int(size_range[1])
    if not 1 <= lo <= hi:
        raise ValueError(f"bad size range [{lo}, {hi}]")
    classes = np.unique(labels)
    if not classes.size:
        raise InsufficientPool("the pool holds no samples")
    k = _CASE_CLASSES[case] or len(classes)
    if k > len(classes):
        raise InsufficientPool(f"case {case} needs {k} classes, pool has {len(classes)}")

    pools = {int(c): rng.permutation(np.flatnonzero(labels == c)) for c in classes}
    out = []
    for _ in range(n_devices):
        size = int(rng.integers(lo, hi + 1))
        chosen = rng.choice(classes, size=k, replace=False)
        per_class = np.full(k, size // k)
        per_class[rng.permutation(k)[: size % k]] += 1
        idx = []
        for c, want in zip(chosen, per_class):
            pool = pools[int(c)]
            if len(pool) < want:
                raise InsufficientPool(f"class {c} exhausted ({len(pool)} < {want})")
            idx.append(pool[:want])
            pools[int(c)] = pool[want:]  # a view: what is left of the permutation
        idx_arr = np.sort(np.concatenate(idx))
        out.append(LocalDataset(features=features[idx_arr], labels=labels[idx_arr]))
    return out


@dataclass
class SyntheticPool:
    """Gaussian-blob classification pool for desk-scale runs."""

    features: np.ndarray
    labels: np.ndarray
    holdout_features: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    holdout_labels: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]


def make_blob_pool(
    samples: int,
    classes: int,
    dim: int,
    rng: np.random.Generator,
    spread: float = 0.6,
    holdout_fraction: float = 0.2,
) -> SyntheticPool:
    centers = rng.normal(0.0, 2.0, size=(classes, dim))
    labels = rng.integers(0, classes, size=samples)
    features = centers[labels] + rng.normal(0.0, spread, size=(samples, dim))
    n_hold = int(samples * holdout_fraction)
    return SyntheticPool(
        features=features[n_hold:],
        labels=labels[n_hold:],
        holdout_features=features[:n_hold],
        holdout_labels=labels[:n_hold],
    )
