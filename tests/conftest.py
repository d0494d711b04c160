import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from lobmix import (
    CB,
    IB,
    ClassIndex,
    ImbalanceProfile,
    LabeledDataset,
    blend,
    draw_pairs,
    evaluate,
    loss_and_grad,
    longtail_split,
    make_rng,
)
from lobmix.trainer import (
    EpochStats,
    TrainingDiverged,
    default_groups,
    init_params,
)

# Exponential profile for 10 classes at imbalance 10, largest class 5000.
# Frozen from an independent evaluation of n_max * rho**(-k/9) with half-up
# rounding; total is 20434.
CIFAR_LT_RHO10 = (5000, 3871, 2997, 2321, 1797, 1391, 1077, 834, 646, 500)


@pytest.fixture(scope="session")
def lt_counts() -> tuple[int, ...]:
    return ImbalanceProfile("exponential", 10, 5000).class_counts(10)


def labels_only_dataset(counts) -> LabeledDataset:
    """``counts[k]`` examples of class k, in class order, with zero feature columns.

    Sampling and occurrence statistics depend only on labels and mixing
    ratios, so the features are an (N, 0) matrix that holds no bytes.
    """
    counts = [int(n) for n in counts]
    labels = np.repeat(np.arange(len(counts)), counts)
    return LabeledDataset(np.zeros((labels.size, 0)), labels, len(counts))


@pytest.fixture(scope="session")
def lt_dataset(lt_counts) -> LabeledDataset:
    """Labels-only dataset with the rho=10 exponential profile."""
    return labels_only_dataset(lt_counts)


def with_ones(x) -> np.ndarray:
    """The ``(B, D)`` feature rows ``x`` widened by a last column of ones, as a dataset's ``rows`` hold them."""
    return np.column_stack((x, np.ones(len(x))))


def split_datasets(base: LabeledDataset, counts, test_per_class: int, seed: int):
    """``(train, test, manifest)``: the rows of ``base`` at the indices ``longtail_split`` returns for it."""
    test_idx, manifest = longtail_split(base.class_index(), counts, test_per_class, seed)
    train, test = (
        LabeledDataset(base.features[idx], base.labels[idx], base.num_classes) for idx in (manifest.kept_indices, test_idx)
    )
    return train, test, manifest


def hex_block(indices) -> str:
    """The ``kept_indices`` block of a layout-3 manifest holding ``indices``: 8 hex digits, 4 little-endian bytes, each."""
    return "".join(int(i).to_bytes(4, "little").hex() for i in indices)


def traced_peak(fn, *args, **kwargs):
    """``(result, peak)``: what ``fn(*args, **kwargs)`` returns, and the traced peak, in bytes, of what it allocates."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# Dense scalar reference for one mixed row: the oracle that the vectorized
# blend, pair_weights and two-term loss are checked against.


@dataclass(frozen=True)
class SoftLabel:
    """Probability vector over classes."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))

    @classmethod
    def one_hot(cls, label: int, num_classes: int) -> "SoftLabel":
        w = np.zeros(num_classes)
        w[label] = 1.0
        return cls(w)

    @classmethod
    def mixed(cls, class_i: int, class_j: int, lam: float, num_classes: int) -> "SoftLabel":
        if class_i == class_j:
            return cls.one_hot(class_i, num_classes)
        w = np.zeros(num_classes)
        w[class_i] = lam
        w[class_j] = 1.0 - lam
        return cls(w)


@dataclass(frozen=True)
class MixedExample:
    """One mixed example: convex feature blend, soft label, and provenance."""

    features: np.ndarray
    label: SoftLabel
    lam: float
    src: tuple[int, int, int, int]  # (index_i, index_j, class_i, class_j)


def mix_pair(
    x_i: np.ndarray,
    y_i: int,
    x_j: np.ndarray,
    y_j: int,
    lam: float,
    num_classes: int,
    src: tuple[int, int] | None = None,
) -> MixedExample:
    """Blend two labeled examples: lam * (x_i, y_i) + (1 - lam) * (x_j, y_j)."""
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape:
        raise ValueError(f"feature shape mismatch: {x_i.shape} vs {x_j.shape}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"mixing ratio must lie strictly inside (0, 1), got {lam}")
    mu = 1.0 - lam
    i, j = src if src is not None else (-1, -1)
    return MixedExample(
        features=lam * x_i + mu * x_j,
        label=SoftLabel.mixed(int(y_i), int(y_j), lam, num_classes),
        lam=lam,
        src=(int(i), int(j), int(y_i), int(y_j)),
    )


def mix_pair_rows(dataset: LabeledDataset, i, j, lam) -> list:
    """Every mixed row ``(i[r], j[r], lam[r])`` rebuilt by the scalar reference ``mix_pair``."""
    y = dataset.labels
    return [
        mix_pair(dataset.features[a], y[a], dataset.features[b], y[b], float(m), dataset.num_classes, src=(a, b))
        for a, b, m in zip(i, j, lam)
    ]


def dense_targets(dataset: LabeledDataset, i, j, lam) -> np.ndarray:
    """The (B, C) soft-label rows of mixed rows ``(i, j, lam)``, from ``mix_pair``."""
    return np.stack([row.label.weights for row in mix_pair_rows(dataset, i, j, lam)])


# Oracles of the sampler distributions and of the trainer's loss: the
# chi-square tests and the gradient checks compare against these.


def selection_probability(kind: str, index: ClassIndex) -> np.ndarray:
    """Per-example selection probabilities over 0..N-1 implied by a sampler kind on a class index."""
    if index.total == 0:
        raise ValueError("empty dataset")
    probs = np.empty(index.total, dtype=np.float64)
    if kind == IB:
        probs.fill(1.0 / index.total)
    elif kind != CB:
        raise ValueError(f"no selection oracle for sampler kind {kind!r}")
    elif np.any(index.counts == 0):
        raise ValueError("class-balanced sampling requires every class to be populated")
    else:
        probs[index.flat] = np.repeat(1.0 / (index.counts * index.num_classes), index.counts)
    return probs


def soft_cross_entropy(probs: np.ndarray, target: np.ndarray):
    """Cross entropy -sum(target * log(probs)), with probs floored at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    losses = -(target * np.log(np.maximum(probs, 1e-12))).sum(axis=-1)
    return float(losses) if losses.ndim == 0 else losses


def expected_kinds(strategy: str, epoch: int, switch_epoch: int | None) -> tuple[str, ...]:
    """The sampler kinds of a strategy's rows in ``epoch``, written out apart from ``trainer.STRATEGIES``.

    One kind is unmixed: each drawn example paired with itself, at λ = 1.
    """
    if strategy == "erm":
        return (IB,)
    if strategy == "mixup":
        return (IB, IB)
    if strategy == "lob":
        return (CB, CB)
    if strategy == "deferred":  # vanilla mixing, then LOB mixing from the switch epoch on
        return (IB, IB) if epoch < switch_epoch else (CB, CB)
    raise ValueError(f"no expected schedule for strategy {strategy!r}")


# Reference of the trainer's loop: one loss_and_grad call per batch, with the
# loss checked batch by batch, and every draw blended, unmixed rows too. train
# hoists the per-row target work out of its batch loop, only gathers unmixed
# rows, and folds loss_and_grad's 1/batch_size into its learning rate, and must
# return the same bits: at a power-of-two batch size both scalings are exact.


@np.errstate(over="ignore", invalid="ignore")
def reference_train(train_ds: LabeledDataset, test_ds: LabeledDataset, cfg):
    """``(W, history)`` of plain SGD, ``W -= lr * grad``, run batch by batch through ``loss_and_grad``."""
    assert cfg.batch_size & (cfg.batch_size - 1) == 0, "the fold of 1/batch_size is exact at a power of two"
    index = train_ds.class_index()
    W = init_params(train_ds.dim, train_ds.num_classes, seed=cfg.seed)
    groups = default_groups(index.counts)
    history = []
    rows_per_epoch = cfg.batches_per_epoch * cfg.batch_size
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** sum(1 for e in cfg.lr_decay_epochs if epoch >= e)
        kinds = expected_kinds(cfg.strategy, epoch, cfg.lr_decay_epochs[0] if cfg.lr_decay_epochs else None)
        i, j, lam = draw_pairs(kinds, index, cfg.alpha, make_rng(cfg.seed, "epoch", epoch), rows_per_epoch)
        c_i, c_j = train_ds.labels[i], train_ds.labels[j]
        losses = np.empty(cfg.batches_per_epoch)
        for b in range(cfg.batches_per_epoch):
            rows = slice(b * cfg.batch_size, (b + 1) * cfg.batch_size)
            x = blend(train_ds.features, i[rows], j[rows], lam[rows])  # unmixed rows too: (i, i, ones)
            loss, grad = loss_and_grad(W, x, c_i[rows], c_j[rows], lam[rows])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} at epoch {epoch}, batch {b}")
            losses[b] = loss
            W -= lr * grad
        if not np.isfinite(W).all():
            raise TrainingDiverged(f"non-finite weights after epoch {epoch}")
        history.append(EpochStats(epoch, lr, float(losses.mean()), evaluate(W, test_ds, groups)))
    return W, history
