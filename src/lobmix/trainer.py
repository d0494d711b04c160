"""Small soft-label classifier trained with SGD under configurable mixing.

The backbone is deliberately tiny (linear or one hidden tanh layer): the
sampling and mixing strategies under study are architecture-independent at
this scale, and a closed-form gradient keeps the update exactly checkable
against finite differences.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .longtail import LabeledDataset
from .mixer import MixedBatch, make_batch, pair_weights
from .samplers import CB, IB, SamplerKind, sample_batch
from .seeds import make_rng

ARCHITECTURES = ("linear", "mlp1")

GROUP_NAMES = ("head", "medium", "tail")


class Strategy(str, Enum):
    ERM = "erm"
    MIXUP = "mixup"
    LOB = "lob"
    DEFERRED = "deferred"


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite."""


@dataclass
class ModelParams:
    """Weights plus the frozen feature standardization learned from the train split."""

    arch: str
    weights: list[np.ndarray]
    feature_offset: np.ndarray
    feature_scale: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(
            arch=self.arch,
            weights=[w.copy() for w in self.weights],
            feature_offset=self.feature_offset.copy(),
            feature_scale=self.feature_scale.copy(),
        )


def init_params(
    arch: str,
    dim: int,
    num_classes: int,
    seed: int,
    hidden: int = 32,
    feature_offset: np.ndarray | None = None,
    feature_scale: np.ndarray | None = None,
) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); identity feature transform by default."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}, expected one of {ARCHITECTURES}")
    rng = make_rng(seed, "init")
    if arch == "linear":
        shapes = [(dim, num_classes)]
    else:
        shapes = [(dim, hidden), (hidden, num_classes)]
    weights: list[np.ndarray] = []
    for fan_in, fan_out in shapes:
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        weights.append(np.zeros(fan_out))
    return ModelParams(
        arch=arch,
        weights=weights,
        feature_offset=np.zeros(dim) if feature_offset is None else np.asarray(feature_offset, dtype=np.float64),
        feature_scale=np.ones(dim) if feature_scale is None else np.asarray(feature_scale, dtype=np.float64),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_parts(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    z = (x - params.feature_offset) / params.feature_scale
    if params.arch == "linear":
        w, b = params.weights
        return _softmax(z @ w + b), z, None
    w1, b1, w2, b2 = params.weights
    h = np.tanh(z @ w1 + b1)
    return _softmax(h @ w2 + b2), z, h


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one feature vector or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input features")
    single = x.ndim == 1
    probs, _, _ = _forward_parts(params, np.atleast_2d(x))
    return probs[0] if single else probs


def soft_cross_entropy(probs: np.ndarray, target: np.ndarray):
    """Cross entropy -sum(target * log(probs)), with probs floored at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    losses = -(target * np.log(np.maximum(probs, 1e-12))).sum(axis=-1)
    return float(losses) if losses.ndim == 0 else losses


def _loss_and_grad(
    params: ModelParams, x: np.ndarray, c_i: np.ndarray, c_j: np.ndarray, lam: np.ndarray | float
) -> tuple[float, list[np.ndarray]]:
    """Mean mixed cross entropy and its gradient for targets given as class pairs.

    Row r's target carries :func:`pair_weights` on classes c_i and c_j.
    Cross entropy is linear in the target, so the loss is the two weighted
    terms and the logit gradient is ``probs`` minus a two-element scatter,
    through flat indices; no (B, C) target is built.
    """
    n = x.shape[0]
    dlogits, z, h = _forward_parts(params, x)
    flat = dlogits.reshape(-1)  # a view: the probabilities become the logit gradient in place
    rows = np.arange(n) * dlogits.shape[1]
    at_i, at_j = rows + c_i, rows + c_j
    w_i, w_j = pair_weights(c_i, c_j, lam)
    log_i = np.log(np.maximum(flat[at_i], 1e-12))
    log_j = np.log(np.maximum(flat[at_j], 1e-12))
    loss = float((-(w_i * log_i + w_j * log_j)).mean())
    flat[at_i] -= w_i
    flat[at_j] -= w_j
    dlogits /= n
    if params.arch == "linear":
        return loss, [z.T @ dlogits, dlogits.sum(axis=0)]
    w1, b1, w2, b2 = params.weights
    dw2 = h.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dpre = (dlogits @ w2.T) * (1.0 - h * h)
    return loss, [z.T @ dpre, dpre.sum(axis=0), dw2, db2]


def grad(params: ModelParams, batch: MixedBatch) -> list[np.ndarray]:
    """Exact gradient of the mean soft cross entropy over a mixed batch."""
    return _loss_and_grad(params, batch.features, batch.src[:, 2], batch.src[:, 3], batch.lams)[1]


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run; the CLI's ``train`` config section holds every field but ``seed``."""

    epochs: int
    batches_per_epoch: int
    batch_size: int
    lr: float
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1
    alpha: float = 1.0  # the usual choice at this scale; 0.2 is common for very large image corpora
    strategy: Strategy = Strategy.MIXUP
    seed: int = 0
    defer_epoch: int | None = None
    arch: str = "linear"
    hidden: int = 32
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        object.__setattr__(self, "lr_decay_epochs", tuple(int(e) for e in self.lr_decay_epochs))
        if self.epochs < 1 or self.batches_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("epochs, batches_per_epoch and batch_size must all be >= 1")
        if self.lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {self.lr}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if any(b <= a for a, b in zip(self.lr_decay_epochs, self.lr_decay_epochs[1:])):
            raise ValueError(f"decay epochs must be strictly increasing, got {self.lr_decay_epochs}")
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.strategy is Strategy.DEFERRED:
            if self.switch_epoch is None:
                raise ValueError("deferred strategy needs defer_epoch or at least one lr decay epoch")
            if not 0 < self.switch_epoch < self.epochs:
                raise ValueError(
                    f"defer epoch {self.switch_epoch} must lie strictly inside (0, epochs={self.epochs})"
                )

    @property
    def switch_epoch(self) -> int | None:
        """Epoch at which the deferred strategy switches to balanced mixing."""
        if self.defer_epoch is not None:
            return self.defer_epoch
        return self.lr_decay_epochs[0] if self.lr_decay_epochs else None


@dataclass(frozen=True)
class EvalReport:
    """Per-class recalls with balanced / overall / per-group aggregates."""

    per_class_recall: np.ndarray
    balanced_accuracy: float
    overall_accuracy: float
    group_accuracy: dict[str, float | None]

    def to_dict(self) -> dict:
        return {
            "per_class_recall": [float(r) for r in self.per_class_recall],
            "balanced_accuracy": self.balanced_accuracy,
            "overall_accuracy": self.overall_accuracy,
            "group_accuracy": dict(self.group_accuracy),
        }


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    balanced_acc: float
    head_acc: float | None
    med_acc: float | None
    tail_acc: float | None


def default_groups(counts) -> dict[int, str]:
    """Rank-tercile grouping: largest third head, smallest third tail."""
    sizes = np.asarray(list(counts))
    num_classes = sizes.shape[0]
    order = sorted(range(num_classes), key=lambda k: (-sizes[k], k))
    n_edge = max(1, int(np.ceil(num_classes / 3)))
    groups = {}
    for rank, k in enumerate(order):
        if rank < n_edge:
            groups[k] = "head"
        elif rank >= num_classes - n_edge:
            groups[k] = "tail"
        else:
            groups[k] = "medium"
    return groups


def evaluate(params: ModelParams, test: LabeledDataset, groups: dict[int, str]) -> EvalReport:
    """Argmax predictions scored as per-class recall plus group means."""
    probs = forward(params, test.features)
    predicted = probs.argmax(axis=1)
    recalls = np.empty(test.num_classes)
    for k in range(test.num_classes):
        mask = test.labels == k
        if not mask.any():
            raise ValueError(f"class {k} missing from the evaluation set")
        recalls[k] = float(np.mean(predicted[mask] == k))
    group_acc: dict[str, float | None] = {}
    for name in GROUP_NAMES:
        members = [k for k in range(test.num_classes) if groups.get(k) == name]
        group_acc[name] = float(np.mean(recalls[members])) if members else None
    return EvalReport(
        per_class_recall=recalls,
        balanced_accuracy=float(recalls.mean()),
        overall_accuracy=float(np.mean(predicted == test.labels)),
        group_accuracy=group_acc,
    )


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    decayed = sum(1 for e in cfg.lr_decay_epochs if epoch >= e)
    return cfg.lr * cfg.lr_decay_factor**decayed


def _epoch_sampler_kinds(cfg: TrainConfig, epoch: int) -> tuple[SamplerKind, SamplerKind] | None:
    """Samplers feeding the mixer in this epoch; None for unmixed (ERM) batches."""
    if cfg.strategy is Strategy.ERM:
        return None
    if cfg.strategy is Strategy.MIXUP or (cfg.strategy is Strategy.DEFERRED and epoch < cfg.switch_epoch):
        return (IB, IB)
    return (CB, CB)


def train(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    cfg: TrainConfig,
) -> tuple[ModelParams, list[EpochStats]]:
    """SGD on soft cross entropy with the configured batch source.

    Each batch draws from ``make_rng(cfg.seed, "batch", epoch, b)``, whatever
    the strategy, so runs that share a seed follow identical trajectories
    until their batch sources first differ (the deferred/vanilla equivalence
    before the switch epoch).
    """
    if train_ds.dim != test_ds.dim or train_ds.num_classes != test_ds.num_classes:
        raise ValueError("train and test sets must share feature dim and class count")
    index = train_ds.class_index()
    offset = train_ds.features.mean(axis=0)
    scale = train_ds.features.std(axis=0)
    scale[scale == 0] = 1.0
    params = init_params(
        cfg.arch,
        train_ds.dim,
        train_ds.num_classes,
        seed=cfg.seed,
        hidden=cfg.hidden,
        feature_offset=offset,
        feature_scale=scale,
    )
    groups = default_groups(index.counts)
    velocity = [np.zeros_like(w) for w in params.weights]
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        lr = _epoch_lr(cfg, epoch)
        kinds = _epoch_sampler_kinds(cfg, epoch)
        losses = np.empty(cfg.batches_per_epoch)
        for b in range(cfg.batches_per_epoch):
            rng = make_rng(cfg.seed, "batch", epoch, b)
            if kinds is None:
                rows = sample_batch(IB, index, rng, cfg.batch_size)
                labels = train_ds.labels[rows]
                loss, grads = _loss_and_grad(params, train_ds.features[rows], labels, labels, 1.0)
            else:
                batch = make_batch(train_ds, index, cfg.batch_size, cfg.alpha, kinds, rng)
                loss, grads = _loss_and_grad(params, batch.features, batch.src[:, 2], batch.src[:, 3], batch.lams)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} at epoch {epoch}, batch {b}")
            losses[b] = loss
            for w, g, v in zip(params.weights, grads, velocity):
                if cfg.weight_decay:
                    g = g + cfg.weight_decay * w
                if cfg.momentum:
                    v *= cfg.momentum
                    v -= lr * g
                    w += v
                else:
                    w -= lr * g
        report = evaluate(params, test_ds, groups)
        history.append(
            EpochStats(
                epoch=epoch,
                lr=lr,
                train_loss=float(losses.mean()),
                balanced_acc=report.balanced_accuracy,
                head_acc=report.group_accuracy["head"],
                med_acc=report.group_accuracy["medium"],
                tail_acc=report.group_accuracy["tail"],
            )
        )
    return params, history


def write_history_csv(path: str | Path, history: list[EpochStats]) -> None:
    from .occurrence import format_float

    def cell(v: float | None) -> str:
        return format_float(v) if v is not None else ""

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "balanced_acc", "head_acc", "med_acc", "tail_acc"])
        for row in history:
            writer.writerow(
                [
                    row.epoch,
                    format_float(row.lr),
                    format_float(row.train_loss),
                    format_float(row.balanced_acc),
                    cell(row.head_acc),
                    cell(row.med_acc),
                    cell(row.tail_acc),
                ]
            )
