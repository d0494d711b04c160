"""Pairwise example mixing with Beta-distributed ratios.

Vanilla mixing pairs two instance-balanced draws; label-occurrence-balanced
(LOB) mixing pairs two independent class-balanced draws so that every class
receives the same expected share of soft-label mass.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .longtail import ClassIndex, LabeledDataset
from .samplers import SamplerKind, sample_batch


_LAM_EPS = 1e-7
# Complement-stable clamp bounds: x is "stable" when 1-(1-x) reproduces x
# bitwise, which makes mixing exactly symmetric under operand exchange.
LAMBDA_MIN = 1.0 - (1.0 - _LAM_EPS)
LAMBDA_MAX = 1.0 - LAMBDA_MIN


def sample_lambda(alpha: float, rng: np.random.Generator, size: int | None = None):
    """Draw mixing ratios from Beta(alpha, alpha), kept strictly inside (0, 1).

    Sampled as a ratio of two Gamma(alpha) variates. Draws are clamped away
    from the endpoints and complement-stabilized so that ``1 - (1 - lam)``
    round-trips bitwise.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    g1 = rng.standard_gamma(alpha, size=size)
    g2 = rng.standard_gamma(alpha, size=size)
    lam = g1 / np.maximum(g1 + g2, np.finfo(np.float64).tiny)
    lam = 1.0 - (1.0 - np.clip(lam, LAMBDA_MIN, LAMBDA_MAX))
    return float(lam) if size is None else lam


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


@dataclass(frozen=True)
class MixedBatch:
    """A batch of mixed examples stored as parallel arrays.

    Row r is fully described by ``src[r] = (i, j, c_i, c_j)`` and
    ``lams[r] = lam``: ``features[r] = lam * x_i + (1 - lam) * x_j`` and its
    target puts lam on class c_i and 1 - lam on class c_j (all of it on c_i
    when the classes coincide), as :func:`mix_pair` does for one pair.
    """

    features: np.ndarray
    lams: np.ndarray
    src: np.ndarray

    def __post_init__(self) -> None:
        if len(self.features) == 0:
            raise ValueError("a mixed batch cannot be empty")

    def __len__(self) -> int:
        return self.features.shape[0]


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


def pair_weights(class_i: np.ndarray, class_j: np.ndarray, lam) -> tuple[np.ndarray, np.ndarray]:
    """Target mass on (class_i, class_j) per row: (lam, 1 - lam), or (1, 0) where they coincide.

    These are the nonzero entries of :meth:`SoftLabel.mixed`, bitwise:
    complement-stable ratios make lam + (1 - lam) exactly 1.
    """
    w_i = np.where(class_i == class_j, 1.0, lam)
    return w_i, 1.0 - w_i


def make_batch(
    dataset: LabeledDataset,
    index: ClassIndex,
    batch_size: int,
    alpha: float,
    kinds: tuple[SamplerKind, SamplerKind],
    rng: np.random.Generator,
) -> MixedBatch:
    """Mix ``batch_size`` pairs drawn by two independent samplers of the given kinds.

    ``(IB, IB)`` is vanilla mixing and ``(CB, CB)`` label-occurrence-balanced
    mixing; mixing ratios are drawn from Beta(alpha, alpha). Member a, then
    member b, then the ratios are drawn from ``rng`` in that fixed order, so
    the generator's address regenerates the batch.
    """
    i = sample_batch(kinds[0], index, rng, batch_size)
    j = sample_batch(kinds[1], index, rng, batch_size)
    lam = sample_lambda(alpha, rng, size=batch_size)
    features = lam[:, None] * dataset.features[i] + (1.0 - lam)[:, None] * dataset.features[j]
    return MixedBatch(
        features=features,
        lams=lam,
        src=np.stack([i, j, dataset.labels[i], dataset.labels[j]], axis=1),
    )


def write_batch_audit(path: str | Path, batch: MixedBatch) -> None:
    """Dump pairing provenance as JSON lines (features omitted)."""
    with Path(path).open("w") as fh:
        for k in range(len(batch)):
            i, j, ci, cj = (int(v) for v in batch.src[k])
            record = {
                "lambda": float(batch.lams[k]),
                "src_i": i,
                "src_j": j,
                "class_i": ci,
                "class_j": cj,
            }
            fh.write(json.dumps(record) + "\n")
