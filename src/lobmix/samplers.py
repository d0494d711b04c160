"""Instance-balanced and class-balanced example samplers.

Both samplers draw with replacement. The class-balanced sampler is the
two-stage scheme: pick a class uniformly, then an example uniformly within
the class, so each example in class k is selected with probability
1/(n_k * C) instead of the instance-balanced 1/N.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .longtail import ClassIndex


class SamplerKind(str, Enum):
    INSTANCE_BALANCED = "instance_balanced"
    CLASS_BALANCED = "class_balanced"

    @classmethod
    def parse(cls, text: str) -> "SamplerKind":
        aliases = {"ib": cls.INSTANCE_BALANCED, "cb": cls.CLASS_BALANCED}
        key = text.strip().lower()
        if key in aliases:
            return aliases[key]
        return cls(key)


IB = SamplerKind.INSTANCE_BALANCED
CB = SamplerKind.CLASS_BALANCED


@dataclass(frozen=True)
class SamplingDistribution:
    """Per-example selection probabilities over 0..N-1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))

    def class_mass(self, index: ClassIndex) -> np.ndarray:
        """Total selection probability per class."""
        return np.array([self.probs[idx].sum() for idx in index.per_class])


def selection_probability(kind: SamplerKind, index: ClassIndex) -> SamplingDistribution:
    """Selection distribution implied by a sampler kind on a class index."""
    if index.total == 0:
        raise ValueError("empty dataset")
    probs = np.empty(index.total, dtype=np.float64)
    if kind is IB:
        probs.fill(1.0 / index.total)
    else:
        num_classes = index.num_classes
        for idx in index.per_class:
            if idx.size == 0:
                raise ValueError("class-balanced sampling requires every class to be populated")
            probs[idx] = 1.0 / (idx.size * num_classes)
    return SamplingDistribution(probs)


def sample_batch(kind: SamplerKind, index: ClassIndex, rng: np.random.Generator, batch_size: int) -> np.ndarray:
    """Draw ``batch_size`` i.i.d. example indices from ``rng`` with the given sampler kind."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if kind is IB:
        out = rng.integers(0, index.total, size=batch_size)
    else:
        counts = index.counts
        if np.any(counts == 0):
            raise ValueError("class-balanced sampling requires every class to be populated")
        classes = rng.integers(0, index.num_classes, size=batch_size)
        within = rng.integers(0, counts[classes])
        out = index.flat[index.offsets[classes] + within]
    return out.astype(np.int64)
