"""Instance-balanced and class-balanced example samplers.

Both samplers draw with replacement. The class-balanced sampler is the
two-stage scheme: pick a class uniformly, then an example uniformly within
the class, so each example in class k is selected with probability
1/(n_k * C) instead of the instance-balanced 1/N.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .longtail import ClassIndex


class SamplerKind(str, Enum):
    INSTANCE_BALANCED = "instance_balanced"
    CLASS_BALANCED = "class_balanced"


IB = SamplerKind.INSTANCE_BALANCED
CB = SamplerKind.CLASS_BALANCED


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
