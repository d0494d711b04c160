"""Instance-balanced (``ib``) and class-balanced (``cb``) example samplers.

Both samplers draw with replacement. The class-balanced sampler is the
two-stage scheme: pick a class uniformly, then an example uniformly within
the class, so each example in class k is selected with probability
1/(n_k * C) instead of the instance-balanced 1/N. This module alone says
what a sampler kind, :data:`IB` or :data:`CB`, means; it rejects any other,
and a draw of other than one or two kinds.
"""
from __future__ import annotations

import numpy as np

from .longtail import ClassIndex

IB, CB = "ib", "cb"


def _known(kind: str) -> str:
    if kind not in (IB, CB):
        raise ValueError(f"unknown sampler kind {kind!r}, expected {IB!r} or {CB!r}")
    return kind


def kind_pair(kinds: tuple[str, ...]) -> tuple[str, str]:
    """A draw's sampler kinds as a pair: two kinds mix, and one kind ``k``, an unmixed draw, is ``(k, k)``."""
    if len(kinds) not in (1, 2):
        raise ValueError(f"a draw takes one or two sampler kinds, got {kinds!r}")
    return kinds[0], kinds[-1]


def sample_batch(kind: str, index: ClassIndex, rng: np.random.Generator, batch_size: int) -> np.ndarray:
    """Draw ``batch_size`` i.i.d. example indices from ``rng`` with the given sampler kind."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if _known(kind) == IB:
        out = rng.integers(0, index.total, size=batch_size)
    else:
        counts = index.counts
        if np.any(counts == 0):
            raise ValueError("class-balanced sampling requires every class to be populated")
        classes = rng.integers(0, index.num_classes, size=batch_size)
        within = rng.integers(0, counts[classes])
        out = index.flat[index.offsets[classes] + within]
    return out.astype(np.int64)


def class_masses(kind: str, counts: list[int]) -> tuple[list[int], int]:
    """A sampler's class masses as integer numerators over one denominator: ``(n_k, N)`` or ``(1, C)``."""
    if _known(kind) == CB:
        return [1] * len(counts), len(counts)
    return counts, sum(counts)
