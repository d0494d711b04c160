"""Pairwise example mixing with Beta-distributed ratios.

Vanilla mixing pairs two instance-balanced draws; label-occurrence-balanced
(LOB) mixing pairs two independent class-balanced draws so that every class
receives the same expected share of soft-label mass.
"""
from __future__ import annotations

import numpy as np

from .longtail import ClassIndex
from .samplers import kind_pair, sample_batch


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
    if not 0 < alpha < np.inf:  # Beta(inf, inf) ratios come out NaN
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    g1 = rng.standard_gamma(alpha, size=size)
    g2 = rng.standard_gamma(alpha, size=size)
    lam = g1 / np.maximum(g1 + g2, np.finfo(np.float64).tiny)
    lam = 1.0 - (1.0 - np.clip(lam, LAMBDA_MIN, LAMBDA_MAX))
    return float(lam) if size is None else lam


def pair_weights(class_i: np.ndarray, class_j: np.ndarray, lam) -> tuple[np.ndarray, np.ndarray]:
    """Target mass on (class_i, class_j) per row: (lam, 1 - lam), or (1, 0) where they coincide.

    Complement-stable ratios make lam + (1 - lam) exactly 1, so each row's
    target is a point of the probability simplex.
    """
    w_i = np.where(class_i == class_j, 1.0, lam)
    return w_i, 1.0 - w_i


def draw_pairs(
    kinds: tuple[str, ...],
    index: ClassIndex,
    alpha: float,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``size`` mixed rows ``(i, j, lam)`` from two independent samplers of the given kinds.

    ``("ib", "ib")`` is vanilla mixing and ``("cb", "cb")`` label-occurrence-balanced
    mixing; mixing ratios are drawn from Beta(alpha, alpha). Member a, then
    member b, then the ratios are drawn from ``rng`` in that fixed order, so
    the generator's address regenerates the rows. Row r's target puts
    :func:`pair_weights` on the classes of examples ``i[r]`` and ``j[r]``.
    One kind draws unmixed rows ``(i, i, ones)`` from member a alone, ``lam`` a float64 array of ones.
    Any other number of kinds raises ValueError (:func:`~lobmix.samplers.kind_pair`).
    """
    a, b = kind_pair(kinds)
    i = sample_batch(a, index, rng, size)
    if len(kinds) == 1:
        return i, i, np.ones(size)
    j = sample_batch(b, index, rng, size)
    return i, j, sample_lambda(alpha, rng, size=size)


def blend(features: np.ndarray, i: np.ndarray, j: np.ndarray, lam: np.ndarray, out: tuple | None = None) -> np.ndarray:
    """Feature rows ``lam * features[i] + (1 - lam) * features[j]``.

    The rows are built in two arrays, the gathered ``features[i]`` and
    ``features[j]``, scaled and summed in place: the same IEEE operations in
    the same order as the expression, so the same bits. ``features`` is not
    changed. Without ``out`` the two arrays are new; with ``out=(a, b)``, two
    ``(len(i), D)`` float64 arrays, they are ``a`` and ``b``, and ``a`` is
    returned. The gathers into ``out`` clip an index outside ``[0, N)`` to
    the nearest row instead of raising (a bounds-checked gather into ``out``
    would go through a hidden copy of it), so the caller checks ``i`` and
    ``j``, as :func:`~lobmix.trainer.train` does.
    """
    a, b = (None, None) if out is None else out
    mode = "raise" if out is None else "clip"
    rows = features.take(i, axis=0, out=a, mode=mode)
    rows *= lam[:, None]
    other = features.take(j, axis=0, out=b, mode=mode)
    other *= (1.0 - lam)[:, None]
    rows += other
    return rows
