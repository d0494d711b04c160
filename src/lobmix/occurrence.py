"""Label-occurrence diagnostics for mixed batches.

The label occurrence ratio of class k is the share of total mixing-ratio
mass assigned to k across all mixed examples. Under random pairing on
long-tailed data this share is dominated by head classes; the functions here
compute it both analytically (from sampler selection distributions, as exact
integer numerators over one common denominator, each ratio rounded once) and
empirically (from generated batches).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .longtail import ClassIndex
from .mixer import draw_pairs
from .samplers import CB, IB, class_masses, kind_pair
from .seeds import MAX_SEED, make_rng


# The sampler kinds feeding the mixer, by combo name; `analyze` measures each, in this order.
COMBOS = {f"{a}-{b}": (a, b) for a, b in ((IB, IB), (IB, CB), (CB, CB))}


@dataclass(frozen=True)
class OccurrenceReport:
    """Per-class label-occurrence ratios and their spread.

    ``balance_ratio`` is max/min of the ratios, or None when some class got
    no mass at all. ``sample_count`` is 0 for analytic reports.
    ``head_incidence`` (fraction of examples touching a head class) is only
    present when a head mask was supplied.
    """

    ratios: np.ndarray
    balance_ratio: float | None
    sample_count: int
    head_incidence: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratios", np.asarray(self.ratios, dtype=np.float64))

    def to_dict(self) -> dict:
        return {
            "ratios": [float(g) for g in self.ratios],
            "balance_ratio": self.balance_ratio,
            "sample_count": self.sample_count,
            "head_incidence": self.head_incidence,
        }


def analytic_occurrence(kinds: tuple[str, ...], index: ClassIndex) -> OccurrenceReport:
    """Expected occurrence ratios for a pair of sampler kinds, or one, in exact arithmetic.

    In expectation each pair member contributes half of the mass (the mixing
    ratio distribution is symmetric), so the ratio for class k is the mean of
    the two samplers' class masses. Independent of alpha. One kind ``k``, an
    unmixed draw, is the pair ``(k, k)``: its ratios are the sampler's masses.

    With masses ``a_k/p`` and ``b_k/q`` that mean is ``(a_k·q + b_k·p) / (2pq)``,
    held as Python ints so no product overflows. ``int / int`` is correctly
    rounded, so each ratio, and ``balance_ratio`` (max over min numerator, the
    common denominator cancelling), is the float nearest the exact rational.
    """
    counts = [int(n) for n in index.counts]
    if any(n == 0 for n in counts):
        raise ValueError("analytic occurrence requires every class to be populated")
    (a, p), (b, q) = (class_masses(kind, counts) for kind in kind_pair(kinds))
    nums = [a_k * q + b_k * p for a_k, b_k in zip(a, b)]
    den = 2 * p * q
    ratios = np.array([n / den for n in nums])
    return OccurrenceReport(ratios=ratios, balance_ratio=max(nums) / min(nums), sample_count=0)


def empirical_occurrence(
    c_i: np.ndarray,
    c_j: np.ndarray,
    lam: np.ndarray,
    num_classes: int,
    head: np.ndarray | None = None,
) -> OccurrenceReport:
    """Measured occurrence ratios over mixed rows given as class pairs and ratios.

    Row r contributes ``lam[r]`` to class ``c_i[r]`` and ``1 - lam[r]`` to
    class ``c_j[r]``; ratios are the per-class shares of the summed mass.
    Head incidence is the fraction of rows with ``head[c_i] | head[c_j]``, for
    a boolean class mask ``head`` such as ``default_groups(counts) == 0``.
    """
    if head is not None:
        head = np.asarray(head)
        if head.dtype != np.bool_ or head.shape != (num_classes,) or not head.any():
            raise ValueError(f"head must be a boolean mask of {num_classes} classes, at least one of them True")
    c_i, c_j, lam = np.asarray(c_i), np.asarray(c_j), np.asarray(lam, dtype=np.float64)
    if c_i.size == 0:
        raise ValueError("no mixed examples tallied")
    if min(c_i.min(), c_j.min()) < 0 or max(c_i.max(), c_j.max()) >= num_classes:
        raise ValueError(f"batch class ids must lie in [0, {num_classes}) for this tally")
    mass = np.bincount(c_i, weights=lam, minlength=num_classes) + np.bincount(
        c_j, weights=1.0 - lam, minlength=num_classes
    )
    ratios = mass / math.fsum(mass)
    incidence = None
    if head is not None:
        incidence = int(np.count_nonzero(head[c_i] | head[c_j])) / c_i.size
    return OccurrenceReport(
        ratios=ratios,
        balance_ratio=float(ratios.max() / ratios.min()) if ratios.min() > 0 else None,
        sample_count=c_i.size,
        head_incidence=incidence,
    )


def default_groups(counts) -> np.ndarray:
    """Rank-tercile grouping: ``g[k]`` is class k's group, 0 head, 1 medium or 2 tail.

    The largest ceil(C/3) classes are head (0) and the smallest ceil(C/3) tail (2); size ties break by class id.
    """
    sizes = np.asarray(list(counts))
    num_classes = sizes.shape[0]
    order = np.argsort(-sizes, kind="stable")
    n_edge = max(1, int(np.ceil(num_classes / 3)))
    groups = np.ones(num_classes, dtype=np.int64)
    groups[order[num_classes - n_edge :]] = 2
    groups[order[:n_edge]] = 0
    return groups


def measure_combos(counts: Sequence[int], alpha: float, seed: int, samples: int) -> list[tuple]:
    """``(name, analytic, empirical)`` for each combo, in :data:`COMBOS` order, on ``counts[k]`` examples of class k.

    The examples are in class order. ``empirical`` is None when ``samples``
    is 0. Otherwise it tallies ``samples`` rows drawn from ``make_rng(seed,
    "analyze:" + name)``, with head incidence over the mask
    ``default_groups(counts) == 0``. ``seed`` and ``samples`` are checked
    even when nothing is drawn, each named by its ``lobmix analyze`` flag;
    ``alpha`` is checked by :func:`~lobmix.mixer.sample_lambda` when rows are drawn.
    """
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"--seed must fit in 64 bits, got {seed}")
    if samples < 0:
        raise ValueError(f"--samples must be >= 0, got {samples}")
    index = ClassIndex.from_counts(counts)
    # the smallest unsigned dtype holding every class id: at C=1000, 2 bytes an example in place of 8
    labels = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts) - 1)), counts)
    head = default_groups(counts) == 0
    results = []
    for name, kinds in COMBOS.items():
        analytic, empirical = analytic_occurrence(kinds, index), None
        if samples > 0:
            i, j, lam = draw_pairs(kinds, index, alpha, make_rng(seed, "analyze:" + name), samples)
            empirical = empirical_occurrence(labels[i], labels[j], lam, len(counts), head=head)
            del i, j, lam  # freed before the next combo's rows are drawn, which keeps peak RSS down
        results.append((name, analytic, empirical))
    return results

