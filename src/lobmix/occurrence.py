"""Label-occurrence diagnostics for mixed batches.

The label occurrence ratio of class k is the share of total mixing-ratio
mass assigned to k across all mixed examples. Under random pairing on
long-tailed data this share is dominated by head classes; the functions here
compute it both analytically (from sampler selection distributions, in exact
rational arithmetic) and empirically (from generated batches).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .longtail import ClassIndex
from .mixer import MixedBatch
from .samplers import CB, IB, SamplerKind


class UnrepresentedClassError(ValueError):
    """A class received zero occurrence mass, so max/min is undefined."""


@dataclass(frozen=True)
class SamplerCombo:
    """A pair of sampler kinds feeding the mixer, plus the Beta shape."""

    kinds: tuple[SamplerKind, SamplerKind]
    alpha: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", (SamplerKind(self.kinds[0]), SamplerKind(self.kinds[1])))
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def name(self) -> str:
        short = {IB: "ib", CB: "cb"}
        return f"{short[self.kinds[0]]}-{short[self.kinds[1]]}"


COMBO_NAMES = ("ib-ib", "ib-cb", "cb-cb")


def parse_combo(name: str, alpha: float = 1.0) -> SamplerCombo:
    first, second = name.strip().lower().split("-")
    return SamplerCombo((SamplerKind.parse(first), SamplerKind.parse(second)), alpha)


@dataclass(frozen=True)
class OccurrenceReport:
    """Per-class label-occurrence ratios and their spread.

    ``balance_ratio`` is max/min of the ratios, or None when some class got
    no mass at all. ``sample_count`` is 0 for analytic reports.
    ``head_incidence`` (fraction of examples touching a head class) is only
    present when a head set was supplied.
    """

    ratios: np.ndarray
    balance_ratio: float | None
    sample_count: int
    head_incidence: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratios", np.asarray(self.ratios, dtype=np.float64))

    @property
    def num_classes(self) -> int:
        return self.ratios.shape[0]

    def to_dict(self) -> dict:
        return {
            "ratios": [float(g) for g in self.ratios],
            "balance_ratio": self.balance_ratio,
            "sample_count": self.sample_count,
            "head_incidence": self.head_incidence,
        }


def balance_ratio(report: OccurrenceReport) -> float:
    """Max over min occurrence ratio; raises if a class is unrepresented."""
    if report.balance_ratio is None:
        zero = int(np.argmin(report.ratios))
        raise UnrepresentedClassError(f"class {zero} has zero occurrence mass")
    return report.balance_ratio


def _class_mass_fractions(kind: SamplerKind, counts: Sequence[int]) -> list[Fraction]:
    num_classes = len(counts)
    if kind is CB:
        return [Fraction(1, num_classes)] * num_classes
    total = sum(counts)
    return [Fraction(int(n), total) for n in counts]


def analytic_occurrence(combo: SamplerCombo, index: ClassIndex) -> OccurrenceReport:
    """Expected occurrence ratios for a sampler combo, in exact arithmetic.

    In expectation each pair member contributes half of the mass (the mixing
    ratio distribution is symmetric), so the ratio for class k is the mean of
    the two samplers' class masses. Independent of alpha.
    """
    counts = [int(n) for n in index.counts]
    if any(n == 0 for n in counts):
        raise ValueError("analytic occurrence requires every class to be populated")
    m1 = _class_mass_fractions(combo.kinds[0], counts)
    m2 = _class_mass_fractions(combo.kinds[1], counts)
    gammas = [(a + b) / 2 for a, b in zip(m1, m2)]
    ratios = np.array([float(g) for g in gammas])
    spread = float(max(gammas) / min(gammas))
    return OccurrenceReport(ratios=ratios, balance_ratio=spread, sample_count=0)


@dataclass
class OccurrenceTally:
    """Mergeable accumulator of per-class mixing-ratio mass.

    Partial tallies from independent workers can be merged in any order; the
    final per-class sums use compensated summation, so the report does not
    depend on merge order.
    """

    num_classes: int
    head_set: frozenset[int] | None = None

    def __post_init__(self) -> None:
        self._masses: list[np.ndarray] = []
        self._examples = 0
        self._head_hits = 0
        if self.head_set is not None:
            self.head_set = frozenset(int(k) for k in self.head_set)
            if not self.head_set:
                raise ValueError("head set must be nonempty when supplied")

    def add(self, batch: MixedBatch) -> None:
        classes = batch.src[:, 2:4]
        if classes.min() < 0 or classes.max() >= self.num_classes:
            raise ValueError(f"batch class ids must lie in [0, {self.num_classes}) for this tally")
        ci, cj = classes.T
        self._masses.append(
            np.bincount(ci, weights=batch.lams, minlength=self.num_classes)
            + np.bincount(cj, weights=1.0 - batch.lams, minlength=self.num_classes)
        )
        self._examples += len(batch)
        if self.head_set is not None:
            head = np.fromiter(self.head_set, dtype=np.int64)
            self._head_hits += int(np.count_nonzero(np.isin(ci, head) | np.isin(cj, head)))

    def merge(self, other: "OccurrenceTally") -> None:
        if other.num_classes != self.num_classes or other.head_set != self.head_set:
            raise ValueError("cannot merge tallies with different class counts or head sets")
        self._masses.extend(other._masses)
        self._examples += other._examples
        self._head_hits += other._head_hits

    def report(self) -> OccurrenceReport:
        if self._examples == 0:
            raise ValueError("no mixed examples tallied")
        mass = np.array([math.fsum(per_class) for per_class in zip(*self._masses)])
        total = math.fsum(mass)
        ratios = mass / total
        spread = float(ratios.max() / ratios.min()) if ratios.min() > 0 else None
        incidence = self._head_hits / self._examples if self.head_set is not None else None
        return OccurrenceReport(
            ratios=ratios,
            balance_ratio=spread,
            sample_count=self._examples,
            head_incidence=incidence,
        )


def empirical_occurrence(
    batches: Iterable[MixedBatch],
    num_classes: int,
    head_set: Iterable[int] | None = None,
) -> OccurrenceReport:
    """Measured occurrence ratios over generated batches.

    Each example contributes lam to its first source class and 1 - lam to
    its second; ratios are the per-class shares of the accumulated mass.
    """
    tally = OccurrenceTally(num_classes, frozenset(head_set) if head_set is not None else None)
    for batch in batches:
        tally.add(batch)
    return tally.report()


def format_float(x: float) -> str:
    """Six significant digits, the CSV emission convention."""
    return f"{x:.6g}"


def write_occurrence_csv(
    path: str | Path,
    counts: Sequence[int],
    analytic: OccurrenceReport,
    empirical: OccurrenceReport | None = None,
) -> None:
    """Per-class ratio table: class, n_k, gamma_analytic, gamma_empirical."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "n_k", "gamma_analytic", "gamma_empirical"])
        for k, n_k in enumerate(counts):
            empirical_cell = format_float(float(empirical.ratios[k])) if empirical is not None else ""
            writer.writerow([k, int(n_k), format_float(float(analytic.ratios[k])), empirical_cell])
