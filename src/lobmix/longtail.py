"""Long-tailed dataset construction.

Builds per-class count profiles (exponential, Pareto, step decay), subsamples
balanced bases into long-tailed training sets with reproducible manifests,
generates synthetic Gaussian-mixture data at desk scale, and ingests the
CIFAR-10 binary record format.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .seeds import make_rng

PROFILE_KINDS = ("exponential", "pareto", "step")

CIFAR10_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 channel-major pixels
CIFAR10_CLASSES = 10


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def json_value(value, kind: type, name: str):
    """Return ``value`` if it holds a JSON value of ``kind``, else raise ValueError.

    ``kind`` is int, float, str, list or dict. Any number passes as a float;
    booleans pass as neither.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def json_ints(value, name: str) -> list:
    """Return ``value`` if it holds a JSON list of integers, else raise ValueError."""
    for v in json_value(value, list, name):
        if type(v) is not int:  # cheap test first: manifests hold up to millions of entries
            json_value(v, int, f"{name} entry")
    return value


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ClassCounts:
    """Per-class example counts, indexed by class id (largest class first)."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 2:
            raise ValueError("need at least 2 classes")
        if any(c < 1 for c in counts):
            raise ValueError(f"every class needs at least one example, got {counts}")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, k: int) -> int:
        return self.counts[k]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ImbalanceProfile:
    """Shape of a long-tailed count profile.

    ``rho`` is the imbalance ratio (largest over smallest class size) and
    ``n_max`` the size of the largest class.
    """

    kind: str
    rho: float
    n_max: int

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}, expected one of {PROFILE_KINDS}")
        if self.rho < 1:
            raise ValueError(f"imbalance ratio must be >= 1, got {self.rho}")
        if self.n_max < self.rho:
            raise ValueError(f"n_max={self.n_max} would shrink the smallest class below one example (rho={self.rho})")

    def class_counts(self, num_classes: int) -> ClassCounts:
        builder = {"exponential": exponential_counts, "pareto": pareto_counts, "step": step_counts}[self.kind]
        return builder(self.n_max, num_classes, self.rho)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "rho": self.rho, "n_max": self.n_max}

    @classmethod
    def from_dict(cls, d: dict) -> "ImbalanceProfile":
        return cls(
            kind=d["kind"],
            rho=float(json_value(d["rho"], float, "profile.rho")),
            n_max=json_value(d["n_max"], int, "profile.n_max"),
        )


def _validate_profile_args(n_max: int, num_classes: int, rho: float) -> None:
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if rho < 1:
        raise ValueError(f"imbalance ratio must be >= 1, got {rho}")
    if n_max < rho:
        raise ValueError(f"n_max={n_max} < rho={rho}: smallest class would round to zero")


def _checked(counts: list[int]) -> ClassCounts:
    if any(c == 0 for c in counts):
        raise ValueError(f"profile rounds a class to zero examples: {counts}")
    return ClassCounts(tuple(counts))


def exponential_counts(n_max: int, num_classes: int, rho: float) -> ClassCounts:
    """Exponential decay: class k keeps n_max * rho^(-k/(C-1)) examples, rounded half-up."""
    _validate_profile_args(n_max, num_classes, rho)
    span = num_classes - 1
    return _checked([_round_half_up(n_max * rho ** (-k / span)) for k in range(num_classes)])


def pareto_counts(n_max: int, num_classes: int, rho: float) -> ClassCounts:
    """Pareto decay n_max * (k+1)^(-a), with a chosen so the last class keeps n_max/rho."""
    _validate_profile_args(n_max, num_classes, rho)
    a = math.log(rho) / math.log(num_classes) if rho > 1 else 0.0
    return _checked([_round_half_up(n_max * (k + 1) ** (-a)) for k in range(num_classes)])


def step_counts(n_max: int, num_classes: int, rho: float) -> ClassCounts:
    """Two-level profile: the first C//2 classes keep n_max, the rest n_max/rho."""
    _validate_profile_args(n_max, num_classes, rho)
    n_head = num_classes // 2
    tail = _round_half_up(n_max / rho)
    return _checked([n_max] * n_head + [tail] * (num_classes - n_head))


def imbalance_ratio(counts: ClassCounts) -> float:
    """Largest class size divided by smallest class size."""
    return max(counts) / min(counts)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (one row per example) with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError("labels must be one per feature row")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def class_index(self) -> "ClassIndex":
        return ClassIndex.from_labels(self.labels, self.num_classes)


def labels_only_dataset(counts) -> LabeledDataset:
    """``counts[k]`` examples of class k, in class order, with one zero feature column.

    Sampling and occurrence statistics depend only on labels and mixing
    ratios, so the placeholder column stands in for real features.
    """
    counts = [int(n) for n in counts]
    labels = np.repeat(np.arange(len(counts)), counts)
    return LabeledDataset(np.zeros((labels.size, 1)), labels, len(counts))


@dataclass(frozen=True)
class ClassIndex:
    """Per-class lists of example indices; the index sets partition 0..N-1."""

    per_class: tuple[np.ndarray, ...]
    total: int

    def __post_init__(self) -> None:
        per_class = tuple(np.asarray(idx, dtype=np.int64) for idx in self.per_class)
        if sum(idx.size for idx in per_class) != self.total:
            raise ValueError("index lists must cover the dataset exactly")
        object.__setattr__(self, "per_class", per_class)

    @classmethod
    def from_labels(cls, labels: np.ndarray, num_classes: int) -> "ClassIndex":
        labels = np.asarray(labels, dtype=np.int64)
        per_class = tuple(np.flatnonzero(labels == k) for k in range(num_classes))
        return cls(per_class, int(labels.shape[0]))

    @property
    def num_classes(self) -> int:
        return len(self.per_class)

    @cached_property
    def counts(self) -> np.ndarray:
        return np.array([idx.size for idx in self.per_class], dtype=np.int64)

    @cached_property
    def flat(self) -> np.ndarray:
        """All indices concatenated class by class (for vectorized gathers)."""
        return np.concatenate(self.per_class) if self.total else np.empty(0, dtype=np.int64)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start offset of each class block inside :attr:`flat`."""
        return np.concatenate([[0], np.cumsum(self.counts[:-1])]).astype(np.int64)


@dataclass(frozen=True)
class DatasetManifest:
    """Reproducible record of a long-tailed subsampling run.

    Re-applying ``kept_indices`` to the source dataset (or re-running the
    subsampler with the recorded seed) reproduces the identical dataset.
    """

    source: str
    profile: ImbalanceProfile | None
    seed: int
    counts: tuple[int, ...]
    kept_indices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(map(int, self.counts)))
        object.__setattr__(self, "kept_indices", tuple(tuple(map(int, idx)) for idx in self.kept_indices))
        if len(self.counts) != len(self.kept_indices):
            raise ValueError("one kept-index list per class required")
        for n, idx in zip(self.counts, self.kept_indices):
            if n != len(idx):
                raise ValueError("kept-index list length must match the class count")

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "profile": self.profile.to_dict() if self.profile else None,
            "seed": self.seed,
            "counts": list(self.counts),
            "kept_indices": [list(idx) for idx in self.kept_indices],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        profile = json_value(d, dict, "manifest").get("profile")
        kept = json_value(d["kept_indices"], list, "manifest.kept_indices")
        return cls(
            source=json_value(d["source"], str, "manifest.source"),
            profile=ImbalanceProfile.from_dict(json_value(profile, dict, "manifest.profile")) if profile else None,
            seed=json_value(d["seed"], int, "manifest.seed"),
            counts=json_ints(d["counts"], "manifest.counts"),
            kept_indices=[json_ints(idx, f"manifest.kept_indices[{k}]") for k, idx in enumerate(kept)],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


def subsample_longtail(
    base: LabeledDataset,
    counts: ClassCounts,
    seed: int,
    source: str = "unspecified",
    profile: ImbalanceProfile | None = None,
) -> tuple[LabeledDataset, DatasetManifest]:
    """Draw counts[k] examples of each class uniformly without replacement.

    The returned manifest records the kept indices per class (sorted), so the
    subsample can be re-applied or audited later.
    """
    if len(counts) != base.num_classes:
        raise ValueError(f"counts cover {len(counts)} classes but dataset has {base.num_classes}")
    rng = make_rng(seed, "subsample")
    index = base.class_index()
    kept: list[np.ndarray] = []
    for k, want in enumerate(counts):
        have = index.per_class[k]
        if have.size < want:
            raise ValueError(f"class {k} has {have.size} examples, need {want}")
        chosen = np.sort(rng.choice(have, size=want, replace=False))
        kept.append(chosen)
    manifest = DatasetManifest(
        source=source,
        profile=profile,
        seed=seed,
        counts=tuple(counts),
        kept_indices=tuple(tuple(idx) for idx in kept),
    )
    return apply_manifest(base, manifest), manifest


def apply_manifest(base: LabeledDataset, manifest: DatasetManifest) -> LabeledDataset:
    """Rebuild the subsampled dataset recorded by a manifest."""
    order = np.concatenate([np.asarray(idx, dtype=np.int64) for idx in manifest.kept_indices])
    return LabeledDataset(base.features[order], base.labels[order], base.num_classes)


def synth_gaussian_mixture(
    num_classes: int,
    counts: ClassCounts,
    dim: int,
    separation: float,
    seed: int,
) -> LabeledDataset:
    """Isotropic unit-variance Gaussian blobs with centers on a sphere of radius ``separation``."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    if separation <= 0:
        raise ValueError(f"separation must be positive, got {separation}")
    if len(counts) != num_classes:
        raise ValueError(f"counts cover {len(counts)} classes but num_classes={num_classes}")
    centers = mixture_centers(num_classes, dim, separation, seed)
    points_rng = make_rng(seed, "points")
    blocks = []
    labels = []
    for k, n_k in enumerate(counts):
        blocks.append(centers[k] + points_rng.standard_normal((n_k, dim)))
        labels.append(np.full(n_k, k, dtype=np.int64))
    return LabeledDataset(np.concatenate(blocks), np.concatenate(labels), num_classes)


def mixture_centers(num_classes: int, dim: int, separation: float, seed: int) -> np.ndarray:
    """Deterministic class centers: random directions scaled to radius ``separation``."""
    rng = make_rng(seed, "centers")
    dirs = rng.standard_normal((num_classes, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return separation * dirs / norms


def longtail_split(
    base: LabeledDataset,
    counts: ClassCounts,
    test_per_class: int,
    seed: int,
    source: str = "split",
    profile: ImbalanceProfile | None = None,
) -> tuple[LabeledDataset, LabeledDataset, DatasetManifest]:
    """Carve a balanced held-out set, then subsample the remainder long-tailed.

    Returns (train, test, train_manifest); test has ``test_per_class``
    examples of every class and is disjoint from train.
    """
    if test_per_class < 1:
        raise ValueError("test_per_class must be >= 1")
    rng = make_rng(seed, "holdout")
    index = base.class_index()
    test_idx: list[np.ndarray] = []
    pools: list[np.ndarray] = []
    for k, want in enumerate(counts):
        have = index.per_class[k]
        if have.size < want + test_per_class:
            raise ValueError(f"class {k} has {have.size} examples, need {want + test_per_class}")
        held = np.sort(rng.choice(have, size=test_per_class, replace=False))
        test_idx.append(held)
        pools.append(np.setdiff1d(have, held, assume_unique=True))
    train_rng = make_rng(seed, "train-pick")
    kept = [np.sort(train_rng.choice(pool, size=want, replace=False)) for pool, want in zip(pools, counts)]
    manifest = DatasetManifest(
        source=source,
        profile=profile,
        seed=seed,
        counts=tuple(counts),
        kept_indices=tuple(tuple(idx) for idx in kept),
    )
    test_order = np.concatenate(test_idx)
    test = LabeledDataset(base.features[test_order], base.labels[test_order], base.num_classes)
    return apply_manifest(base, manifest), test, manifest


def load_cifar10_binary(path: str | Path) -> LabeledDataset:
    """Parse the CIFAR-10 binary batch format (3073-byte records), pixels scaled to [0,1]."""
    raw = Path(path).read_bytes()
    if len(raw) % CIFAR10_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: file length {len(raw)} is not a multiple of {CIFAR10_RECORD_BYTES}-byte records"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR10_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() >= CIFAR10_CLASSES:
        bad = int(labels.max())
        raise ValueError(f"{path}: label byte {bad} out of range 0-9")
    features = records[:, 1:].astype(np.float64) / 255.0
    return LabeledDataset(features, labels, CIFAR10_CLASSES)


def write_cifar10_binary(dataset: LabeledDataset, path: str | Path) -> None:
    """Inverse of :func:`load_cifar10_binary`; features must lie in [0,1]."""
    if dataset.dim != CIFAR10_RECORD_BYTES - 1:
        raise ValueError(f"expected {CIFAR10_RECORD_BYTES - 1} features per row, got {dataset.dim}")
    pixels = np.rint(dataset.features * 255.0)
    if pixels.min(initial=0) < 0 or pixels.max(initial=0) > 255:
        raise ValueError("features must lie in [0, 1]")
    out = np.empty((len(dataset), CIFAR10_RECORD_BYTES), dtype=np.uint8)
    out[:, 0] = dataset.labels
    out[:, 1:] = pixels.astype(np.uint8)
    Path(path).write_bytes(out.tobytes())
