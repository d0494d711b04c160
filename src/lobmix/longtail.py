"""Long-tailed dataset construction.

Builds per-class count profiles (exponential, Pareto, step decay), picks
long-tailed subsets of a balanced base's class index into reproducible
manifests of kept indices, generates synthetic Gaussian-mixture data at desk
scale, and ingests the CIFAR-10 binary record format.
"""
from __future__ import annotations

import itertools
import math
import mmap
import numbers
import os
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import atomic_write, read_json, write_json
from .seeds import make_rng

CIFAR10_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 channel-major pixels
CIFAR10_CLASSES = 10
BLOCK_BYTES = 1 << 18  # rows are scanned in blocks of about this size, so their temporaries stay in cache
MANIFEST_LAYOUT = 3  # manifest.json format: kept indices as one hex block of little-endian uint32


# each kind's Python types and its name in messages; a boolean is of no kind
_KINDS = {
    int: ((int, np.integer), "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
}


def require_kind(value, kind: type, name: str) -> None:
    """Raise ValueError unless ``value`` is of ``kind``: int (numpy integers too), float (any real), str, list or dict.

    A boolean is of no kind. The constructors check their fields with it before
    any range; unlike :func:`json_value`, it checks no range itself.
    """
    types, described = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {described}, got {value!r}")


def in_float_range(value) -> bool:
    """Whether the real ``value`` lies within the float range: False for NaN, an infinity or an int beyond it.

    An int is compared as itself (``float()`` of a huge one overflows), a numpy float as a Python
    float (compared as itself, it would cast the bounds to its own precision).
    """
    x = value if isinstance(value, int) else float(value)
    return -sys.float_info.max <= x <= sys.float_info.max


def json_value(value, kind: type | list, name: str):
    """Return ``value`` if it holds a JSON value of ``kind``, else raise ValueError.

    ``kind`` is int, float, str, list or dict, checked by :func:`require_kind`,
    or ``[k]``, a list whose every entry is of kind ``k``. A float must also
    be finite (``json`` reads ``NaN`` and ``Infinity``).
    """
    if isinstance(kind, list):
        for v in json_value(value, list, name):
            json_value(v, kind[0], f"{name} entry")
        return value
    require_kind(value, kind, name)
    if kind is float and not in_float_range(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


# JSON kind of every setting of each section of a config or manifest, ``[k]``
# for a list of kind-``k`` entries (see :func:`json_value`). A config has a
# top level ("config"), a dataset section (the "synth" or "cifar10" row, by
# its kind), a "profile" and a "train" section (the TrainConfig fields but
# the seed, which the top level holds); a manifest ("manifest") holds a
# "profile" too.
SCHEMA = {
    "config": {"dataset": dict, "profile": dict, "train": dict, "seed": int, "out_dir": str, "rng_layout": int},
    "synth": {
        "kind": str, "classes": int, "dim": int, "separation": float, "base_per_class": int, "test_per_class": int,
    },
    "cifar10": {"kind": str, "train_paths": [str], "test_path": str},
    "profile": {"kind": str, "rho": float, "n_max": int},
    "train": {
        "epochs": int, "batches_per_epoch": int, "batch_size": int, "lr": float,
        "lr_decay_epochs": [int], "lr_decay_factor": float, "alpha": float, "strategy": str,
    },
    "manifest": {
        "manifest_layout": int, "source": str, "profile": dict, "seed": int, "counts": [int], "kept_indices": str,
    },
    "eval": {
        "config_sha256": str, "per_class_recall": [float], "balanced_accuracy": float, "overall_accuracy": float,
        "group_accuracy": dict,
    },
}


def json_settings(d, types: dict, name: str, required=None, nullable=()) -> dict:
    """Check the JSON object ``d``, section ``name``, against ``types``: its keys and their JSON kinds.

    Every key of ``d`` must be in ``types``, every key of ``required`` (by
    default every key of ``types``) must be in ``d``, and every value must
    be of its kind, or null for a key in ``nullable``. Returns a copy of
    ``d`` that holds every float setting as a float and every integer
    setting as an int, so a numpy number is written back as JSON.
    """
    unknown = set(json_value(d, dict, name)) - set(types)
    if unknown:
        raise ValueError(f"unknown {name} settings: {sorted(unknown)}")
    missing = [k for k in (types if required is None else required) if k not in d]
    if missing:
        raise ValueError(f"missing {name} settings: {missing}")
    checked = {}
    for k, v in d.items():
        if v is not None or k not in nullable:
            v = json_value(v, types[k], f"{name}.{k}")
        checked[k] = types[k](v) if types[k] in (int, float) and v is not None else v
    return checked


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _exponential(n_max: int, num_classes: int, rho: float) -> list[int]:
    """Exponential decay: class k keeps n_max * rho^(-k/(C-1)) examples, rounded half-up."""
    span = num_classes - 1
    return [_round_half_up(n_max * rho ** (-k / span)) for k in range(num_classes)]


def _pareto(n_max: int, num_classes: int, rho: float) -> list[int]:
    """Pareto decay n_max * (k+1)^(-a), with a chosen so the last class keeps n_max/rho."""
    a = math.log(rho) / math.log(num_classes) if rho > 1 else 0.0
    return [_round_half_up(n_max * (k + 1) ** (-a)) for k in range(num_classes)]


def _step(n_max: int, num_classes: int, rho: float) -> list[int]:
    """Two-level profile: the first C//2 classes keep n_max, the rest n_max/rho."""
    n_head = num_classes // 2
    return [n_max] * n_head + [_round_half_up(n_max / rho)] * (num_classes - n_head)


_PROFILE_FORMULAS = {"exponential": _exponential, "pareto": _pareto, "step": _step}
PROFILE_KINDS = tuple(_PROFILE_FORMULAS)


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
        for name, kind in SCHEMA["profile"].items():  # the kinds of the fields are those of the config section
            require_kind(getattr(self, name), kind, name)
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}, expected one of {PROFILE_KINDS}")
        if not self.rho >= 1:  # written so that NaN fails too
            raise ValueError(f"imbalance ratio must be >= 1, got {self.rho}")
        if self.n_max < self.rho:
            raise ValueError(f"n_max={self.n_max} would shrink the smallest class below one example (rho={self.rho})")
        if not in_float_range(self.n_max):  # the profile formulas scale it as a float
            raise ValueError(f"n_max must fit in a float, got {self.n_max}")
        for name, kind in SCHEMA["profile"].items():  # a numpy number, or an int rho, is stored as a Python one
            object.__setattr__(self, name, kind(getattr(self, name)))

    def class_counts(self, num_classes: int) -> tuple[int, ...]:
        """Per-class counts of this profile over ``num_classes`` classes, largest first."""
        require_kind(num_classes, int, "num_classes")
        if num_classes < 2:  # the formulas divide by C-1 and log C
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        return tuple(_PROFILE_FORMULAS[self.kind](self.n_max, num_classes, self.rho))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "rho": self.rho, "n_max": self.n_max}

    @classmethod
    def from_dict(cls, d: dict, name: str = "profile") -> "ImbalanceProfile":
        return cls(**json_settings(d, SCHEMA["profile"], name))


@dataclass(frozen=True, init=False)
class LabeledDataset:
    """Feature rows (one per example) with integer class labels.

    ``rows``, the one storage form, is C-contiguous float64 ``(N, D + 1)`` with a last column of
    exactly 1.0, so a model ``(C, D + 1)`` whose last column is the bias applies as one product;
    ``features`` is the view ``rows[:, :-1]`` and ``dim`` is D. ``LabeledDataset(features, labels,
    num_classes)`` copies an ``(N, D)`` matrix into fresh rows a row block at a time.
    """

    rows: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __init__(self, features, labels, num_classes: int) -> None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got shape {features.shape}")
        rows = np.empty((features.shape[0], features.shape[1] + 1))
        for block in row_blocks(rows):
            rows[block, :-1] = features[block]
            rows[block, -1] = 1.0
        self.__post_init__(rows, labels, num_classes)

    @classmethod
    def from_rows(cls, rows, labels, num_classes: int) -> "LabeledDataset":
        """The dataset of ``(N, D + 1)`` rows whose last column is 1.0, kept as they are if C-contiguous float64."""
        dataset = cls.__new__(cls)
        dataset.__post_init__(rows, labels, num_classes)
        return dataset

    def __post_init__(self, rows, labels, num_classes: int) -> None:
        """Check and store the fields: both constructors end here (``bench/spans.py`` traces this name)."""
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise ValueError(f"rows must be a 2-D matrix with a last column of ones, got shape {rows.shape}")
        if labels.ndim != 1 or labels.shape[0] != rows.shape[0]:
            raise ValueError("labels must be one per feature row")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(f"labels must lie in [0, {num_classes})")
        if not all(np.isfinite(rows[block]).all() for block in row_blocks(rows)):
            raise ValueError("features must be finite, got NaN or infinity")
        if not (rows[:, -1] == 1.0).all():
            raise ValueError("rows must end in a column of ones")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", num_classes)

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def features(self) -> np.ndarray:
        """The ``(N, D)`` view of the rows without their column of ones."""
        return self.rows[:, :-1]

    @property
    def dim(self) -> int:
        return self.rows.shape[1] - 1

    def class_index(self) -> "ClassIndex":
        return ClassIndex.from_labels(self.labels, self.num_classes)


def row_blocks(x: np.ndarray) -> list[slice]:
    """Consecutive row slices of ``x``, about BLOCK_BYTES each and at least one row, covering its rows in order."""
    step = max(1, BLOCK_BYTES // max(1, x[:1].nbytes))
    return [slice(start, min(start + step, len(x))) for start in range(0, len(x), step)]


@dataclass(frozen=True)
class ClassIndex:
    """Example indices grouped by class: one stable sort of the labels.

    ``flat`` lists 0..N-1 class by class, ascending within each class, and
    ``counts[k]`` is the size of class k, so class k's block of ``flat``
    starts at ``offsets[k]``.
    """

    flat: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_labels(cls, labels: np.ndarray, num_classes: int) -> "ClassIndex":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(f"labels must lie in [0, {num_classes})")
        return cls(np.argsort(labels, kind="stable"), np.bincount(labels, minlength=num_classes))

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "ClassIndex":
        """The index of ``counts[k]`` examples of class k, stored class by class: ``flat`` is ``arange(N)``.

        It equals ``from_labels(np.repeat(arange(C), counts), C)``, made without
        the labels. At least 2 classes, each of at least one example, every
        count an integer (numpy integers too), all of them below 2**63 in total.
        """
        if len(counts) < 2:
            raise ValueError(f"need at least 2 classes, got {len(counts)}")
        for n in counts:  # a float would be truncated
            require_kind(n, int, "class count")
        if min(counts) < 1:
            raise ValueError(f"every class needs at least one example, got {tuple(map(int, counts))}")
        total = sum(map(int, counts))
        if total > np.iinfo(np.int64).max:  # so each count and their sum fit in int64, and no sum wraps
            raise ValueError(f"class counts must total below 2**63, got {total}")
        counts = np.asarray(counts, dtype=np.int64)
        return cls(np.arange(counts.sum()), counts)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return self.flat.shape[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start offset of each class block inside :attr:`flat`."""
        return np.cumsum(self.counts) - self.counts

    def members(self, k: int) -> np.ndarray:
        """Indices of class k's examples, ascending (``flatnonzero(labels == k)``)."""
        start = self.offsets[k]
        return self.flat[start : start + self.counts[k]]


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """Reproducible record of a long-tailed subsampling run.

    ``kept_indices`` is one int64 array of the kept source indices, class by
    class, ``counts[k]`` of them for class k: the ``(flat, counts)`` layout of
    :class:`ClassIndex`. The constructor takes one sequence of integer
    indices per class, each in ``[0, 2**32)``; the JSON file (layout
    :data:`MANIFEST_LAYOUT`) holds the whole array as one hex string, 8 digits
    (4 little-endian bytes) an index. The source's ``features[kept_indices]``
    are the subsampled rows, and re-running the subsampler on the source's
    class index with the recorded seed returns the identical indices.
    """

    source: str
    profile: ImbalanceProfile | None
    seed: int
    counts: tuple[int, ...]
    kept_indices: np.ndarray

    def __post_init__(self) -> None:
        require_kind(self.seed, int, "seed")
        counts = tuple(map(int, self.counts))
        per_class = self.kept_indices
        if len(counts) != len(per_class):
            raise ValueError("one kept-index list per class required")
        if any(n != len(idx) for n, idx in zip(counts, per_class)):
            raise ValueError("kept-index list length must match the class count")
        flat = np.empty(sum(counts), dtype=np.int64)
        start = 0
        for k, (n, idx) in enumerate(zip(counts, per_class)):
            idx = np.asarray(idx)
            if idx.size and idx.dtype.kind not in "iu":  # an assignment would truncate floats
                raise ValueError(f"kept indices must be integers, got {idx.dtype} in class {k}")
            flat[start : start + n] = idx
            start += n
        if flat.size and flat.min() < 0:
            raise ValueError(f"kept indices must be non-negative, got {int(flat.min())}")
        if flat.size and flat.max() >= 2**32:  # the file holds 4 bytes an index
            raise ValueError(f"kept indices must be below 2**32, got {int(flat.max())}")
        object.__setattr__(self, "seed", int(self.seed))  # a numpy integer is written as JSON
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "kept_indices", flat)

    def to_dict(self) -> dict:
        return {
            "manifest_layout": MANIFEST_LAYOUT,
            "source": self.source,
            "profile": self.profile.to_dict() if self.profile else None,
            "seed": self.seed,
            "counts": list(self.counts),
            "kept_indices": self.kept_indices.astype("<u4").data.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        # a file of another layout is named as such, not as one with missing or unknown settings
        layout = json_value(d, dict, "manifest").get("manifest_layout", 1)
        if layout != MANIFEST_LAYOUT:
            raise ValueError(
                f"manifest layout {layout!r} is not read by this lobmix (layout {MANIFEST_LAYOUT}); "
                "rebuild it with build-lt"
            )
        d = json_settings(d, SCHEMA["manifest"], "manifest", nullable=("profile",))
        counts = d["counts"]
        if min(counts, default=0) < 0:
            raise ValueError(f"manifest.counts entry must be non-negative, got {min(counts)}")
        total, block = sum(counts), d["kept_indices"]
        if len(block) != 8 * total:
            raise ValueError(
                f"manifest.kept_indices must hold 8 hex digits an index, {8 * total} for {total}, got {len(block)}"
            )
        try:  # bytes.fromhex skips ASCII whitespace, so a block with some decodes short of ``total`` indices
            flat = np.frombuffer(bytes.fromhex(block), dtype="<u4", count=total)
        except ValueError:
            pos = re.search("[^0-9a-fA-F]", block).start()
            raise ValueError(f"manifest.kept_indices entry {pos // 8} holds {block[pos]!r}, not a hex digit") from None
        return cls(
            source=d["source"],
            profile=None if d["profile"] is None else ImbalanceProfile.from_dict(d["profile"], "manifest.profile"),
            seed=d["seed"],
            counts=counts,
            kept_indices=[flat[end - n : end] for n, end in zip(counts, itertools.accumulate(counts))],
        )

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        return cls.from_dict(read_json(path))


def synth_gaussian_mixture(counts: Sequence[int], dim: int, separation: float, seed: int) -> LabeledDataset:
    """``counts[k]`` rows of class k: unit-variance Gaussian blobs, centers on a sphere of radius ``separation``.

    The rows are stored class by class: the bytes of one ``(N, dim)`` standard
    normal draw, each row shifted by its class's center. They are drawn one
    row block (:func:`row_blocks`) at a time into a one-block scratch and
    shifted into the dataset's rows, so no second copy of the rows is made.
    ``counts`` are checked as :meth:`ClassIndex.from_counts` checks them.
    """
    require_kind(dim, int, "dim")
    require_kind(separation, float, "separation")
    index = ClassIndex.from_counts(counts)
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    if not separation > 0:
        raise ValueError(f"separation must be positive, got {separation}")
    centers = mixture_centers(index.num_classes, dim, separation, seed)
    labels = np.repeat(np.arange(index.num_classes), index.counts)
    rng, rows = make_rng(seed, "points"), np.empty((index.total, dim + 1))
    blocks = row_blocks(rows)
    scratch = np.empty((blocks[0].stop, dim))  # from_counts leaves at least 2 rows, so a first block
    for block in blocks:
        draw = rng.standard_normal(out=scratch[: block.stop - block.start])  # consecutive draws: one draw's bytes
        np.add(draw, centers[labels[block]], out=rows[block, :-1])
        rows[block, -1] = 1.0
    return LabeledDataset.from_rows(rows, labels, index.num_classes)


def mixture_centers(num_classes: int, dim: int, separation: float, seed: int) -> np.ndarray:
    """Deterministic class centers: random directions scaled to radius ``separation``."""
    rng = make_rng(seed, "centers")
    dirs = rng.standard_normal((num_classes, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    with np.errstate(over="ignore"):  # an overflow leaves an infinity, rejected below
        centers = separation * dirs / norms
    if not np.isfinite(centers).all():
        raise ValueError(f"separation {separation} puts class centers beyond the float range")
    return centers


def longtail_split(
    index: ClassIndex,
    counts: Sequence[int],
    test_per_class: int,
    seed: int,
    source: str = "split",
    profile: ImbalanceProfile | None = None,
) -> tuple[np.ndarray, DatasetManifest]:
    """Hold out ``test_per_class`` indices of each class of ``index``, then keep ``counts[k]`` of the rest of class k.

    Both are drawn uniformly without replacement, the held-out indices from
    the stream ``"holdout"`` and the kept ones from ``"train-pick"``. Returns
    (test_indices, manifest): the held-out indices class by class, disjoint
    from the manifest's kept indices, both sorted within each class. With
    ``test_per_class`` 0 the test indices are empty and the manifest is a
    plain long-tailed subsample of ``index``.
    """
    if test_per_class < 0:
        raise ValueError("test_per_class must be >= 0")
    if len(counts) != index.num_classes:
        raise ValueError(f"counts cover {len(counts)} classes but dataset has {index.num_classes}")
    holdout, pick = make_rng(seed, "holdout"), make_rng(seed, "train-pick")
    test_idx: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    for k, want in enumerate(counts):
        have = index.members(k)
        if have.size < want + test_per_class:
            raise ValueError(f"class {k} has {have.size} examples, need {want + test_per_class}")
        held = np.sort(holdout.choice(have, size=test_per_class, replace=False))
        test_idx.append(held)
        pool = np.setdiff1d(have, held, assume_unique=True)
        kept.append(np.sort(pick.choice(pool, size=want, replace=False)))
    manifest = DatasetManifest(source=source, profile=profile, seed=seed, counts=tuple(counts), kept_indices=kept)
    return np.concatenate(test_idx), manifest


def _record_count(path: str | Path) -> int:
    """The records of the file at ``path``, counted from its size; ValueError unless that is whole records."""
    size = os.path.getsize(path)
    if size % CIFAR10_RECORD_BYTES != 0:
        raise ValueError(f"{path}: file length {size} is not a multiple of {CIFAR10_RECORD_BYTES}-byte records")
    return size // CIFAR10_RECORD_BYTES


def _read_records(path: str | Path, blocks: list[slice], buffer: np.ndarray):
    """Yield ``(rows, records)`` for each slice ``rows`` of ``blocks``: the file's next ``rows`` records.

    ``blocks`` are slices of as many rows in all as :func:`_record_count`
    counted in the file, none longer than ``buffer`` (uint8 rows of 3073
    bytes); ``records`` is the leading rows of ``buffer``, yielded once the
    block is read and its label bytes are checked. A file that holds fewer
    or more bytes than its size said, or a label byte beyond 9, raises
    ValueError naming the file.
    """
    with open(path, "rb") as fh:
        for rows in blocks:
            records = buffer[: rows.stop - rows.start]
            if fh.readinto(records.reshape(-1)) != records.nbytes:  # shrank since the stat
                raise ValueError(f"{path}: file changed while being read")
            if records.size and records[:, 0].max() >= CIFAR10_CLASSES:
                raise ValueError(f"{path}: label byte {int(records[:, 0].max())} out of range 0-9")
            yield rows, records
        if fh.read(1):  # grew since the stat
            raise ValueError(f"{path}: file changed while being read")


def read_cifar10_records(*paths: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 3072) uint8 pixels and (N,) int64 labels of CIFAR-10 binary files (3073-byte records), in order.

    Every file is read straight into one buffer, which the pixels view: it
    holds the only copy of the files' bytes, and callers convert only the
    rows they keep. The buffer is an anonymous memory mapping, unmapped when
    its last view goes. A heap block of its size, once freed, would raise
    malloc's mmap threshold, so that later blocks up to that size would come
    from the heap and stay resident after they are freed.
    """
    counts = [_record_count(p) for p in paths]
    n = sum(counts)
    # private, as malloc's own mappings are (a shared one is faulted in 4 KiB
    # at a time), and at least 1 byte long: a zero-length mapping is an error
    buffer = mmap.mmap(-1, max(1, n * CIFAR10_RECORD_BYTES), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # numpy asks the same for its large arrays: far fewer page faults
        buffer.madvise(mmap.MADV_HUGEPAGE)
    records = np.frombuffer(buffer, dtype=np.uint8, count=n * CIFAR10_RECORD_BYTES).reshape(n, CIFAR10_RECORD_BYTES)
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for path, count in zip(paths, counts):
        whole = slice(start, start + count)
        for rows, block in _read_records(path, [whole], records[whole]):
            labels[rows] = block[:, 0]
        start += count
    return records[:, 1:], labels


def scale_pixels(pixels: np.ndarray, out: np.ndarray) -> None:
    """Write uint8 ``pixels`` scaled to [0, 1] into float64 rows ``out``, one column wider: its last column becomes 1.0.

    The pixel rows are copied into byte rows that end in 255, so one contiguous divide writes the
    ones (255 / 255) too; a divide into the strided ``out[:, :-1]`` takes about a quarter longer.
    """
    widened = np.empty((len(pixels), pixels.shape[1] + 1), dtype=np.uint8)
    widened[:, :-1] = pixels
    widened[:, -1] = 255
    np.divide(widened, 255.0, out=out, dtype=np.float64)


def load_cifar10_binary(path: str | Path) -> LabeledDataset:
    """Parse a CIFAR-10 binary file with every pixel scaled to [0,1] as float64.

    The records are read in blocks of about BLOCK_BYTES of floats
    (:func:`row_blocks`) into one small reused buffer, and each block is
    scaled into the dataset's rows: no copy of the whole file is made. To keep
    some rows of files, read their uint8 pixels with
    :func:`read_cifar10_records` and scale only the kept rows
    (:func:`scale_pixels`): ``np.divide(pixels[kept], 255.0,
    dtype=np.float64)`` holds the same bits as
    ``load_cifar10_binary(path).features[kept]``.
    """
    count = _record_count(path)
    out = np.empty((count, CIFAR10_RECORD_BYTES))  # 3072 pixels and the column of ones
    labels = np.empty(count, dtype=np.int64)
    blocks = row_blocks(out)
    buffer = np.empty((blocks[0].stop if blocks else 0, CIFAR10_RECORD_BYTES), dtype=np.uint8)
    for rows, block in _read_records(path, blocks, buffer):
        scale_pixels(block[:, 1:], out[rows])
        labels[rows] = block[:, 0]
    return LabeledDataset.from_rows(out, labels, CIFAR10_CLASSES)


def write_cifar10_binary(dataset: LabeledDataset, path: str | Path) -> None:
    """Inverse of :func:`load_cifar10_binary`; features must lie in [0,1]."""
    if dataset.dim != CIFAR10_RECORD_BYTES - 1:
        raise ValueError(f"expected {CIFAR10_RECORD_BYTES - 1} features per row, got {dataset.dim}")
    if dataset.labels.max(initial=0) >= CIFAR10_CLASSES:  # a label byte holds 0-9 only
        raise ValueError(f"label {int(dataset.labels.max())} out of range 0-9")
    pixels = np.rint(dataset.features * 255.0)
    if pixels.min(initial=0) < 0 or pixels.max(initial=0) > 255:
        raise ValueError("features must lie in [0, 1]")
    out = np.empty((len(dataset), CIFAR10_RECORD_BYTES), dtype=np.uint8)
    out[:, 0] = dataset.labels
    out[:, 1:] = pixels.astype(np.uint8)
    with atomic_write(path, "wb") as fh:
        fh.write(out.tobytes())
