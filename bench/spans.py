"""Layer spans for the traced benchmark run.

The tracer replaces named functions of the ``lobmix`` modules with wrappers
that record one span per call: the layer (the module), the function, and the
time the call took. ``lobmix`` imports names with ``from .x import y``, so a
function is replaced at every module attribute that holds it (for example
``lobmix.trainer.child_seed`` as well as ``lobmix.seeds.child_seed``);
methods are replaced on their class. A span's self time is its duration minus
the time of the spans nested inside it, so the self times of all layers add
up to the duration of the root span around ``lobmix.cli.main``.

Spans are kept in memory as running totals and returned by
:meth:`Tracer.summary`. A name that no longer exists is listed as missing and
counts zero calls.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("seeds", "samplers", "mixer", "occurrence", "trainer", "longtail", "cli")

# Functions wrapped in each layer module; "Class.method" names a method.
TARGETS = {
    "seeds": ("seed_sequence", "make_rng", "child_seed"),
    "samplers": ("selection_probability", "SamplerState.create", "sample_batch", "next_index", "pair_stream"),
    "mixer": ("sample_lambda", "mix_pair", "make_batch", "make_batch_vanilla", "make_batch_lob", "write_batch_audit"),
    "occurrence": (
        "analytic_occurrence", "OccurrenceTally.add", "OccurrenceTally.merge", "OccurrenceTally.report",
        "empirical_occurrence", "head_label_incidence", "default_head_set", "write_occurrence_csv",
    ),
    "trainer": (
        "init_params", "forward", "grad", "soft_cross_entropy", "train", "evaluate",
        "default_groups", "write_history_csv",
    ),
    "longtail": (
        "exponential_counts", "pareto_counts", "step_counts", "ImbalanceProfile.class_counts",
        "LabeledDataset.__post_init__", "LabeledDataset.class_index", "ClassIndex.from_labels",
        "DatasetManifest.save", "DatasetManifest.load", "subsample_longtail", "apply_manifest",
        "synth_gaussian_mixture", "longtail_split", "load_cifar10_binary", "write_cifar10_binary",
    ),
}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _count_draws(counts, args, kwargs, result) -> None:
    counts["samplers.draws"] += len(result)


def _count_labels(counts, args, kwargs, result) -> None:
    # Nonzero label cells: one per row whose sources share a class, two otherwise.
    import numpy as np

    src = result.src
    rows = len(src)
    counts["mixer.batches"] += 1
    counts["mixer.label_nonzero"] += rows + int(np.count_nonzero(src[:, 2] != src[:, 3]))
    labels = getattr(result, "labels", None)
    if labels is not None:
        counts["mixer.label_bytes"] += labels.nbytes
        counts["mixer.label_cells"] += labels.size
    else:  # two-hot batches carry (class_i, class_j, lam) per row
        counts["mixer.label_bytes"] += result.lams.nbytes + src[:, 2:4].nbytes
        counts["mixer.label_cells"] += 2 * rows


def _count_tally(counts, args, kwargs, result) -> None:
    tally, batch = args[0], _arg(args, kwargs, 1, "batch")
    counts["occurrence.add_calls"] += 1
    counts["occurrence.class_scans"] += tally.num_classes * len(batch)


def _count_steps(counts, args, kwargs, result) -> None:
    cfg = _arg(args, kwargs, 2, "cfg")
    counts["trainer.steps"] += cfg.epochs * cfg.batches_per_epoch


def _count_source(pos: int):
    def hook(counts, args, kwargs, result) -> None:
        counts["longtail.source_bytes"] += os.path.getsize(_arg(args, kwargs, pos, "path"))
    return hook


def _count_features(counts, args, kwargs, result) -> None:
    counts["longtail.feature_bytes"] += args[0].features.nbytes


# Counters taken from a call's arguments or result, after the call returns.
COUNTERS = (
    "samplers.draws", "mixer.batches", "mixer.label_bytes", "mixer.label_nonzero", "mixer.label_cells",
    "occurrence.add_calls", "occurrence.class_scans", "trainer.steps",
    "longtail.source_bytes", "longtail.feature_bytes",
)
HOOKS = {
    ("samplers", "sample_batch"): _count_draws,
    ("mixer", "make_batch"): _count_labels,
    ("occurrence", "OccurrenceTally.add"): _count_tally,
    ("trainer", "train"): _count_steps,
    ("longtail", "load_cifar10_binary"): _count_source(0),
    ("longtail", "DatasetManifest.load"): _count_source(1),
    ("longtail", "LabeledDataset.__post_init__"): _count_features,
}


class Tracer:
    """Running span totals per (layer, function), plus hook counters."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [layer, name, start, nested time]
        self.calls: Counter = Counter()  # (layer, name) -> calls
        self.entries: Counter = Counter()  # layer -> calls from another layer
        self.inclusive: defaultdict = defaultdict(float)  # (layer, name) -> span time
        self.entry_time: defaultdict = defaultdict(float)  # layer -> time of calls from another layer
        self.self_time: defaultdict = defaultdict(float)  # (layer, name) -> self time
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def call(self, layer: str, name: str, fn, args, kwargs, hook=None):
        parent = self._stack[-1] if self._stack else None
        frame = [layer, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame[2]
            self._stack.pop()
            key = (layer, name)
            self.calls[key] += 1
            self.inclusive[key] += elapsed
            self.self_time[key] += elapsed - frame[3]
            if parent is not None:
                parent[3] += elapsed
            if parent is None or parent[0] != layer:
                self.entries[layer] += 1
                self.entry_time[layer] += elapsed
        if hook is not None:
            try:
                hook(self.counts, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, OSError):
                # the program changed shape under the hook: report, do not fail the command
                label = f"hook:{layer}.{name}"
                if label not in self.missing:
                    self.missing.append(label)
        return result

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, hook)

        return wrapper

    def install(self, package: str = "lobmix") -> None:
        """Wrap every target at each module attribute or class that holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{package}.{layer}.{name}")
                    continue
                if owner_name:
                    if isinstance(raw, (classmethod, staticmethod)):
                        setattr(owner, attr, type(raw)(self._wrap(layer, name, raw.__func__)))
                    else:
                        setattr(owner, attr, self._wrap(layer, name, raw))
                    continue
                wrapped = self._wrap(layer, name, raw)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Raw totals for one traced command; the caller derives ratios."""
        out: dict = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("calls", "self_s")}
        for (layer, _), t in self.self_time.items():
            out[f"{layer}.self_s"] += t
        for layer, n in self.entries.items():
            out[f"{layer}.calls"] = n
        out.update({key: self.counts[key] for key in COUNTERS})
        occ = [("occurrence", "OccurrenceTally.add"), ("occurrence", "OccurrenceTally.report")]
        out["occurrence.tally_self_s"] = sum(self.self_time.get(k, 0.0) for k in occ)
        out["occurrence.analytic_s"] = self.inclusive.get(("occurrence", "analytic_occurrence"), 0.0)
        out["trainer.step_self_s"] = self.self_time.get(("trainer", "train"), 0.0)
        out["trainer.evaluate_calls"] = self.calls.get(("trainer", "evaluate"), 0)
        out["trainer.evaluate_s"] = self.inclusive.get(("trainer", "evaluate"), 0.0)
        out["longtail.load_s"] = self.entry_time.get("longtail", 0.0)
        out["missing"] = list(self.missing)
        return out
