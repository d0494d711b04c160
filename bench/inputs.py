"""Seeded input generator for the benchmark workloads.

Run as a child process of ``run.py``:

    python3 bench/inputs.py --workload NAME --seed N --src SRC --out DIR

It writes the files the workload's commands read (a training config, CIFAR-10
format binaries, or a labels-only manifest) into DIR, and DIR/plan.json: the
workload plan (the ``lobmix`` commands of one round, each with its set-up
load and its output path) plus the versions of the numerical stack it ran
on. The same seed always writes the same files.
Importing ``lobmix`` here also compiles its bytecode before anything is timed.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("train-synth", "train-cifar", "analyze-wide")
STRATEGIES = ("erm", "mixup", "lob", "deferred")

# README training config; only the seed changes between benchmark runs.
SYNTH_CONFIG = {
    "dataset": {"kind": "synth", "classes": 10, "dim": 10, "separation": 3.0,
                "base_per_class": 700, "test_per_class": 200},
    "profile": {"kind": "exponential", "rho": 100, "n_max": 500},
    "train": {"epochs": 40, "batches_per_epoch": 40, "batch_size": 128,
              "lr": 0.5, "lr_decay_epochs": [30, 37], "lr_decay_factor": 0.1,
              "alpha": 1.0, "strategy": "deferred"},
}

# CIFAR-10-format source: 1000 images per class split over two batch files
# (so the loader concatenates), a balanced 200-per-class test file, and
# pixel noise that keeps balanced accuracy well below 1.
CIFAR_PER_CLASS = 1000
CIFAR_TEST_PER_CLASS = 200
CIFAR_TRAIN_FILES = 2
CIFAR_NOISE = 2.5
CIFAR_TRAIN = {"epochs": 10, "batches_per_epoch": 20, "batch_size": 128,
               "lr": 0.05, "lr_decay_epochs": [6, 8], "lr_decay_factor": 0.1,
               "alpha": 1.0, "strategy": "deferred"}

# Labels-only long tail at large C: exponential, rho 10, largest class 2000.
WIDE_CLASSES = 1000
WIDE_N_MAX = 2000
WIDE_SAMPLES = 100_000


def blas_facts() -> dict:
    """numpy and OpenBLAS versions and the BLAS thread count in force."""
    import numpy as np

    facts = {"numpy": np.__version__, "openblas": "unknown", "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            facts["openblas"] = get_config().decode()
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            facts["blas_threads"] = get_threads()
    return facts


def train_op(strategy: str, config: Path, seed: int, runs: Path, examples: int) -> dict:
    out = runs / strategy
    return {
        "name": f"train-{strategy}",
        "kind": "train",
        "argv": ["train", "--config", str(config), "--strategy", strategy,
                 "--seed", str(seed), "--out", str(out)],
        "setup": {"kind": "config", "path": str(config)},
        "output": str(out),
        "examples": examples,
    }


def train_examples(train: dict) -> int:
    return train["epochs"] * train["batches_per_epoch"] * train["batch_size"]


def plan_train_synth(seed: int, out: Path) -> dict:
    config = out / "synth.json"
    config.write_text(json.dumps({**SYNTH_CONFIG, "seed": seed}, indent=2) + "\n")
    runs = out / "runs"
    examples = train_examples(SYNTH_CONFIG["train"])
    ops = [train_op(s, config, seed, runs, examples) for s in STRATEGIES]
    aggregate = out / "aggregate.csv"
    ops.append({
        "name": "report",
        "kind": "report",
        "argv": ["report", *(str(runs / s) for s in STRATEGIES), "--out", str(aggregate)],
        "setup": None,
        "output": str(aggregate),
        "strategies": list(STRATEGIES),
        "examples": 0,
    })
    return {"ops": ops, "epochs": SYNTH_CONFIG["train"]["epochs"]}


def cifar_split(rng, means, per_class: int):
    """Noisy class-mean images in [0, 1], records in shuffled order."""
    import numpy as np

    from lobmix import LabeledDataset

    labels = rng.permutation(np.repeat(np.arange(means.shape[0]), per_class))
    pixels = means[labels] + CIFAR_NOISE * rng.standard_normal((labels.size, means.shape[1]))
    return LabeledDataset(np.clip(pixels, 0.0, 1.0), labels, means.shape[0])


def plan_train_cifar(seed: int, out: Path) -> dict:
    import numpy as np

    from lobmix import write_cifar10_binary
    from lobmix.longtail import CIFAR10_CLASSES

    rng = np.random.default_rng([seed, 10])
    means = rng.uniform(0.2, 0.8, size=(CIFAR10_CLASSES, 3072))
    per_file = CIFAR_PER_CLASS // CIFAR_TRAIN_FILES
    train_paths = []
    for f in range(CIFAR_TRAIN_FILES):
        path = out / f"data_batch_{f + 1}.bin"
        write_cifar10_binary(cifar_split(rng, means, per_file), path)
        train_paths.append(str(path))
    test_path = out / "test_batch.bin"
    write_cifar10_binary(cifar_split(rng, means, CIFAR_TEST_PER_CLASS), test_path)
    config = out / "cifar.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "cifar10", "train_paths": train_paths, "test_path": str(test_path)},
        "profile": {"kind": "exponential", "rho": 10, "n_max": CIFAR_PER_CLASS},
        "train": CIFAR_TRAIN,
        "seed": seed,
    }, indent=2) + "\n")
    op = train_op(CIFAR_TRAIN["strategy"], config, seed, out / "runs", train_examples(CIFAR_TRAIN))
    return {"ops": [op], "epochs": CIFAR_TRAIN["epochs"]}


def plan_analyze_wide(seed: int, out: Path) -> dict:
    import numpy as np

    from lobmix import DatasetManifest, ImbalanceProfile

    profile = ImbalanceProfile("exponential", 10.0, WIDE_N_MAX)
    counts = profile.class_counts(WIDE_CLASSES)
    rng = np.random.default_rng([seed, 1000])
    kept = tuple(
        tuple(int(i) for i in np.sort(k * WIDE_N_MAX + rng.choice(WIDE_N_MAX, size=n, replace=False)))
        for k, n in enumerate(counts)
    )
    manifest = out / "manifest.json"
    DatasetManifest(
        source=f"labels-only:classes={WIDE_CLASSES},per_class={WIDE_N_MAX}",
        profile=profile,
        seed=seed,
        counts=tuple(counts),
        kept_indices=kept,
    ).save(manifest)
    occ = out / "occ"
    op = {
        "name": "analyze",
        "kind": "analyze",
        "argv": ["analyze", "--manifest", str(manifest), "--samples", str(WIDE_SAMPLES),
                 "--seed", str(seed), "--out", str(occ)],
        "setup": {"kind": "manifest", "path": str(manifest)},
        "output": str(occ),
        "counts": list(counts),
        "samples": WIDE_SAMPLES,
        "examples": 3 * WIDE_SAMPLES,
    }
    return {"ops": [op]}


PLANNERS = {"train-synth": plan_train_synth, "train-cifar": plan_train_cifar, "analyze-wide": plan_analyze_wide}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory that holds the lobmix package")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import lobmix  # noqa: F401  (compiles the package before any timed import)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plan = PLANNERS[args.workload](args.seed, out)
    plan["facts"] = blas_facts()
    (out / "plan.json").write_text(json.dumps(plan))
    return 0


if __name__ == "__main__":
    sys.exit(main())
