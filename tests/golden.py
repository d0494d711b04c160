"""Golden outputs: a fixed set of CLI flows whose every output byte is pinned.

The flows run in one directory with relative paths, so no absolute path
reaches an output. They cover synthetic ``build-lt`` plus ``analyze`` with
and without sampling, ``train`` with each strategy of ``lobmix.STRATEGIES``
on a shortened README config plus ``report``, and ``train`` on two CIFAR
train files; a strategy added to the table shows up as new files until the
digests are regenerated. ``tests/golden/digests.json`` holds the
sha256 of every file they leave and of each command's stdout, each command's
exit code, and the numpy version and random-stream layout they were written
under.

Regenerate the digests after an intended byte change, and explain each
changed file in CHANGES.md::

    PYTHONPATH=src python tests/golden.py --write
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from lobmix import STRATEGIES

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

# The README config with 6 epochs of 10 batches; both decay epochs fall inside the run.
SYNTH_CONFIG = {
    "dataset": {
        "kind": "synth", "classes": 10, "dim": 10, "separation": 3.0,
        "base_per_class": 700, "test_per_class": 200,
    },
    "profile": {"kind": "exponential", "rho": 100, "n_max": 500},
    "train": {
        "epochs": 6, "batches_per_epoch": 10, "batch_size": 128, "lr": 0.5,
        "lr_decay_epochs": [3, 5], "lr_decay_factor": 0.1, "alpha": 1.0, "strategy": "mixup",
    },
    "seed": 0,
}

CIFAR_CONFIG = {
    "dataset": {"kind": "cifar10", "train_paths": ["cifar/a.bin", "cifar/b.bin"], "test_path": "cifar/test.bin"},
    "profile": {"kind": "exponential", "rho": 5, "n_max": 40},
    "train": {
        "epochs": 3, "batches_per_epoch": 5, "batch_size": 32, "lr": 0.4,
        "lr_decay_epochs": [2], "lr_decay_factor": 0.1, "alpha": 1.0, "strategy": "deferred",
    },
    "seed": 4,
}

COMMANDS = [
    ["build-lt", "--synth-classes", "10", "--synth-per-class", "700",
     "--profile", "exponential", "--rho", "100", "--seed", "0", "--out", "lt-synth"],
    ["analyze", "--manifest", "lt-synth/manifest.json", "--samples", "20000", "--seed", "1", "--out", "occ"],
    ["analyze", "--manifest", "lt-synth/manifest.json", "--samples", "0", "--out", "occ0"],
    *(["train", "--config", "synth.json", "--strategy", s, "--out", f"runs/{s}"] for s in STRATEGIES),
    ["report", *(f"runs/{s}" for s in STRATEGIES), "--out", "runs/aggregate.csv"],
    ["train", "--config", "cifar.json", "--out", "runs-cifar/deferred"],
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(root: Path) -> None:
    """The two configs, and CIFAR-format train files (430 + 570 records) and a test file."""
    from lobmix import LabeledDataset, write_cifar10_binary

    (root / "synth.json").write_text(json.dumps(SYNTH_CONFIG, indent=2) + "\n")
    (root / "cifar.json").write_text(json.dumps(CIFAR_CONFIG, indent=2) + "\n")
    (root / "cifar").mkdir()
    rng = np.random.default_rng(0)
    labels = rng.permutation(np.repeat(np.arange(10), 100))
    pixels = rng.integers(0, 256, size=(labels.size, 3072), dtype=np.uint8)
    write_cifar10_binary(LabeledDataset(pixels[:430] / 255.0, labels[:430], 10), root / "cifar" / "a.bin")
    write_cifar10_binary(LabeledDataset(pixels[430:] / 255.0, labels[430:], 10), root / "cifar" / "b.bin")
    test_labels = np.repeat(np.arange(10), 20)
    test_pixels = rng.integers(0, 256, size=(test_labels.size, 3072), dtype=np.uint8)
    write_cifar10_binary(LabeledDataset(test_pixels / 255.0, test_labels, 10), root / "cifar" / "test.bin")


def run_flows(root: Path) -> dict:
    """Write the inputs into the empty directory ``root``, run every command there, and digest the result."""
    from lobmix.cli import main
    from lobmix.seeds import RNG_LAYOUT

    commands = []
    previous = os.getcwd()
    os.chdir(root)
    try:
        write_inputs(Path("."))
        for argv in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            commands.append({"argv": argv, "exit": code, "stdout_sha256": sha256(out.getvalue().encode("utf-8"))})
    finally:
        os.chdir(previous)
    files = {p.relative_to(root).as_posix(): sha256(p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file()}
    return {"numpy": np.__version__, "rng_layout": RNG_LAYOUT, "commands": commands, "files": files}


def differences(want: dict, got: dict) -> list[str]:
    """One line per command whose exit code or stdout changed, and per file that changed, appeared or went missing."""
    lines = []
    for w, g in zip(want["commands"], got["commands"]):
        for key in ("exit", "stdout_sha256"):
            if w[key] != g[key]:
                lines.append(f"{key} of `lobmix {' '.join(w['argv'])}` differs")
    if len(want["commands"]) != len(got["commands"]):
        lines.append(f"{len(got['commands'])} commands ran, the digests hold {len(want['commands'])}")
    for name in sorted(set(want["files"]) | set(got["files"])):
        if name not in got["files"]:
            lines.append(f"{name} is missing")
        elif name not in want["files"]:
            lines.append(f"{name} is new")
        elif want["files"][name] != got["files"][name]:
            lines.append(f"{name} differs")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.name} from this checkout")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        got = run_flows(Path(tmp))
    if args.write:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}: {len(got['files'])} files, {len(got['commands'])} commands")
        return 0
    diff = differences(json.loads(DIGESTS.read_text()), got)
    print("\n".join(diff) if diff else "all outputs match the golden digests")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
