#!/usr/bin/env python3
"""Compare training strategies on long-tailed Gaussian-mixture data.

Runs every strategy of `lobmix.STRATEGIES`, in its order, across several seeds
via the CLI and aggregates the per-strategy balanced and group accuracies with
`lobmix report`. The interesting comparison is lob vs mixup: same mixing,
different pairing distribution.
"""
import argparse
import json
import tempfile
from pathlib import Path

from lobmix import STRATEGIES
from lobmix.cli import main as lobmix_main


def experiment_config() -> dict:
    return {
        "dataset": {
            "kind": "synth",
            "classes": 10,
            "dim": 10,
            "separation": 3.0,
            "base_per_class": 700,
            "test_per_class": 200,
        },
        "profile": {"kind": "exponential", "rho": 100, "n_max": 500},
        "train": {
            "epochs": 40,
            "batches_per_epoch": 40,
            "batch_size": 128,
            "lr": 0.5,
            "lr_decay_epochs": [30, 37],
            "lr_decay_factor": 0.1,
            "alpha": 1.0,
            "strategy": "mixup",
        },
        "seed": 0,
        "out_dir": None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out", default=None, help="directory for run outputs (default: temp dir)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    root = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="lobmix-strategies-"))
    root.mkdir(parents=True, exist_ok=True)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(experiment_config(), indent=2))

    run_dirs = []
    for strategy in STRATEGIES:
        for seed in range(args.seeds):
            out = root / f"{strategy}_seed{seed}"
            code = lobmix_main([
                "train", "--config", str(config_path),
                "--strategy", strategy, "--seed", str(seed), "--out", str(out),
            ])
            if code != 0:
                raise SystemExit(code)
            run_dirs.append(str(out))

    print(f"\nruns in {root}\n")
    raise SystemExit(lobmix_main(["report", *run_dirs, "--out", str(root / "aggregate.csv")]))


if __name__ == "__main__":
    main()
