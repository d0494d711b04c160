#!/usr/bin/env python3
"""Compare training strategies on long-tailed Gaussian-mixture data.

Runs every strategy of `lobmix.STRATEGIES`, in its order, across several seeds
via the CLI on the committed experiment `configs/c10.json` and aggregates the
per-strategy balanced and group accuracies with `lobmix report`. The
interesting comparison is lob vs mixup: same mixing, different pairing
distribution.
"""
import argparse
import tempfile
from pathlib import Path

from lobmix import STRATEGIES
from lobmix.cli import main as lobmix_main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "c10.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out", default=None, help="directory for run outputs (default: temp dir)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    root = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="lobmix-strategies-"))
    root.mkdir(parents=True, exist_ok=True)

    run_dirs = []
    for strategy in STRATEGIES:
        for seed in range(args.seeds):
            out = root / f"{strategy}_seed{seed}"
            code = lobmix_main([
                "train", "--config", str(CONFIG),
                "--strategy", strategy, "--seed", str(seed), "--out", str(out),
            ])
            if code != 0:
                raise SystemExit(code)
            run_dirs.append(str(out))

    print(f"\nruns in {root}\n")
    raise SystemExit(lobmix_main(["report", *run_dirs, "--out", str(root / "aggregate.csv")]))


if __name__ == "__main__":
    main()
