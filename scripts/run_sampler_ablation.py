#!/usr/bin/env python3
"""Sampler-combination ablation on a 10-class long-tailed profile.

Prints, for each pair of samplers feeding the mixer, the analytic and
measured label-occurrence balance (max/min ratio of the per-class shares of
soft-label mass) plus the fraction of mixed examples touching a head class
(the head mask is ``default_groups(counts) == 0``, as in ``lobmix analyze``).
With two instance-balanced samplers the head classes dominate; two
class-balanced samplers equalize the shares. A cell reads ``-`` where there
is no value: nothing was measured, or some class got no measured mass.
"""
import argparse

import numpy as np

from lobmix import COMBOS, ImbalanceProfile, TrainConfig
from lobmix.occurrence import default_groups, measure_combos


def cell(x: float | None, width: int) -> str:
    return f"{'-':>{width}s}" if x is None else f"{x:{width}.4f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=5000)
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--rho", type=float, default=10.0)
    parser.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        counts = ImbalanceProfile("exponential", args.rho, args.n_max).class_counts(args.classes)
        rows = measure_combos(counts, list(COMBOS), args.alpha, args.seed, args.samples)
    except ValueError as exc:  # a bad flag: one error line and exit code 2, before anything is printed
        parser.error(str(exc))
    print(f"counts: {list(counts)}")
    print(f"head classes (largest third by n_k): {np.flatnonzero(default_groups(counts) == 0).tolist()}")
    print(f"{'combo':8s} {'analytic max/min':>17s} {'measured max/min':>17s} {'head incidence':>15s}")
    for name, analytic, measured in rows:
        balance, incidence = (measured.balance_ratio, measured.head_incidence) if measured else (None, None)
        print(f"{name:8s} {cell(analytic.balance_ratio, 17)} {cell(balance, 17)} {cell(incidence, 15)}")


if __name__ == "__main__":
    main()
