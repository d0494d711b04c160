#!/usr/bin/env python3
"""Sampler-combination ablation on a 10-class long-tailed profile.

Prints, for each pair of samplers feeding the mixer, the analytic and
measured label-occurrence balance (max/min ratio of the per-class shares of
soft-label mass) plus the fraction of mixed examples touching a head class
(the head mask is ``default_groups(counts) == 0``, as in ``lobmix analyze``).
With two instance-balanced samplers the head classes dominate; two
class-balanced samplers equalize the shares.
"""
import argparse

import numpy as np

from lobmix import (
    COMBOS,
    ImbalanceProfile,
    TrainConfig,
    analytic_occurrence,
    draw_pairs,
    empirical_occurrence,
    labels_only_dataset,
    make_rng,
)
from lobmix.trainer import default_groups


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=5000)
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--rho", type=float, default=10.0)
    parser.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    counts = ImbalanceProfile("exponential", args.rho, args.n_max).class_counts(args.classes)
    dataset = labels_only_dataset(counts)
    index = dataset.class_index()
    head = default_groups(counts) == 0

    print(f"counts: {list(counts)}")
    print(f"head classes (largest third by n_k): {np.flatnonzero(head).tolist()}")
    print(f"{'combo':8s} {'analytic max/min':>17s} {'measured max/min':>17s} {'head incidence':>15s}")
    for name, kinds in COMBOS.items():
        analytic = analytic_occurrence(kinds, index)
        i, j, lam = draw_pairs(kinds, index, args.alpha, make_rng(args.seed, "analyze:" + name), args.samples)
        measured = empirical_occurrence(dataset.labels[i], dataset.labels[j], lam, args.classes, head=head)
        print(
            f"{name:8s} {analytic.balance_ratio:17.4f} "
            f"{measured.balance_ratio:17.4f} {measured.head_incidence:15.4f}"
        )


if __name__ == "__main__":
    main()
