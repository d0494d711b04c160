#!/usr/bin/env python3
"""Sampler-combination ablation on a 10-class long-tailed profile.

Prints, for each pair of samplers feeding the mixer, the analytic and
measured label-occurrence balance (max/min ratio of the per-class shares of
soft-label mass) plus the fraction of mixed examples touching a head class.
With two instance-balanced samplers the head classes dominate; two
class-balanced samplers equalize the shares.
"""
import argparse

from lobmix import (
    TrainConfig,
    analytic_occurrence,
    empirical_occurrence,
    exponential_counts,
    labels_only_dataset,
    make_batch,
    make_rng,
)
from lobmix.occurrence import COMBO_NAMES, default_head_set, parse_combo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=5000)
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--rho", type=float, default=10.0)
    parser.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    counts = exponential_counts(args.n_max, args.classes, args.rho)
    dataset = labels_only_dataset(counts)
    index = dataset.class_index()
    head = default_head_set(counts)

    print(f"counts: {list(counts)}")
    print(f"head classes (n_k above median): {sorted(head)}")
    print(f"{'combo':8s} {'analytic max/min':>17s} {'measured max/min':>17s} {'head incidence':>15s}")
    for name in COMBO_NAMES:
        combo = parse_combo(name, args.alpha)
        analytic = analytic_occurrence(combo, index)
        rng = make_rng(args.seed, "analyze:" + name)
        batch = make_batch(dataset, index, args.samples, args.alpha, combo.kinds, rng)
        measured = empirical_occurrence([batch], args.classes, head_set=head)
        print(
            f"{name:8s} {analytic.balance_ratio:17.4f} "
            f"{measured.balance_ratio:17.4f} {measured.head_incidence:15.4f}"
        )


if __name__ == "__main__":
    main()
