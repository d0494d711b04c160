"""Label-occurrence-balanced mixup for long-tailed classification."""

from .longtail import (
    ClassIndex,
    DatasetManifest,
    ImbalanceProfile,
    LabeledDataset,
    load_cifar10_binary,
    longtail_split,
    synth_gaussian_mixture,
    write_cifar10_binary,
)
from .mixer import blend, draw_pairs, pair_weights, sample_lambda
from .occurrence import COMBOS, OccurrenceReport, analytic_occurrence, empirical_occurrence
from .samplers import CB, IB, sample_batch
from .seeds import make_rng
from .trainer import (
    STRATEGIES,
    EvalReport,
    TrainConfig,
    evaluate,
    loss_and_grad,
    standardize,
    train,
)

__all__ = [
    "CB",
    "COMBOS",
    "ClassIndex",
    "DatasetManifest",
    "EvalReport",
    "IB",
    "ImbalanceProfile",
    "LabeledDataset",
    "OccurrenceReport",
    "STRATEGIES",
    "TrainConfig",
    "analytic_occurrence",
    "blend",
    "draw_pairs",
    "empirical_occurrence",
    "evaluate",
    "load_cifar10_binary",
    "longtail_split",
    "loss_and_grad",
    "make_rng",
    "pair_weights",
    "sample_batch",
    "sample_lambda",
    "standardize",
    "synth_gaussian_mixture",
    "train",
    "write_cifar10_binary",
]
