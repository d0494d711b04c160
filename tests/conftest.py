import numpy as np
import pytest

from lobmix import ClassCounts, LabeledDataset, exponential_counts, labels_only_dataset, mix_pair

# Exponential profile for 10 classes at imbalance 10, largest class 5000.
# Frozen from an independent evaluation of n_max * rho**(-k/9) with half-up
# rounding; total is 20434.
CIFAR_LT_RHO10 = (5000, 3871, 2997, 2321, 1797, 1391, 1077, 834, 646, 500)


@pytest.fixture(scope="session")
def lt_counts() -> ClassCounts:
    return exponential_counts(5000, 10, 10)


@pytest.fixture(scope="session")
def lt_dataset(lt_counts) -> LabeledDataset:
    """Labels-only dataset with the rho=10 exponential profile."""
    return labels_only_dataset(lt_counts)


def mix_pair_rows(dataset: LabeledDataset, batch) -> list:
    """Every row of a mixed batch rebuilt by the scalar reference ``mix_pair``."""
    return [
        mix_pair(dataset.features[i], ci, dataset.features[j], cj, float(lam), dataset.num_classes, src=(i, j))
        for (i, j, ci, cj), lam in zip(batch.src, batch.lams)
    ]


def dense_targets(dataset: LabeledDataset, batch) -> np.ndarray:
    """The (B, C) soft-label rows of a mixed batch, from ``mix_pair``."""
    return np.stack([row.label.weights for row in mix_pair_rows(dataset, batch)])
