import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lobmix import (
    CB,
    IB,
    SamplerKind,
    labels_only_dataset,
    make_batch,
    make_rng,
    sample_batch,
    selection_probability,
)


class TestSelectionProbability:
    def test_class_balanced_formula(self, lt_dataset):
        dist = selection_probability(CB, lt_dataset.class_index())
        # smallest class has 500 examples in a 10-class index
        assert dist.probs[-1] == pytest.approx(2.0e-4, abs=0)
        assert dist.probs[-1] == 1.0 / (500 * 10)

    def test_instance_balanced_uniform(self, lt_dataset):
        index = lt_dataset.class_index()
        dist = selection_probability(IB, index)
        assert index.total == 20434
        assert np.all(dist.probs == 1.0 / 20434)

    def test_balanced_dataset_kinds_agree(self):
        index = labels_only_dataset([50] * 4).class_index()
        ib = selection_probability(IB, index)
        cb = selection_probability(CB, index)
        assert np.array_equal(ib.probs, cb.probs)

    def test_class_masses_exact(self, lt_counts, lt_dataset):
        """Rational oracle: per-class CB mass is exactly 1/C, IB mass n_k/N."""
        index = lt_dataset.class_index()
        num_classes = len(lt_counts)
        total = lt_counts.total
        for k, n_k in enumerate(lt_counts):
            assert sum([Fraction(1, n_k * num_classes)] * n_k) == Fraction(1, num_classes)
            assert sum([Fraction(1, total)] * n_k) == Fraction(n_k, total)
        cb = selection_probability(CB, index)
        mass = cb.class_mass(index)
        assert np.allclose(mass, 1.0 / num_classes, rtol=0, atol=1e-12)

    def test_total_probability(self, lt_dataset):
        index = lt_dataset.class_index()
        for kind in (IB, CB):
            probs = selection_probability(kind, index).probs
            assert abs(math.fsum(probs) - 1.0) <= 1e-12

    def test_rejects_empty_class(self):
        from lobmix import ClassIndex

        index = ClassIndex((np.arange(10), np.empty(0, dtype=np.int64)), 10)
        with pytest.raises(ValueError):
            selection_probability(CB, index)


def pairs(ds, kinds, seed, n):
    """The (i, j) columns of a mixed batch: one pair member from each sampler."""
    return make_batch(ds, ds.class_index(), n, 1.0, kinds, make_rng(seed, "test")).src[:, :2]


class TestDraws:
    def test_class_balanced_frequencies(self, lt_dataset):
        draws = sample_batch(CB, lt_dataset.class_index(), make_rng(2024, "test"), 1_000_000)
        freq = np.bincount(lt_dataset.labels[draws], minlength=10) / draws.size
        assert np.all(np.abs(freq - 0.1) <= 0.001)

    def test_instance_balanced_head_frequency(self, lt_dataset):
        draws = sample_batch(IB, lt_dataset.class_index(), make_rng(2024, "test"), 1_000_000)
        head_freq = np.mean(lt_dataset.labels[draws] == 0)
        expected = 5000 / 20434
        assert abs(head_freq - expected) <= 0.02 * expected

    @pytest.mark.parametrize("kind", [IB, CB])
    def test_chi_square_goodness_of_fit(self, kind, lt_counts, lt_dataset):
        index = lt_dataset.class_index()
        draws = sample_batch(kind, index, make_rng(99, "test"), 1_000_000)
        observed = np.bincount(lt_dataset.labels[draws], minlength=10)
        mass = selection_probability(kind, index).class_mass(index)
        expected = mass * draws.size
        statistic = ((observed - expected) ** 2 / expected).sum()
        assert statistic < stats.chi2.ppf(0.999, df=9)

    def test_single_class(self):
        from lobmix import LabeledDataset

        ds = LabeledDataset(np.zeros((7, 1)), np.zeros(7, dtype=np.int64), 1)
        draws = sample_batch(CB, ds.class_index(), make_rng(5, "test"), 200)
        assert np.all(ds.labels[draws] == 0)


class TestSampleBatch:
    def test_rejects_empty_batch(self, lt_dataset):
        with pytest.raises(ValueError):
            sample_batch(CB, lt_dataset.class_index(), make_rng(3, "test"), 0)

    def test_equal_seeds_equal_batches(self, lt_dataset):
        index = lt_dataset.class_index()
        a = sample_batch(CB, index, make_rng(31, "x"), 256)
        b = sample_batch(CB, index, make_rng(31, "x"), 256)
        assert np.array_equal(a, b)


class TestPairStream:
    def test_class_pair_frequencies(self):
        ds = labels_only_dataset([100, 100])
        drawn = pairs(ds, (CB, CB), 8, 100_000)
        combos = ds.labels[drawn[:, 0]] * 2 + ds.labels[drawn[:, 1]]
        freq = np.bincount(combos, minlength=4) / drawn.shape[0]
        assert np.all(np.abs(freq - 0.25) <= 0.01)

    def test_mixed_kind_marginals(self, lt_counts, lt_dataset):
        drawn = pairs(lt_dataset, (IB, CB), 12, 200_000)
        first = np.bincount(lt_dataset.labels[drawn[:, 0]], minlength=10) / drawn.shape[0]
        second = np.bincount(lt_dataset.labels[drawn[:, 1]], minlength=10) / drawn.shape[0]
        ib_expected = np.array(list(lt_counts)) / lt_counts.total
        assert np.all(np.abs(first - ib_expected) <= 0.005)
        assert np.all(np.abs(second - 0.1) <= 0.005)

    def test_class_id_correlation(self, lt_dataset):
        drawn = pairs(lt_dataset, (CB, CB), 60, 1_000_000)
        c1 = lt_dataset.labels[drawn[:, 0]].astype(np.float64)
        c2 = lt_dataset.labels[drawn[:, 1]].astype(np.float64)
        corr = np.corrcoef(c1, c2)[0, 1]
        assert abs(corr) <= 0.01


class TestSamplerKind:
    def test_parse_aliases(self):
        assert SamplerKind.parse("ib") is IB
        assert SamplerKind.parse("class_balanced") is CB
        with pytest.raises(ValueError):
            SamplerKind.parse("nope")
