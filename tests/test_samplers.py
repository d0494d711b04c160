import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lobmix import (
    CB,
    IB,
    ClassIndex,
    analytic_occurrence,
    draw_pairs,
    make_rng,
    sample_batch,
)

from conftest import labels_only_dataset, selection_probability


class TestSelectionProbability:
    def test_class_balanced_formula(self, lt_dataset):
        probs = selection_probability(CB, lt_dataset.class_index())
        # smallest class has 500 examples in a 10-class index
        assert probs[-1] == pytest.approx(2.0e-4, abs=0)
        assert probs[-1] == 1.0 / (500 * 10)

    def test_instance_balanced_uniform(self, lt_dataset):
        index = lt_dataset.class_index()
        probs = selection_probability(IB, index)
        assert index.total == 20434
        assert np.all(probs == 1.0 / 20434)

    def test_balanced_dataset_kinds_agree(self):
        index = labels_only_dataset([50] * 4).class_index()
        ib = selection_probability(IB, index)
        cb = selection_probability(CB, index)
        assert np.array_equal(ib, cb)

    def test_class_masses_exact(self, lt_counts, lt_dataset):
        """Rational oracle: per-class CB mass is exactly 1/C, IB mass n_k/N."""
        index = lt_dataset.class_index()
        num_classes = len(lt_counts)
        total = sum(lt_counts)
        for k, n_k in enumerate(lt_counts):
            assert sum([Fraction(1, n_k * num_classes)] * n_k) == Fraction(1, num_classes)
            assert sum([Fraction(1, total)] * n_k) == Fraction(n_k, total)
        mass = np.bincount(lt_dataset.labels, weights=selection_probability(CB, index))
        assert np.allclose(mass, 1.0 / num_classes, rtol=0, atol=1e-12)

    def test_total_probability(self, lt_dataset):
        index = lt_dataset.class_index()
        for kind in (IB, CB):
            probs = selection_probability(kind, index)
            assert abs(math.fsum(probs) - 1.0) <= 1e-12

    def test_rejects_empty_class(self):
        from lobmix import ClassIndex

        index = ClassIndex.from_labels(np.zeros(10, dtype=np.int64), 2)  # class 1 is empty
        with pytest.raises(ValueError):
            selection_probability(CB, index)


def pairs(ds, kinds, seed, n):
    """The (i, j) columns of drawn mixed rows: one pair member from each sampler."""
    i, j, _ = draw_pairs(kinds, ds.class_index(), 1.0, make_rng(seed, "test"), n)
    return np.stack([i, j], axis=1)


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

    @pytest.mark.parametrize("kind", [IB, CB], ids=["instance_balanced", "class_balanced"])
    def test_chi_square_goodness_of_fit(self, kind, lt_counts, lt_dataset):
        index = lt_dataset.class_index()
        draws = sample_batch(kind, index, make_rng(99, "test"), 1_000_000)
        observed = np.bincount(lt_dataset.labels[draws], minlength=10)
        mass = np.bincount(lt_dataset.labels, weights=selection_probability(kind, index))
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

    def test_class_balanced_rejects_empty_class(self):
        index = ClassIndex.from_labels(np.zeros(10, dtype=np.int64), 2)  # class 1 is empty
        with pytest.raises(ValueError, match="^class-balanced sampling requires every class to be populated$"):
            sample_batch(CB, index, make_rng(3, "test"), 4)

    @pytest.mark.parametrize("kind", ["instance_balanced", "class_balanced", "IB"])
    def test_unknown_kind_is_rejected(self, kind, lt_dataset):
        # a name other than ib or cb is one error naming it, not the other kind's draw or ratios
        index = lt_dataset.class_index()
        message = f"^unknown sampler kind '{kind}', expected 'ib' or 'cb'$"
        with pytest.raises(ValueError, match=message):
            sample_batch(kind, index, make_rng(0, "test"), 8)
        for kinds in ((kind,), (kind, kind), (IB, kind), (kind, CB)):
            with pytest.raises(ValueError, match=message):
                draw_pairs(kinds, index, 1.0, make_rng(0, "test"), 8)
        for kinds in ((kind,), (kind, kind), (IB, kind), (kind, CB)):
            with pytest.raises(ValueError, match=message):
                analytic_occurrence(kinds, index)

    @pytest.mark.parametrize(
        "kinds", [(), (IB, CB, "bogus"), (CB, CB, CB), (IB, IB, IB, IB)], ids=["none", "bogus-third", "three", "four"]
    )
    def test_other_than_one_or_two_kinds_is_rejected(self, kinds, lt_dataset):
        # a third kind is one error naming the tuple, not silently ignored; no kinds is not an IndexError
        index = lt_dataset.class_index()
        message = f"^{re.escape(f'a draw takes one or two sampler kinds, got {kinds!r}')}$"
        with pytest.raises(ValueError, match=message):
            draw_pairs(kinds, index, 1.0, make_rng(0, "test"), 8)
        with pytest.raises(ValueError, match=message):
            analytic_occurrence(kinds, index)

    def test_equal_seeds_equal_batches(self, lt_dataset):
        index = lt_dataset.class_index()
        a = sample_batch(CB, index, make_rng(31, "x"), 256)
        b = sample_batch(CB, index, make_rng(31, "x"), 256)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", [IB, CB])
    def test_indices_are_int64(self, kind):
        # an index from labels (argsort) or from counts (arange) holds int64, as rng.integers draws
        for index in (ClassIndex.from_labels(np.array([1, 0, 1, 1, 0]), 2), ClassIndex.from_counts([2, 3])):
            batch = sample_batch(kind, index, make_rng(0, "test"), 16)
            assert batch.dtype == np.int64 and 0 <= batch.min() and batch.max() < 5


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
        ib_expected = np.array(list(lt_counts)) / sum(lt_counts)
        assert np.all(np.abs(first - ib_expected) <= 0.005)
        assert np.all(np.abs(second - 0.1) <= 0.005)

    def test_class_id_correlation(self, lt_dataset):
        drawn = pairs(lt_dataset, (CB, CB), 60, 1_000_000)
        c1 = lt_dataset.labels[drawn[:, 0]].astype(np.float64)
        c2 = lt_dataset.labels[drawn[:, 1]].astype(np.float64)
        corr = np.corrcoef(c1, c2)[0, 1]
        assert abs(corr) <= 0.01
