import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from lobmix import (
    CB,
    IB,
    SamplerKind,
    SamplerState,
    labels_only_dataset,
    next_index,
    pair_stream,
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


class TestDraws:
    def test_class_balanced_frequencies(self, lt_dataset):
        state = SamplerState.create(CB, lt_dataset.class_index(), seed=2024)
        draws = sample_batch(state, 1_000_000)
        freq = np.bincount(lt_dataset.labels[draws], minlength=10) / draws.size
        assert np.all(np.abs(freq - 0.1) <= 0.001)

    def test_instance_balanced_head_frequency(self, lt_dataset):
        state = SamplerState.create(IB, lt_dataset.class_index(), seed=2024)
        draws = sample_batch(state, 1_000_000)
        head_freq = np.mean(lt_dataset.labels[draws] == 0)
        expected = 5000 / 20434
        assert abs(head_freq - expected) <= 0.02 * expected

    @pytest.mark.parametrize("kind", [IB, CB])
    def test_chi_square_goodness_of_fit(self, kind, lt_counts, lt_dataset):
        index = lt_dataset.class_index()
        state = SamplerState.create(kind, index, seed=99)
        draws = sample_batch(state, 1_000_000)
        observed = np.bincount(lt_dataset.labels[draws], minlength=10)
        mass = selection_probability(kind, index).class_mass(index)
        expected = mass * draws.size
        statistic = ((observed - expected) ** 2 / expected).sum()
        assert statistic < stats.chi2.ppf(0.999, df=9)

    def test_single_class(self):
        from lobmix import LabeledDataset

        ds = LabeledDataset(np.zeros((7, 1)), np.zeros(7, dtype=np.int64), 1)
        state = SamplerState.create(CB, ds.class_index(), seed=5)
        draws = sample_batch(state, 200)
        assert np.all(ds.labels[draws] == 0)

    def test_draw_counter(self, lt_dataset):
        state = SamplerState.create(IB, lt_dataset.class_index(), seed=1)
        sample_batch(state, 10)
        next_index(state)
        assert state.draws == 11


class TestSampleBatch:
    def test_rejects_empty_batch(self, lt_dataset):
        state = SamplerState.create(CB, lt_dataset.class_index(), seed=3)
        with pytest.raises(ValueError):
            sample_batch(state, 0)

    def test_single_draw_matches_next_index(self, lt_dataset):
        index = lt_dataset.class_index()
        a = SamplerState.create(CB, index, seed=77)
        b = SamplerState.create(CB, index, seed=77)
        assert int(sample_batch(a, 1)[0]) == next_index(b)

    def test_equal_seeds_equal_batches(self, lt_dataset):
        index = lt_dataset.class_index()
        a = SamplerState.create(CB, index, seed=31, stream="x")
        b = SamplerState.create(CB, index, seed=31, stream="x")
        assert np.array_equal(sample_batch(a, 256), sample_batch(b, 256))


class TestPairStream:
    def test_class_pair_frequencies(self):
        index = labels_only_dataset([100, 100]).class_index()
        labels = labels_only_dataset([100, 100]).labels
        s1 = SamplerState.create(CB, index, seed=8, stream="a")
        s2 = SamplerState.create(CB, index, seed=8, stream="b")
        pairs = pair_stream(s1, s2, 100_000)
        combos = labels[pairs[:, 0]] * 2 + labels[pairs[:, 1]]
        freq = np.bincount(combos, minlength=4) / pairs.shape[0]
        assert np.all(np.abs(freq - 0.25) <= 0.01)

    def test_rejects_shared_generator(self, lt_dataset):
        index = lt_dataset.class_index()
        s1 = SamplerState.create(CB, index, seed=4, stream="a")
        s2 = SamplerState(kind=CB, index=index, rng=s1.rng)
        with pytest.raises(ValueError, match="independent"):
            pair_stream(s1, s2, 4)

    def test_rejects_identically_seeded_clone(self, lt_dataset):
        index = lt_dataset.class_index()
        s1 = SamplerState.create(CB, index, seed=4, stream="a")
        s2 = SamplerState.create(CB, index, seed=4, stream="a")
        with pytest.raises(ValueError, match="independent"):
            pair_stream(s1, s2, 4)

    def test_mixed_kind_marginals(self, lt_counts, lt_dataset):
        index = lt_dataset.class_index()
        s1 = SamplerState.create(IB, index, seed=12, stream="a")
        s2 = SamplerState.create(CB, index, seed=12, stream="b")
        pairs = pair_stream(s1, s2, 200_000)
        first = np.bincount(lt_dataset.labels[pairs[:, 0]], minlength=10) / pairs.shape[0]
        second = np.bincount(lt_dataset.labels[pairs[:, 1]], minlength=10) / pairs.shape[0]
        ib_expected = np.array(list(lt_counts)) / lt_counts.total
        assert np.all(np.abs(first - ib_expected) <= 0.005)
        assert np.all(np.abs(second - 0.1) <= 0.005)

    def test_class_id_correlation(self, lt_dataset):
        index = lt_dataset.class_index()
        s1 = SamplerState.create(CB, index, seed=60, stream="a")
        s2 = SamplerState.create(CB, index, seed=60, stream="b")
        pairs = pair_stream(s1, s2, 1_000_000)
        c1 = lt_dataset.labels[pairs[:, 0]].astype(np.float64)
        c2 = lt_dataset.labels[pairs[:, 1]].astype(np.float64)
        corr = np.corrcoef(c1, c2)[0, 1]
        assert abs(corr) <= 0.01


class TestSamplerKind:
    def test_parse_aliases(self):
        assert SamplerKind.parse("ib") is IB
        assert SamplerKind.parse("class_balanced") is CB
        with pytest.raises(ValueError):
            SamplerKind.parse("nope")
