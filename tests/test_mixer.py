import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from lobmix import (
    CB,
    IB,
    LabeledDataset,
    empirical_occurrence,
    make_batch,
    mix_pair,
    sample_lambda,
)
from lobmix.mixer import LAMBDA_MAX, LAMBDA_MIN, pair_weights, write_batch_audit
from lobmix.seeds import make_rng

from conftest import mix_pair_rows


def stabilized(x: float) -> float:
    """Nearest complement-stable value: 1-(1-x) round-trips bitwise."""
    return 1.0 - (1.0 - x)


class TestSampleLambda:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            sample_lambda(0.0, make_rng(0, "test"))
        with pytest.raises(ValueError):
            sample_lambda(-1.0, make_rng(0, "test"))

    def test_open_interval_and_stability(self):
        lam = sample_lambda(0.2, make_rng(123, "test"), size=200_000)
        assert lam.min() >= LAMBDA_MIN > 0.0
        assert lam.max() <= LAMBDA_MAX < 1.0
        assert np.all(1.0 - (1.0 - lam) == lam)

    def test_scalar_draw(self):
        lam = sample_lambda(1.0, make_rng(5, "test"))
        assert isinstance(lam, float)
        assert 0.0 < lam < 1.0

    def test_symmetry_ks(self):
        lam = sample_lambda(0.5, make_rng(77, "test"), size=100_000)
        result = stats.ks_2samp(lam, 1.0 - lam)
        assert result.pvalue > 0.001

    def test_uniform_moments_alpha_one(self):
        lam = sample_lambda(1.0, make_rng(11, "test"), size=1_000_000)
        assert abs(lam.mean() - 0.5) <= 0.002
        assert abs(lam.var() - 1.0 / 12.0) <= 0.002


class TestMixPair:
    def test_arithmetic(self):
        out = mix_pair(np.array([0.0, 0.0]), 0, np.array([2.0, 4.0]), 1, 0.5, 3)
        assert np.array_equal(out.features, np.array([1.0, 2.0]))
        assert np.array_equal(out.label.weights, np.array([0.5, 0.5, 0.0]))

    def test_near_identity_limit(self):
        x_i = np.array([1.0, -2.0, 3.0])
        x_j = np.array([100.0, 100.0, 100.0])
        lam = 1.0 - 2.0**-40
        out = mix_pair(x_i, 0, x_j, 1, lam, 2)
        assert np.allclose(out.features, x_i, atol=1e-9)
        assert out.label.weights[0] == lam
        assert np.isclose(out.label.weights[0], 1.0, atol=1e-9)

    def test_same_class_is_one_hot(self):
        out = mix_pair(np.array([1.0]), 4, np.array([2.0]), 4, 0.3, 6)
        expected = np.zeros(6)
        expected[4] = 1.0
        assert np.array_equal(out.label.weights, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mix_pair(np.zeros(3), 0, np.zeros(4), 1, 0.5, 2)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.25, 1.5])
    def test_ratio_outside_open_interval(self, lam):
        with pytest.raises(ValueError):
            mix_pair(np.zeros(2), 0, np.ones(2), 1, lam, 2)

    def test_src_recorded(self):
        out = mix_pair(np.zeros(2), 1, np.ones(2), 0, 0.25, 2, src=(17, 42))
        assert out.src == (17, 42, 1, 0)


softlabel_cases = st.tuples(
    st.floats(1e-6, 1.0 - 1e-6).map(stabilized),
    st.integers(0, 5),
    st.integers(0, 5),
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
)


class TestMixPairProperties:
    @given(softlabel_cases)
    @settings(max_examples=300, deadline=None)
    def test_simplex_hull_exchange(self, case):
        lam, y_i, y_j, a, b = case
        dim = min(len(a), len(b))
        x_i = np.asarray(a[:dim])
        x_j = np.asarray(b[:dim])
        out = mix_pair(x_i, y_i, x_j, y_j, lam, 6)

        weights = out.label.weights
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert np.count_nonzero(weights) <= 2
        if y_i != y_j:
            assert weights[y_i] == lam
            assert weights[y_j] == 1.0 - lam

        lo = np.minimum(x_i, x_j)
        hi = np.maximum(x_i, x_j)
        slack = 4 * np.finfo(np.float64).eps * np.maximum(np.abs(lo), np.abs(hi))
        assert np.all(out.features >= lo - slack)
        assert np.all(out.features <= hi + slack)

        # exchanging operands with the complementary ratio is bitwise exact
        swapped = mix_pair(x_j, y_j, x_i, y_i, 1.0 - lam, 6)
        assert np.array_equal(out.features, swapped.features)
        assert np.array_equal(out.label.weights, swapped.label.weights)


class TestBatchMakers:
    def _dataset(self, counts):
        counts = list(counts)
        rng = np.random.default_rng(3)
        labels = np.repeat(np.arange(len(counts)), counts)
        return LabeledDataset(rng.normal(size=(labels.size, 3)), labels, len(counts))

    def test_deterministic(self):
        ds = self._dataset([40, 20, 10])
        index = ds.class_index()
        for kinds in ((IB, IB), (CB, CB)):
            one = make_batch(ds, index, 64, 0.5, kinds, make_rng(99, "test"))
            two = make_batch(ds, index, 64, 0.5, kinds, make_rng(99, "test"))
            assert np.array_equal(one.features, two.features)
            assert np.array_equal(one.lams, two.lams)
            assert np.array_equal(one.src, two.src)

    def test_single_example_batch(self):
        ds = self._dataset([5, 5])
        batch = make_batch(ds, ds.class_index(), 1, 1.0, (IB, IB), make_rng(7, "test"))
        assert len(batch) == 1
        assert 0.0 < batch.lams[0] < 1.0
        i, j, ci, cj = batch.src[0]
        assert ds.labels[i] == ci and ds.labels[j] == cj

    def test_metadata_regenerates_batch(self):
        ds = self._dataset([30, 12])
        index = ds.class_index()
        batch = make_batch(ds, index, 32, 0.7, (IB, CB), make_rng(1234, "batch", 2, 5))
        again = make_batch(ds, index, 32, 0.7, (IB, CB), make_rng(1234, "batch", 2, 5))
        assert np.array_equal(batch.features, again.features)
        assert np.array_equal(batch.lams, again.lams)
        assert np.array_equal(batch.src, again.src)
        other = make_batch(ds, index, 32, 0.7, (IB, CB), make_rng(1234, "batch", 2, 6))
        assert not np.array_equal(batch.lams, other.lams)
        assert not np.array_equal(batch.src, other.src)

    def test_features_are_convex_blends(self):
        ds = self._dataset([20, 20])
        batch = make_batch(ds, ds.class_index(), 256, 1.0, (CB, CB), make_rng(5, "test"))
        i, j = batch.src[:, 0], batch.src[:, 1]
        expect = batch.lams[:, None] * ds.features[i] + (1.0 - batch.lams)[:, None] * ds.features[j]
        assert np.array_equal(batch.features, expect)

    def test_labels_on_simplex(self):
        ds = self._dataset([20, 20, 20])
        batch = make_batch(ds, ds.class_index(), 512, 0.2, (IB, IB), make_rng(6, "test"))
        classes = batch.src[:, 2:4]
        assert classes.min() >= 0 and classes.max() < 3
        w_i, w_j = pair_weights(batch.src[:, 2], batch.src[:, 3], batch.lams)
        assert np.all(w_i > 0.0) and np.all(w_j >= 0.0)
        assert np.array_equal(w_i + w_j, np.ones(len(batch)))

    def test_single_class_labels(self):
        ds = LabeledDataset(np.zeros((8, 2)), np.zeros(8, dtype=np.int64), 1)
        batch = make_batch(ds, ds.class_index(), 16, 1.0, (CB, CB), make_rng(3, "test"))
        assert np.array_equal(batch.src[:, 2:4], np.zeros((16, 2), dtype=np.int64))
        w_i, w_j = pair_weights(batch.src[:, 2], batch.src[:, 3], batch.lams)
        assert np.array_equal(w_i, np.ones(16)) and np.array_equal(w_j, np.zeros(16))

    def test_vanilla_on_balanced_data_is_uniform(self):
        ds = self._dataset([300, 300, 300])
        batch = make_batch(ds, ds.class_index(), 60_000, 1.0, (IB, IB), make_rng(8, "test"))
        report = empirical_occurrence([batch], 3)
        assert np.all(np.abs(report.ratios - 1.0 / 3.0) <= 0.006)

    def test_lob_mass_uniform_on_longtail(self, lt_counts, lt_dataset):
        batch = make_batch(lt_dataset, lt_dataset.class_index(), 100_000, 1.0, (CB, CB), make_rng(13, "test"))
        report = empirical_occurrence([batch], 10)
        assert np.all(np.abs(report.ratios - 0.1) <= 0.005)

    def test_audit_dump(self, tmp_path):
        ds = self._dataset([6, 6])
        batch = make_batch(ds, ds.class_index(), 5, 1.0, (IB, IB), make_rng(2, "test"))
        path = tmp_path / "audit.jsonl"
        write_batch_audit(path, batch)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert set(record) == {"lambda", "src_i", "src_j", "class_i", "class_j"}
        assert record["lambda"] == float(batch.lams[0])


class TestBatchMatchesMixPair:
    @given(
        counts=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        alpha=st.sampled_from([0.2, 1.0, 3.0]),
        kinds=st.sampled_from([(IB, IB), (IB, CB), (CB, CB)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_scalar_reference(self, counts, alpha, kinds, seed):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(len(counts)), counts)
        ds = LabeledDataset(rng.normal(scale=10.0, size=(labels.size, 3)), labels, len(counts))
        batch = make_batch(ds, ds.class_index(), 24, alpha, kinds, make_rng(seed, "test"))
        w_i, w_j = pair_weights(batch.src[:, 2], batch.src[:, 3], batch.lams)
        for r, ref in enumerate(mix_pair_rows(ds, batch)):
            i, j, ci, cj = batch.src[r]
            assert ref.src == (i, j, ci, cj) and ref.lam == batch.lams[r]
            assert np.array_equal(batch.features[r], ref.features)
            assert ref.label.weights[ci] == w_i[r]
            if ci == cj:
                assert w_i[r] == 1.0 and w_j[r] == 0.0
            else:
                assert ref.label.weights[cj] == w_j[r]
            assert np.count_nonzero(ref.label.weights) == (1 if ci == cj else 2)
