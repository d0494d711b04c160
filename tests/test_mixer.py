import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from lobmix import (
    CB,
    IB,
    LabeledDataset,
    blend,
    draw_pairs,
    empirical_occurrence,
    pair_weights,
    sample_batch,
    sample_lambda,
)
from lobmix.longtail import BLOCK_BYTES, row_blocks
from lobmix.mixer import LAMBDA_MAX, LAMBDA_MIN
from lobmix.seeds import make_rng

from conftest import mix_pair, mix_pair_rows, traced_peak


def stabilized(x: float) -> float:
    """Nearest complement-stable value: 1-(1-x) round-trips bitwise."""
    return 1.0 - (1.0 - x)


class TestSampleLambda:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            sample_lambda(0.0, make_rng(0, "test"))
        with pytest.raises(ValueError):
            sample_lambda(-1.0, make_rng(0, "test"))
        with pytest.raises(ValueError, match="alpha must be positive and finite, got inf"):
            sample_lambda(float("inf"), make_rng(0, "test"), size=3)

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
    @example((0.5, 0, 0, [5e-324], [5e-324]))
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
        # rounding is relative to the operands, except that each of the two
        # products may lose half a subnormal step to underflow (0.5 * 5e-324 == 0)
        slack = 4 * np.finfo(np.float64).eps * np.maximum(np.abs(lo), np.abs(hi))
        slack += np.finfo(np.float64).smallest_subnormal
        assert np.all(out.features >= lo - slack)
        assert np.all(out.features <= hi + slack)

        # exchanging operands with the complementary ratio is bitwise exact
        swapped = mix_pair(x_j, y_j, x_i, y_i, 1.0 - lam, 6)
        assert np.array_equal(out.features, swapped.features)
        assert np.array_equal(out.label.weights, swapped.label.weights)


def mixed_rows(ds, size, alpha, kinds, rng):
    """``(i, j, c_i, c_j, lam)`` and the blended features of ``size`` drawn rows."""
    i, j, lam = draw_pairs(kinds, ds.class_index(), alpha, rng, size)
    return i, j, ds.labels[i], ds.labels[j], lam, blend(ds.features, i, j, lam)


class TestBatchMakers:
    def _dataset(self, counts):
        counts = list(counts)
        rng = np.random.default_rng(3)
        labels = np.repeat(np.arange(len(counts)), counts)
        return LabeledDataset(rng.normal(size=(labels.size, 3)), labels, len(counts))

    def test_deterministic(self):
        ds = self._dataset([40, 20, 10])
        for kinds in ((IB, IB), (CB, CB)):
            one = mixed_rows(ds, 64, 0.5, kinds, make_rng(99, "test"))
            two = mixed_rows(ds, 64, 0.5, kinds, make_rng(99, "test"))
            for a, b in zip(one, two):
                assert np.array_equal(a, b)

    def test_single_example_batch(self):
        ds = self._dataset([5, 5])
        i, j, lam = draw_pairs((IB, IB), ds.class_index(), 1.0, make_rng(7, "test"), 1)
        assert i.shape == j.shape == lam.shape == (1,)
        assert 0.0 < lam[0] < 1.0
        assert blend(ds.features, i, j, lam).shape == (1, 3)

    @pytest.mark.parametrize("kind", [IB, CB], ids=["instance_balanced", "class_balanced"])
    def test_one_kind_is_unmixed(self, kind):
        index = self._dataset([30, 12, 5]).class_index()
        rng, ref = make_rng(41, "test"), make_rng(41, "test")
        i, j, lam = draw_pairs((kind,), index, 0.7, rng, 200)
        want = sample_batch(kind, index, ref, 200)
        assert j is i and lam.dtype == np.float64 and lam.shape == (200,) and np.all(lam == 1.0)
        assert i.dtype == want.dtype and np.array_equal(i, want)
        assert np.array_equal(rng.random(8), ref.random(8))  # nothing else was drawn

    @pytest.mark.parametrize("kind", [IB, CB])
    def test_unmixed_draw_blends_and_tallies(self, kind):
        # an unmixed draw is rows like any other: blend gives the gathered rows, the tally the drawn class shares
        ds = self._dataset([30, 12, 5])
        i, j, lam = draw_pairs((kind,), ds.class_index(), 1.0, make_rng(43, "test"), 500)
        assert blend(ds.features, i, j, lam).tobytes() == ds.features[i].tobytes()
        report = empirical_occurrence(ds.labels[i], ds.labels[j], lam, 3)
        assert report.ratios.tolist() == (np.bincount(ds.labels[i], minlength=3) / 500).tolist()
        assert report.sample_count == 500

    def test_metadata_regenerates_batch(self):
        ds = self._dataset([30, 12])
        batch = mixed_rows(ds, 32, 0.7, (IB, CB), make_rng(1234, "batch", 5))
        again = mixed_rows(ds, 32, 0.7, (IB, CB), make_rng(1234, "batch", 5))
        for a, b in zip(batch, again):
            assert np.array_equal(a, b)
        other = mixed_rows(ds, 32, 0.7, (IB, CB), make_rng(1234, "batch", 6))
        assert not np.array_equal(batch[4], other[4])
        assert not np.array_equal(np.stack(batch[:4]), np.stack(other[:4]))

    def test_features_are_convex_blends(self):
        ds = self._dataset([20, 20])
        i, j, _, _, lam, features = mixed_rows(ds, 256, 1.0, (CB, CB), make_rng(5, "test"))
        expect = lam[:, None] * ds.features[i] + (1.0 - lam)[:, None] * ds.features[j]
        assert np.array_equal(features, expect)

    def test_labels_on_simplex(self):
        ds = self._dataset([20, 20, 20])
        _, _, c_i, c_j, lam, _ = mixed_rows(ds, 512, 0.2, (IB, IB), make_rng(6, "test"))
        assert min(c_i.min(), c_j.min()) >= 0 and max(c_i.max(), c_j.max()) < 3
        w_i, w_j = pair_weights(c_i, c_j, lam)
        assert np.all(w_i > 0.0) and np.all(w_j >= 0.0)
        assert np.array_equal(w_i + w_j, np.ones(512))

    def test_single_class_labels(self):
        ds = LabeledDataset(np.zeros((8, 2)), np.zeros(8, dtype=np.int64), 1)
        _, _, c_i, c_j, lam, _ = mixed_rows(ds, 16, 1.0, (CB, CB), make_rng(3, "test"))
        assert np.array_equal(np.stack([c_i, c_j]), np.zeros((2, 16), dtype=np.int64))
        w_i, w_j = pair_weights(c_i, c_j, lam)
        assert np.array_equal(w_i, np.ones(16)) and np.array_equal(w_j, np.zeros(16))

    def test_vanilla_on_balanced_data_is_uniform(self):
        ds = self._dataset([300, 300, 300])
        _, _, c_i, c_j, lam, _ = mixed_rows(ds, 60_000, 1.0, (IB, IB), make_rng(8, "test"))
        report = empirical_occurrence(c_i, c_j, lam, 3)
        assert np.all(np.abs(report.ratios - 1.0 / 3.0) <= 0.006)

    def test_lob_mass_uniform_on_longtail(self, lt_counts, lt_dataset):
        _, _, c_i, c_j, lam, _ = mixed_rows(lt_dataset, 100_000, 1.0, (CB, CB), make_rng(13, "test"))
        report = empirical_occurrence(c_i, c_j, lam, 10)
        assert np.all(np.abs(report.ratios - 0.1) <= 0.005)


class TestColumnOfOnes:
    """A dataset's rows end in 1.0, the bias's input: blending them must keep it exactly 1.0."""

    @staticmethod
    def _rows(n=64, dim=3, seed=0):
        labels = np.arange(n) % 2
        return LabeledDataset(np.random.default_rng(seed).normal(scale=10.0, size=(n, dim)), labels, 2).rows

    @pytest.mark.parametrize("value", [LAMBDA_MIN, LAMBDA_MAX, 0.5])
    def test_kept_at_clamp_bounds_and_half(self, value):
        rows = self._rows()
        i, j = np.arange(64), np.arange(64)[::-1].copy()
        mixed = blend(rows, i, j, np.full(64, value))
        assert mixed[:, -1].tobytes() == np.ones(64).tobytes()

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 4.0])
    def test_kept_for_sampled_ratios(self, alpha):
        # complement-stable λ: λ + (1 - λ) rounds to exactly 1 for every draw
        n = 10_000
        lam = sample_lambda(alpha, make_rng(17, "test"), size=n)
        rows = self._rows(n=n, seed=1)
        rng = np.random.default_rng(2)
        i, j = rng.integers(0, n, size=(2, n))
        out = (np.empty_like(rows), np.empty((row_blocks(rows)[0].stop, rows.shape[1])))
        for mixed in (blend(rows, i, j, lam), blend(rows, i, j, lam, out=out)):
            assert mixed[:, -1].tobytes() == np.ones(n).tobytes()


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
        i, j, c_i, c_j, lam, features = mixed_rows(ds, 24, alpha, kinds, make_rng(seed, "test"))
        w_i, w_j = pair_weights(c_i, c_j, lam)
        for r, ref in enumerate(mix_pair_rows(ds, i, j, lam)):
            ci, cj = c_i[r], c_j[r]
            assert ref.src == (i[r], j[r], ci, cj) and ref.lam == lam[r]
            assert np.array_equal(features[r], ref.features)
            assert ref.label.weights[ci] == w_i[r]
            if ci == cj:
                assert w_i[r] == 1.0 and w_j[r] == 0.0
            else:
                assert ref.label.weights[cj] == w_j[r]
            assert np.count_nonzero(ref.label.weights) == (1 if ci == cj else 2)


class TestBlend:
    @given(
        rows=st.integers(1, 6),
        dim=st.integers(0, 5),
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0.0, 1.0)), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    @example(rows=2, dim=3, picks=[(1, 1, 0.25), (1, 1, 0.25), (0, 1, 0.5)], seed=0)  # repeated rows and pairs
    def test_bitwise_equal_to_expression(self, rows, dim, picks, seed):
        features = np.random.default_rng(seed).normal(scale=10.0, size=(rows, dim))
        before = features.copy()
        i = np.array([a % rows for a, _, _ in picks])
        j = np.array([b % rows for _, b, _ in picks])
        lam = np.array([x for _, _, x in picks])
        out = blend(features, i, j, lam)
        expect = lam[:, None] * features[i] + (1 - lam)[:, None] * features[j]
        assert out.shape == expect.shape and out.dtype == expect.dtype
        assert out.tobytes() == expect.tobytes()
        bufs = (np.full_like(expect, np.nan), np.full_like(expect, np.nan))  # stale rows must not leak through
        assert blend(features, i, j, lam, out=bufs) is bufs[0]
        assert bufs[0].tobytes() == expect.tobytes()
        assert features.tobytes() == before.tobytes()

    def test_unmixed_rows_are_the_gathered_rows(self):
        # blending (i, i, 1) gives the bits of the gather that train uses for unmixed rows
        tiny, big = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
        features = np.array([[-0.0, 0.0, -tiny, tiny], [-5.0, 3.0, big, -big]])
        i = np.array([1, 0, 0, 1])
        assert blend(features, i, i, np.ones(4)).tobytes() == features[i].tobytes()

    @pytest.mark.parametrize(
        "rows, dim, blocks",
        [(128, 3072, [10] * 12 + [8]), (3, BLOCK_BYTES // 8 + 1, [1] * 3)],  # a row wider than a block: one a block
    )
    def test_uneven_row_blocks_are_the_expression(self, rows, dim, blocks):
        rng = np.random.default_rng(dim)
        features = rng.normal(scale=10.0, size=(5, dim))
        i, j = rng.integers(0, 5, size=(2, rows))
        lam = rng.uniform(size=rows)
        expect = lam[:, None] * features[i] + (1 - lam)[:, None] * features[j]
        a = np.full((rows, dim), np.nan)  # stale rows must not leak through
        assert [r.stop - r.start for r in row_blocks(a)] == blocks
        scratch = np.full((blocks[0], dim), np.nan)
        assert blend(features, i, j, lam, out=(a, scratch)) is a
        assert a.tobytes() == expect.tobytes()
        assert blend(features, i, j, lam).tobytes() == expect.tobytes()

    def test_out_allocates_no_batch(self):
        # numpy's bounds-checked take gathers into a hidden copy of out; the clipped one writes out directly.
        # The scaling by lam takes a 64 KiB ufunc buffer of its own, and the j rows go into a one-block
        # scratch, so the peak stays below a block whatever the batch size.
        rng = np.random.default_rng(0)
        for size, dim in ((128, 256), (1024, 3072)):
            features = rng.normal(size=(1000, dim))
            i, j = rng.integers(0, 1000, size=(2, size))
            lam = rng.uniform(size=size)
            a = np.empty((size, dim))
            bufs = (a, np.empty((row_blocks(a)[0].stop, dim)))
            rows, peak = traced_peak(blend, features, i, j, lam, out=bufs)
            assert rows is a and rows.tobytes() == blend(features, i, j, lam).tobytes()
            assert peak < BLOCK_BYTES
