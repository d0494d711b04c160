import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lobmix import (
    CB,
    IB,
    STRATEGIES,
    ClassIndex,
    ImbalanceProfile,
    LabeledDataset,
    TrainConfig,
    analytic_occurrence,
    blend,
    draw_pairs,
    empirical_occurrence,
    evaluate,
    loss_and_grad,
    make_rng,
    standardize,
    synth_gaussian_mixture,
    train,
)
from lobmix.longtail import BLOCK_BYTES
from lobmix.mixer import LAMBDA_MAX, LAMBDA_MIN, pair_weights
from lobmix.trainer import (
    FIELD_KINDS,
    GROUP_NAMES,
    TrainingDiverged,
    _forward,
    _grad_step,
    _softmax,
    _step_buffers,
    _target_plan,
    default_groups,
    init_params,
    write_history_csv,
)

from conftest import (
    dense_targets, expected_kinds, reference_train, soft_cross_entropy, split_datasets, traced_peak, with_ones,
)

EPS = np.finfo(np.float64).eps


def random_dataset(rng, dim, num_classes):
    counts = [max(2, int(c)) for c in rng.integers(2, 8, size=num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)
    return LabeledDataset(rng.normal(size=(labels.size, dim)), labels, num_classes)


def mixed_batch(ds, batch_size, kinds, rng):
    """``(x, c_i, c_j, lam)`` of drawn mixed rows, the arguments of ``loss_and_grad`` after ``W``."""
    i, j, lam = draw_pairs(kinds, ds.class_index(), 1.0, make_rng(int(rng.integers(1 << 31)), "test"), batch_size)
    return blend(ds.features, i, j, lam), ds.labels[i], ds.labels[j], lam


def random_mixed_batch(rng, dim, num_classes, batch_size, kinds=(IB, IB)):
    return mixed_batch(random_dataset(rng, dim, num_classes), batch_size, kinds, rng)


def dense_loss_and_grad(W, x, targets):
    """Reference: mean soft cross entropy and its gradient, shaped like ``W``, from (B, C) target rows.

    The probabilities and the logit gradient are held classes by rows, (C, B), as the step holds them, and
    the feature rows ``x`` are widened by a column of ones, whose products with the logit gradient are the
    bias gradient.
    """
    rows = with_ones(x)
    probs = _forward(W, rows)
    dlogits = probs - targets.T
    return float(soft_cross_entropy(probs.T, targets).mean()), (dlogits @ rows) / x.shape[0]


def numeric_grad(W, batch, step=1e-5):
    """Central finite differences of the mean loss in each entry of ``W``."""
    out = np.empty_like(W)
    for idx in np.ndindex(W.shape):
        plus, minus = W.copy(), W.copy()
        plus[idx] += step
        minus[idx] -= step
        out[idx] = (loss_and_grad(plus, *batch)[0] - loss_and_grad(minus, *batch)[0]) / (2.0 * step)
    return out


class TestInitParams:
    def test_layout(self):
        # the model is one (classes, dim + 1) array: the "init" stream's (dim, classes) draw transposed, then a zero bias
        W = init_params(6, 4, seed=0)
        assert W.shape == (4, 7) and W.dtype == np.float64 and W.flags.c_contiguous
        draw = make_rng(0, "init").standard_normal((6, 4)) / np.sqrt(6)
        assert np.ascontiguousarray(W[:, :-1]).tobytes() == np.ascontiguousarray(draw.T).tobytes()
        assert W[:, -1].tobytes() == np.zeros(4).tobytes()


class TestForward:
    def test_zero_params_uniform(self):
        W = init_params(4, 5, seed=0)
        W[:, :-1] = 0.0
        probs = _forward(W, with_ones([[1.0, -2.0, 3.0, 0.5]])).T
        assert probs.shape == (1, 5) and np.allclose(probs, 0.2, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        W = init_params(3, 4, seed=1)
        probs = _forward(W, with_ones(np.random.default_rng(0).normal(size=(32, 3)))).T
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_dominant_logit(self):
        W = init_params(2, 3, seed=0)
        W[:] = 0.0
        W[:, -1] = [50.0, 0.0, 0.0]
        probs = _forward(W, with_ones(np.zeros((1, 2)))).T
        assert probs[0, 0] > 1.0 - 1e-12

    def test_shift_invariance(self):
        W = init_params(2, 3, seed=3)
        shifted = W.copy()
        shifted[:, -1] += 7.5
        x = with_ones([[0.3, -1.2]])
        assert np.allclose(_forward(W, x).T, _forward(shifted, x).T, rtol=0, atol=1e-12)


def colmax_softmax(logits):
    """Softmax of each (C, B) logits column in place, less ``logits.max(axis=0)``: the bits ``_softmax`` must give."""
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


SPECIAL_LOGITS = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)


class TestSoftmax:
    @given(
        rows=st.integers(1, 5),
        classes=st.sampled_from((1, 2, 10, 1000)),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        zero_max=st.sampled_from((None, (0.0, -0.0), (-0.0, 0.0))),
        marks=st.lists(st.tuples(st.integers(0, 5 * 1000 - 1), st.sampled_from(SPECIAL_LOGITS)), max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    @example(rows=1, classes=2, seed=0, ties=False, zero_max=(-0.0, 0.0), marks=[])
    @example(rows=1, classes=2, seed=0, ties=False, zero_max=(0.0, -0.0), marks=[])
    @example(rows=2, classes=10, seed=0, ties=False, zero_max=None, marks=[(0, np.inf), (3, np.inf), (12, np.nan)])
    @example(rows=1, classes=2, seed=0, ties=False, zero_max=None, marks=[(0, -np.inf), (1, -np.inf)])
    def test_bitwise_the_row_max_expression(self, rows, classes, seed, ties, zero_max, marks):
        z = np.random.default_rng(seed).normal(scale=30.0, size=(rows, classes))
        if ties:
            z = np.floor(z / 10.0)  # a few distinct values per row, so tied maxima
        if zero_max is not None:  # the first row's maximum is 0, held as +0.0 and as -0.0
            z[0] = -1.0 - np.abs(z[0])
            z[0, 0], z[0, -1] = zero_max
        flat = z.reshape(-1)
        for at, value in marks:
            flat[at % flat.size] = value
        z = np.ascontiguousarray(z.T)  # a row's logits are a column of the step's (C, B) logits
        with np.errstate(all="ignore"):
            got = _softmax(z.copy())
            expect = colmax_softmax(z.copy())
        assert got.tobytes() == expect.tobytes()

    def test_forward_into_buffers_is_the_expression(self):
        rng = np.random.default_rng(71)
        W = init_params(6, 10, seed=3)
        x = with_ones(rng.normal(scale=3.0, size=(20, 6)))
        expect = colmax_softmax(W @ x.T)
        out = np.empty((10, 20))
        probs = _forward(W, x, out)
        assert probs is out and probs.tobytes() == expect.tobytes()
        assert _forward(W, x).tobytes() == expect.tobytes()
        # the column of ones carries the bias: the logits of the features plus the bias, to rounding
        assert np.allclose(probs, colmax_softmax(W[:, :-1] @ x[:, :-1].T + W[:, -1:]), rtol=0, atol=1e-14)

    def test_train_and_evaluate_unchanged(self, monkeypatch):
        import lobmix.trainer

        train_ds, test_ds, _ = quick_split(seed=19)
        groups = default_groups(train_ds.class_index().counts)
        cfg = TrainConfig(
            epochs=3, batches_per_epoch=5, batch_size=16, lr=0.3, strategy="lob", seed=29
        )
        W, history = train(train_ds, test_ds, cfg)
        report = evaluate(W, test_ds, groups)
        monkeypatch.setattr(lobmix.trainer, "_softmax", colmax_softmax)
        ref_W, ref_history = train(train_ds, test_ds, cfg)
        assert history == ref_history
        assert evaluate(W, test_ds, groups) == report == ref_history[-1].report
        assert np.array_equal(W, ref_W)


class TestSoftCrossEntropy:
    def test_self_entropy(self):
        target = np.array([0.5, 0.25, 0.25])
        expected = -(target * np.log(target)).sum()
        assert soft_cross_entropy(target, target) == pytest.approx(expected, rel=1e-12)

    def test_one_hot_agreement_is_zero(self):
        one_hot = np.array([0.0, 1.0, 0.0])
        assert soft_cross_entropy(one_hot, one_hot) == 0.0

    def test_uniform_probs_one_hot_target(self):
        probs = np.full(7, 1.0 / 7.0)
        target = np.zeros(7)
        target[3] = 1.0
        assert soft_cross_entropy(probs, target) == pytest.approx(math.log(7), rel=1e-12)

    def test_linearity_in_target(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4))
        lam = 0.37
        t_i = np.array([1.0, 0, 0, 0])
        t_j = np.array([0, 0, 1.0, 0])
        mixed = lam * t_i + (1 - lam) * t_j
        split = lam * soft_cross_entropy(probs, t_i) + (1 - lam) * soft_cross_entropy(probs, t_j)
        assert soft_cross_entropy(probs, mixed) == pytest.approx(split, rel=1e-12)

    def test_positive_unless_one_hot_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(5))
            target = rng.dirichlet(np.ones(5))
            # interior probabilities can never realize the zero-loss case
            assert soft_cross_entropy(probs, target) > 0.0

    def test_batch_shape(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=6)
        target = rng.dirichlet(np.ones(3), size=6)
        losses = soft_cross_entropy(probs, target)
        assert losses.shape == (6,)


class TestGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            batch = random_mixed_batch(rng, dim=4, num_classes=3, batch_size=6)
            W = init_params(4, 3, seed=int(rng.integers(1 << 31)))
            analytic = loss_and_grad(W, *batch)[1]
            numeric = numeric_grad(W, batch)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-4

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(7)
        batch = random_mixed_batch(rng, dim=3, num_classes=4, batch_size=8)
        doubled = [np.concatenate([column, column]) for column in batch]
        W = init_params(3, 4, seed=11)
        assert np.allclose(loss_and_grad(W, *batch)[1], loss_and_grad(W, *doubled)[1], rtol=1e-12, atol=1e-15)

    def test_gradient_small_after_convergence(self):
        base = synth_gaussian_mixture((200, 200), 3, 10.0, seed=4)
        train_ds, test_ds, _ = split_datasets(base, (150, 150), 50, seed=4)
        standardize(train_ds, test_ds)
        cfg = TrainConfig(
            epochs=120, batches_per_epoch=10, batch_size=64, lr=1.0,
            lr_decay_epochs=(), strategy="erm", seed=0,
        )
        W, _ = train(train_ds, test_ds, cfg)
        _, grad = loss_and_grad(W, train_ds.features, train_ds.labels, train_ds.labels, 1.0)
        assert np.linalg.norm(grad) <= 1e-3


class TestTwoHotLoss:
    @pytest.mark.parametrize("kinds", [(IB, IB), (CB, CB)])
    def test_equals_dense_soft_cross_entropy(self, kinds):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            ds = random_dataset(rng, dim=5, num_classes=4)
            seed = int(rng.integers(1 << 31))
            i, j, lam = draw_pairs(kinds, ds.class_index(), 1.0, make_rng(seed, "test"), 64)
            x = blend(ds.features, i, j, lam)
            W = init_params(5, 4, seed=int(rng.integers(1 << 31)))
            targets = dense_targets(ds, i, j, lam)
            loss, grad = loss_and_grad(W, x, ds.labels[i], ds.labels[j], lam)
            ref_loss, ref_grad = dense_loss_and_grad(W, x, targets)
            assert np.array_equal(loss, ref_loss)
            assert np.array_equal(loss, soft_cross_entropy(_forward(W, with_ones(x)).T, targets).mean())
            assert grad.shape == W.shape and np.array_equal(grad, ref_grad)

    def test_unmixed_rows_equal_one_hot(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, dim=3, num_classes=5)
        W = init_params(3, 5, seed=4)
        one_hot = np.eye(5)[ds.labels]
        loss, grad = loss_and_grad(W, ds.features, ds.labels, ds.labels, 1.0)
        ref_loss, ref_grad = dense_loss_and_grad(W, ds.features, one_hot)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


def labeled(features):
    """The rows ``features`` as a 3-class dataset, classes in turn."""
    return LabeledDataset(features, np.arange(len(features)) % 3, 3)


class TestStandardize:
    def test_in_place_and_bitwise_the_expression(self):
        raw = np.random.default_rng(41).normal(loc=3.0, scale=2.0, size=(50, 4))
        raw[:, 2] = 7.25  # no spread: the column is divided by 1
        train_ds, test_ds = labeled(raw.copy()), labeled(raw[:9].copy())
        rows = train_ds.rows
        mean, std = raw.mean(axis=0), raw.std(axis=0)
        assert std[2] == 0.0
        standardize(train_ds, test_ds)
        assert train_ds.rows is rows
        assert train_ds.features.tobytes() == ((raw - mean) / np.where(std == 0, 1.0, std)).tobytes()
        assert np.array_equal(train_ds.features[:, 2], np.zeros(50))

    @pytest.mark.parametrize("dim", [2, 10, 3072])
    def test_column_of_ones_kept_and_features_bitwise_a_contiguous_copy(self, dim):
        # rows of 3072 floats: 10 a row block, so 37 rows end in a partial block
        rng = np.random.default_rng(dim)
        raw = rng.normal(loc=2.0, scale=3.0, size=(37 if dim == 3072 else 3 * BLOCK_BYTES // (8 * dim) + 7, dim))
        raw[:, 1] = 4.5  # no spread
        train_ds, test_ds = labeled(raw), labeled(raw[:9] * 2.0)
        want = [np.ascontiguousarray(ds.features) for ds in (train_ds, test_ds)]  # (N, D) copies, standardized below
        mean, std = want[0].mean(axis=0), want[0].std(axis=0)
        standardize(train_ds, test_ds)
        for ds, copy in zip((train_ds, test_ds), want):
            assert ds.rows[:, -1].tobytes() == np.ones(len(ds)).tobytes()
            assert ds.features.tobytes() == ((copy - mean) / np.where(std == 0, 1.0, std)).tobytes()

    def test_test_set_uses_the_train_moments(self):
        rng = np.random.default_rng(43)
        train_raw, test_raw = rng.normal(size=(40, 3)), rng.normal(loc=5.0, scale=3.0, size=(12, 3))
        train_ds, test_ds = labeled(train_raw.copy()), labeled(test_raw.copy())
        standardize(train_ds, test_ds)
        want = (test_raw - train_raw.mean(axis=0)) / train_raw.std(axis=0)
        assert test_ds.features.tobytes() == want.tobytes()
        assert np.all(test_ds.features.mean(axis=0) > 1.0)  # not the test set's own moments

    def test_overflow_rejected_without_warning(self):
        raw = np.full((4, 2), 1e308)  # finite rows whose column sums overflow
        train_ds, test_ds = labeled(raw.copy()), labeled(raw[:3].copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large to standardize: their mean or spread overflows"):
                standardize(train_ds, test_ds)
        assert np.array_equal(train_ds.features, raw) and np.array_equal(test_ds.features, raw[:3])

    def test_test_overflow_rejected_without_warning(self):
        # the train moments are finite, but a test row lies beyond the float range once shifted
        train_ds = labeled(np.array([[-8e307, 0.0], [-8e307, 1.0]]))
        test_ds = labeled(np.array([[1.7e308, 0.0], [0.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="test features overflow when scaled by the train split's mean"):
                standardize(train_ds, test_ds)

    # standardize reads rows in blocks of BLOCK_BYTES: these inputs end in a partial block
    DIM = 4
    BLOCK = BLOCK_BYTES // (8 * DIM)

    def test_blocks_bitwise_the_expression(self):
        raw = np.random.default_rng(53).normal(size=(3 * self.BLOCK + 7, self.DIM))
        raw[:, 1] = -2.5  # no spread
        raw[:, 2] += 1e9  # a large offset: the squared deviations carry the bits of the subtraction
        train_ds, test_ds = labeled(raw.copy()), labeled(raw[::-1].copy())
        standardize(train_ds, test_ds)
        std = raw.std(axis=0)
        assert std[1] == 0.0
        for ds, rows in ((train_ds, raw), (test_ds, raw[::-1])):
            assert ds.features.tobytes() == ((rows - raw.mean(axis=0)) / np.where(std == 0, 1.0, std)).tobytes()

    # 1e155 in the last row overflows only its own squared deviation; 1e308
    # in each row of the last block overflows the mean
    @pytest.mark.parametrize(("rows", "value"), [(slice(-1, None), 1e155), (slice(-7, None), 1e308)])
    def test_overflow_in_last_block_rejected(self, rows, value):
        raw = np.random.default_rng(59).normal(size=(3 * self.BLOCK + 7, self.DIM))
        raw[rows, 3] = value
        train_ds, test_ds = labeled(raw.copy()), labeled(raw[:5].copy())
        with pytest.raises(ValueError, match="too large to standardize: their mean or spread overflows"):
            standardize(train_ds, test_ds)
        assert np.array_equal(train_ds.features, raw) and np.array_equal(test_ds.features, raw[:5])

    def test_test_overflow_in_last_block_rejected(self):
        train_ds = labeled(np.array([[-8e307, 0.0], [-8e307, 1.0]]))
        test = np.zeros((3 * (BLOCK_BYTES // 16) + 7, 2))
        test[-1, 0] = 1.7e308  # beyond the float range once shifted by the train mean
        with pytest.raises(ValueError, match="test features overflow when scaled by the train split's mean"):
            standardize(train_ds, labeled(test))

    def test_memory(self):
        """No full-size temporary: the traced peak stays below a tenth of the train rows' bytes."""
        dim = 256
        rng = np.random.default_rng(61)
        train_ds = labeled(rng.normal(size=(20 * BLOCK_BYTES // (8 * dim) + 7, dim)))
        test_ds = labeled(rng.normal(size=(500, dim)))
        _, peak = traced_peak(standardize, train_ds, test_ds)
        assert peak < train_ds.features.nbytes / 10

    def test_shared_rows_rejected(self):
        raw = np.random.default_rng(47).normal(size=(12, 3))
        ds = labeled(raw.copy())
        for test_ds in (ds, LabeledDataset.from_rows(ds.rows[:6], ds.labels[:6], 3)):
            with pytest.raises(ValueError, match="train and test features must be separate arrays"):
                standardize(ds, test_ds)
        assert np.array_equal(ds.features, raw)

    @given(
        raw=arrays(np.float64, (5, 3), elements=st.floats(-1e6, 1e6)),
        rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_blending_standardized_rows_is_standardizing_the_blend(self, raw, rows):
        # standardization is affine and lam + (1 - lam) is exactly 1, so the two
        # orders agree up to rounding: a few ulp of the operands' magnitude
        i, j = (np.array(col, dtype=np.int64) for col in list(zip(*rows))[:2])
        lam = np.clip([1.0 - (1.0 - r[2]) for r in rows], LAMBDA_MIN, LAMBDA_MAX)
        train_ds, blended = labeled(raw.copy()), labeled(blend(raw, i, j, lam))
        mean, spread = raw.mean(axis=0), raw.std(axis=0)
        spread[spread == 0] = 1.0
        standardize(train_ds, blended)
        got = blend(train_ds.features, i, j, lam)
        magnitude = (np.abs(raw[i]) + np.abs(raw[j]) + np.abs(mean)) / spread
        tiny = np.finfo(np.float64).smallest_subnormal
        assert np.all(np.abs(got - blended.features) <= 8 * EPS * magnitude + 4 * tiny * (1.0 + 1.0 / spread))


def quick_split(seed=0, separation=4.0, counts=(120, 60, 30)):
    """(train, test, manifest) of a small Gaussian mixture, with both feature sets standardized."""
    base = synth_gaussian_mixture((200,) * len(counts), 4, separation, seed)
    train_ds, test_ds, manifest = split_datasets(base, counts, 40, seed)
    standardize(train_ds, test_ds)
    return train_ds, test_ds, manifest


class TestTrain:
    def test_zero_lr_keeps_params(self):
        train_ds, test_ds, _ = quick_split()
        cfg = TrainConfig(epochs=4, batches_per_epoch=5, batch_size=16, lr=0.0, seed=3)
        W, history = train(train_ds, test_ds, cfg)
        assert np.array_equal(W, init_params(train_ds.dim, train_ds.num_classes, seed=cfg.seed))
        accs = [row.report.balanced_accuracy for row in history]
        assert len(set(accs)) == 1

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_one_generator_per_epoch(self, monkeypatch, strategy):
        import lobmix.trainer

        addresses = []

        def recording(*address):
            addresses.append(address)
            return make_rng(*address)

        monkeypatch.setattr(lobmix.trainer, "make_rng", recording)
        train_ds, test_ds, _ = quick_split()
        cfg = TrainConfig(
            epochs=2, batches_per_epoch=3, batch_size=8, lr=0.1, lr_decay_epochs=(1,), strategy=strategy, seed=5
        )
        train(train_ds, test_ds, cfg)
        assert addresses == [(5, "init")] + [(5, "epoch", e) for e in range(2)]

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_batches_are_slices_of_the_epoch_draw(self, monkeypatch, strategy):
        import lobmix.trainer

        seen = []
        kernel = lobmix.trainer._grad_step

        def recording(W, x, pos, weights, taken, logits, grad):
            seen.append((x.copy(), pos.copy(), weights.copy()))
            kernel(W, x, pos, weights, taken, logits, grad)

        monkeypatch.setattr(lobmix.trainer, "_grad_step", recording)
        train_ds, test_ds, _ = quick_split()
        epochs, bpe, size, switch = 3, 4, 8, 2
        cfg = TrainConfig(
            epochs=epochs, batches_per_epoch=bpe, batch_size=size, lr=0.1, lr_decay_epochs=(switch,),
            alpha=0.7, strategy=strategy, seed=9,
        )
        train(train_ds, test_ds, cfg)
        assert len(seen) == epochs * bpe
        index, features, labels = train_ds.class_index(), train_ds.rows, train_ds.labels
        offsets = np.arange(size)
        for e in range(epochs):
            kinds = expected_kinds(strategy, e, switch)
            i, j, lam = draw_pairs(kinds, index, 0.7, make_rng(9, "epoch", e), bpe * size)
            for b in range(bpe):
                x, pos, weights = seen[e * bpe + b]
                rows = slice(b * size, (b + 1) * size)
                c_i, c_j = labels[i[rows]], labels[j[rows]]
                assert np.array_equal(pos, np.concatenate([c_i * size + offsets, c_j * size + offsets]))
                if len(kinds) == 1:
                    assert np.array_equal(x, features[i[rows]])
                    assert np.array_equal(weights, np.concatenate([np.ones(size), np.zeros(size)]))
                else:
                    assert np.array_equal(x, blend(features, i[rows], j[rows], lam[rows]))
                    assert np.array_equal(weights, np.concatenate(pair_weights(c_i, c_j, lam[rows])))

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_bitwise_equal_to_the_per_batch_reference(self, strategy):
        train_ds, test_ds, _ = quick_split(seed=17)
        cfg = TrainConfig(
            epochs=4, batches_per_epoch=5, batch_size=16, lr=0.3, lr_decay_epochs=(2,), alpha=0.5,
            strategy=strategy, seed=23,
        )
        W, history = train(train_ds, test_ds, cfg)
        ref_W, ref_history = reference_train(train_ds, test_ds, cfg)
        assert history == ref_history
        assert np.array_equal(W, ref_W)

    @pytest.mark.parametrize("size, dim, classes", [(128, 256, 10), (128, 3072, 10)])
    def test_step_allocates_no_batch(self, size, dim, classes):
        # what remains is the softmax's two (batch_size,) reductions; the
        # rows' column of ones carries the bias, so no bias column is broadcast
        rng = np.random.default_rng(67)
        W = init_params(dim, classes, seed=1)
        x = with_ones(rng.normal(size=(size, dim)))
        c_i, c_j = rng.integers(0, classes, size=(2, size))
        lam = rng.uniform(size=size)
        pos, weights = _target_plan(c_i, c_j, lam, size)
        taken, (logits, grad) = np.empty(pos.shape), _step_buffers(W, size)
        _, peak = traced_peak(_grad_step, W, x, pos[0], weights[0], taken[0], logits, grad)
        assert peak < min(x.nbytes, grad.nbytes)
        assert np.array_equal(grad / size, loss_and_grad(W, x[:, :-1], c_i, c_j, lam)[1])  # the step leaves out 1/size

    @pytest.mark.parametrize("size, dim, classes", [(128, 10, 10), (128, 256, 10), (128, 3072, 10)])
    def test_update_allocates_nothing(self, size, dim, classes):
        # train's update, grad *= lr; W -= grad: the gradient is laid out like W, so
        # both passes run contiguous, with no temporary and no ufunc buffer
        rng = np.random.default_rng(73)
        W = init_params(dim, classes, seed=2)
        x = rng.normal(size=(size, dim))
        c_i, c_j = rng.integers(0, classes, size=(2, size))
        _, grad = loss_and_grad(W, x, c_i, c_j, rng.uniform(size=size))
        expect = W - grad * 0.3

        def update(W, grad, lr):
            grad *= lr
            W -= grad

        _, peak = traced_peak(update, W, grad, 0.3)
        assert peak < 1024
        assert W.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dim", [10, 3072])
    def test_one_blend_per_chunk_of_batches(self, monkeypatch, dim):
        import lobmix.trainer

        calls = []

        def counting(features, i, *args, **kwargs):
            calls.append(len(i))
            return blend(features, i, *args, **kwargs)

        monkeypatch.setattr(lobmix.trainer, "blend", counting)
        base = synth_gaussian_mixture((150,) * 3, dim, 4.0, seed=3)
        train_ds, test_ds, _ = split_datasets(base, (120, 60, 30), 20, seed=3)
        standardize(train_ds, test_ds)
        size, bpe = 128, (40 if dim == 10 else 3)
        cfg = TrainConfig(epochs=2, batches_per_epoch=bpe, batch_size=size, lr=0.1, strategy="lob", seed=31)
        W, history = train(train_ds, test_ds, cfg)
        per_chunk = max(1, BLOCK_BYTES // (size * dim * 8))
        assert per_chunk == (25 if dim == 10 else 1)
        chunks = [min(per_chunk, bpe - first) * size for first in range(0, bpe, per_chunk)]
        assert calls == chunks * cfg.epochs
        ref_W, ref_history = reference_train(train_ds, test_ds, cfg)
        assert history == ref_history
        assert np.array_equal(W, ref_W)

    def test_unmixed_phase_is_gathered_not_blended(self, monkeypatch):
        # the phase's one kind picks the gather, not draw_pairs returning one index array twice
        import lobmix.trainer

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].size)
            return blend(*args, **kwargs)

        def copying(kinds, *args):
            i, j, lam = draw_pairs(kinds, *args)
            return i, j.copy(), lam

        monkeypatch.setattr(lobmix.trainer, "blend", counting)
        monkeypatch.setattr(lobmix.trainer, "draw_pairs", copying)
        train_ds, test_ds, _ = quick_split()
        cfg = TrainConfig(epochs=2, batches_per_epoch=3, batch_size=8, lr=0.1, strategy="erm", seed=5)
        W, history = train(train_ds, test_ds, cfg)
        assert calls == []
        ref_W, ref_history = reference_train(train_ds, test_ds, cfg)
        assert history == ref_history
        assert np.array_equal(W, ref_W)

    def test_deterministic_history(self):
        train_ds, test_ds, _ = quick_split(seed=5)
        cfg = TrainConfig(epochs=3, batches_per_epoch=8, batch_size=32, lr=0.3, strategy="lob", seed=21)
        _, h1 = train(train_ds, test_ds, cfg)
        _, h2 = train(train_ds, test_ds, cfg)
        assert h1 == h2

    def test_erm_converges_on_separable_data(self):
        base = synth_gaussian_mixture((300, 300), 4, 10.0, seed=6)
        train_ds, test_ds, _ = split_datasets(base, (200, 200), 80, seed=6)
        standardize(train_ds, test_ds)
        cfg = TrainConfig(epochs=50, batches_per_epoch=10, batch_size=64, lr=0.5, strategy="erm", seed=0)
        _, history = train(train_ds, test_ds, cfg)
        assert history[-1].report.balanced_accuracy >= 0.99

    def test_divergence_aborts(self):
        # a step of the largest finite learning rate on a one-row batch overflows the weights
        train_ds, test_ds, _ = quick_split(seed=8)
        cfg = TrainConfig(
            epochs=10, batches_per_epoch=40, batch_size=1, lr=1.7976931348623157e308, seed=1
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged, match="epoch"):
            train(train_ds, test_ds, cfg)

    def test_deferred_prefix_matches_vanilla(self):
        train_ds, test_ds, _ = quick_split(seed=9)
        common = dict(epochs=6, batches_per_epoch=6, batch_size=32, lr=0.3, lr_decay_epochs=(4,), seed=13)
        _, deferred = train(train_ds, test_ds, TrainConfig(strategy="deferred", **common))
        _, vanilla = train(train_ds, test_ds, TrainConfig(strategy="mixup", **common))
        assert deferred[:4] == vanilla[:4]
        assert deferred[4:] != vanilla[4:]

    def test_strategies_all_run(self):
        train_ds, test_ds, _ = quick_split(seed=10)
        for strategy in STRATEGIES:
            cfg = TrainConfig(
                epochs=2, batches_per_epoch=4, batch_size=16, lr=0.2,
                lr_decay_epochs=(1,), strategy=strategy, seed=2,
            )
            _, history = train(train_ds, test_ds, cfg)
            assert len(history) == 2

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_evaluate_runs_once_per_epoch(self, monkeypatch, strategy):
        import lobmix.trainer

        calls = []

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(lobmix.trainer, "evaluate", counting)
        train_ds, test_ds, _ = quick_split(seed=15)
        cfg = TrainConfig(
            epochs=3, batches_per_epoch=4, batch_size=16, lr=0.2,
            lr_decay_epochs=(1,), strategy=strategy, seed=4,
        )
        W, history = train(train_ds, test_ds, cfg)
        assert len(calls) == cfg.epochs
        assert history[-1].report == evaluate(W, test_ds, default_groups(train_ds.class_index().counts))

    # deferred needs a switch epoch strictly inside the run, so it has no 1-epoch run
    @pytest.mark.parametrize(
        "strategy,epochs",
        [(s, e) for s in STRATEGIES for e in (1, 2, 3) if not (s == "deferred" and e == 1)],
    )
    def test_last_report_matches_fresh_evaluate(self, strategy, epochs):
        train_ds, test_ds, _ = quick_split(seed=16)
        cfg = TrainConfig(
            epochs=epochs, batches_per_epoch=4, batch_size=16, lr=0.2,
            lr_decay_epochs=(1,) if epochs > 1 else (), strategy=strategy, seed=5,
        )
        W, history = train(train_ds, test_ds, cfg)
        assert history[-1].report == evaluate(W, test_ds, default_groups(train_ds.class_index().counts))

    @pytest.mark.parametrize("dim,classes", [(5, 3), (4, 4)])
    def test_train_and_test_sets_must_match(self, dim, classes):
        train_ds, _, _ = quick_split()
        test_ds = LabeledDataset(np.zeros((classes, dim)), np.arange(classes), classes)
        cfg = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=0.1)
        with pytest.raises(ValueError) as excinfo:
            train(train_ds, test_ds, cfg)
        assert str(excinfo.value) == "train and test sets must share feature dim and class count"

    def test_divergence_in_last_step_aborts(self):
        # the loss is taken before each step, so only the weight check sees the last step overflow;
        # at the largest finite learning rate a weight overflows where the step's gradient exceeds 1,
        # as it does for the one row drawn at seed 0
        train_ds, test_ds, _ = quick_split(seed=8)
        cfg = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=1.7976931348623157e308, seed=0)
        with pytest.raises(TrainingDiverged, match="non-finite weights after epoch 0"):
            train(train_ds, test_ds, cfg)


class TestStrategies:
    # the README config's train section
    README = dict(epochs=40, batches_per_epoch=40, batch_size=128, lr=0.5, lr_decay_epochs=(30, 37))

    def test_table_is_the_written_out_schedule(self):
        # a strategy's first phase runs before the switch epoch (here 1), and its last from it on
        assert tuple(STRATEGIES) == ("erm", "mixup", "lob", "deferred")
        for strategy, phases in STRATEGIES.items():
            assert (phases[0], phases[-1]) == (expected_kinds(strategy, 0, 1), expected_kinds(strategy, 1, 1))

    # TrainConfig.schedule, at every epoch, against the number of decay epochs reached, written out
    @pytest.mark.parametrize(
        "decay,reached",
        [((), [0] * 6), ((3,), [0, 0, 0, 1, 1, 1]), ((2, 4), [0, 0, 1, 1, 2, 2]), ((1, 2, 5), [0, 1, 2, 2, 2, 3])],
    )
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_schedule_is_the_written_out_rate_and_phase(self, strategy, decay, reached):
        settings = dict(epochs=6, batches_per_epoch=1, batch_size=1, lr=0.8, lr_decay_epochs=decay, lr_decay_factor=0.5)
        if strategy == "deferred" and not decay:
            with pytest.raises(ValueError, match="needs a first lr decay epoch"):
                TrainConfig(strategy=strategy, **settings)
            return
        cfg = TrainConfig(strategy=strategy, **settings)
        rates = [cfg.schedule(e)[0] for e in range(6)]
        assert rates == [[0.8, 0.4, 0.2, 0.1][d] for d in reached]  # 0.8 halved: exact in binary
        kinds = [cfg.schedule(e)[1] for e in range(6)]
        assert kinds == [expected_kinds(strategy, e, decay[0] if decay else None) for e in range(6)]
        switches = [e for e in range(1, 6) if kinds[e] != kinds[e - 1]]
        assert switches == ([decay[0]] if len(STRATEGIES[strategy]) > 1 else [])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_phase_has_its_analytic_occurrence(self, seed):
        # the paper's claim on the trainer's own draws: one epoch of each phase,
        # tallied, lies within 5 binomial standard errors of the analytic ratio
        # of every class (a row's mass on a class lies in [0, 1], so its
        # variance is at most p (1 - p))
        counts = ImbalanceProfile("exponential", 100, 500).class_counts(10)
        labels = np.repeat(np.arange(10), counts)
        index = ClassIndex.from_labels(labels, 10)
        for strategy, phases in STRATEGIES.items():
            cfg = TrainConfig(strategy=strategy, seed=seed, **self.README)
            n = cfg.batches_per_epoch * cfg.batch_size
            for first, kinds in zip((0, cfg.lr_decay_epochs[0]), phases):
                assert cfg.schedule(first)[1] == kinds
                i, j, lam = draw_pairs(kinds, index, cfg.alpha, make_rng(seed, "epoch", first), n)
                if len(kinds) == 1:
                    lam = np.ones(n)
                measured = empirical_occurrence(labels[i], labels[j], lam, 10).ratios
                want = analytic_occurrence(kinds if len(kinds) == 2 else kinds * 2, index).ratios
                tolerance = 5 * np.sqrt(want * (1 - want) / n)
                assert np.all(np.abs(measured - want) <= tolerance), (strategy, kinds)


class TestTrainConfigValidation:
    def test_deferred_needs_valid_switch(self):
        for decay, shown in (((5,), "(5,)"), ((7, 9), "(7, 9)"), ((), "()")):
            want = f"deferred strategy needs a first lr decay epoch strictly inside (0, epochs=5), got {shown}"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                TrainConfig(epochs=5, batches_per_epoch=1, batch_size=1, lr=0.1,
                            lr_decay_epochs=decay, strategy="deferred")

    def test_defer_defaults_to_first_decay(self):
        # the switch epoch is the first decay epoch, for every strategy; only deferred has a second phase
        for strategy, phases in STRATEGIES.items():
            cfg = TrainConfig(epochs=10, batches_per_epoch=1, batch_size=1, lr=0.1,
                              lr_decay_epochs=(6, 8), strategy=strategy)
            assert [cfg.schedule(e)[1] for e in range(10)] == [phases[0]] * 6 + [phases[-1]] * 4
        cfg = TrainConfig(epochs=10, batches_per_epoch=1, batch_size=1, lr=0.1)  # no decay: no switch
        assert [cfg.schedule(e)[1] for e in range(10)] == [STRATEGIES["mixup"][0]] * 10

    @pytest.mark.parametrize(
        "settings,message",
        [
            (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
            (dict(batches_per_epoch=True), "batches_per_epoch must be an integer, got True"),
            (dict(batch_size=np.float64(4.0)), "batch_size must be an integer, got np.float64(4.0)"),
            (dict(epochs="8"), "epochs must be an integer, got '8'"),
            (dict(lr_decay_epochs=(2.5, 6.9)), "decay epoch must be an integer, got 2.5"),
            (dict(lr_decay_epochs=(True, 3)), "decay epoch must be an integer, got True"),
            (dict(lr_decay_epochs=(2, np.bool_(True))), "decay epoch must be an integer, got np.True_"),
        ],
    )
    def test_non_integer_count_rejected(self, settings, message):
        # int() would train (2.5, 6.9) as (2, 6) and (True, 3) as (1, 3), moving both the rate and the phase
        counts = {"epochs": 8, "batches_per_epoch": 1, "batch_size": 1, "lr_decay_epochs": (3,), **settings}
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(lr=0.1, strategy="deferred", **counts)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "settings,message",
        [
            (dict(alpha=True), "alpha must be a number, got True"),
            (dict(lr=True), "lr must be a number, got True"),
            (dict(lr_decay_factor=np.True_), "lr_decay_factor must be a number, got np.True_"),
            (dict(lr="0.1"), "lr must be a number, got '0.1'"),
            (dict(seed=2.5), "seed must be an integer, got 2.5"),
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(strategy=["lob"]), "strategy must be a string, got ['lob']"),
            (dict(strategy=None), "strategy must be a string, got None"),
        ],
    )
    def test_field_of_another_kind_rejected(self, settings, message):
        # alpha=True trained as 1 and was written to config.json as true; strategy=["lob"] raised TypeError
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(**{"epochs": 2, "batches_per_epoch": 1, "batch_size": 1, "lr": 0.1, **settings})
        assert str(excinfo.value) == message

    def test_every_field_has_a_kind(self):
        # the decay epochs are checked one by one
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert set(FIELD_KINDS) == fields - {"lr_decay_epochs"}

    def test_numpy_numbers_accepted(self):
        cfg = TrainConfig(epochs=2, batches_per_epoch=1, batch_size=1, lr=np.float64(0.5),
                          lr_decay_factor=np.float32(0.5), alpha=np.int64(2), seed=np.int64(7))
        assert cfg.schedule(1) == (0.5, (IB, IB))

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(epochs=np.int64(6), batches_per_epoch=np.uint8(2), batch_size=np.int32(4), lr=0.1,
                          lr_decay_epochs=(np.int64(2), np.int16(4)), strategy="deferred")
        assert cfg.lr_decay_epochs == (2, 4) and all(type(e) is int for e in cfg.lr_decay_epochs)
        assert [cfg.schedule(e)[1] for e in range(6)] == [(IB, IB)] * 2 + [(CB, CB)] * 4

    @pytest.mark.parametrize("field", ["epochs", "batches_per_epoch", "batch_size"])
    def test_count_below_one_rejected(self, field):
        counts = {"epochs": 1, "batches_per_epoch": 1, "batch_size": 1, field: 0}
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(lr=0.1, **counts)
        assert str(excinfo.value) == "epochs, batches_per_epoch and batch_size must all be >= 1"

    def test_decay_epochs_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            TrainConfig(epochs=10, batches_per_epoch=1, batch_size=1, lr=0.1, lr_decay_epochs=(6, 6))

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=-0.1)

    # the CLI rejects NaN and Infinity in a config before a TrainConfig is built; the library checks them too
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field,name", [("lr", "learning rate"), ("lr_decay_factor", "lr_decay_factor")])
    def test_non_finite_lr_rejected(self, field, name, value):
        kind = "non-negative" if value < 0 else "finite"
        settings = {"lr": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {value}$"):
            TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, **settings)

    def test_infinite_alpha_rejected(self):
        # Beta(inf, inf) ratios come out NaN; the CLI rejects inf before a TrainConfig is built
        with pytest.raises(ValueError, match="alpha must be positive and finite, got inf"):
            TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=0.1, alpha=math.inf)

    # an int beyond the float range: float() of it raised OverflowError, a traceback instead of one error line
    HUGE = 10**400

    def test_huge_int_lr_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=self.HUGE)
        assert str(excinfo.value) == f"learning rate must be finite, got {self.HUGE}"

    def test_huge_int_alpha_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=0.1, alpha=self.HUGE)
        assert str(excinfo.value) == f"alpha must be positive and finite, got {self.HUGE}"

    def test_huge_int_lr_decay_factor_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=0.1, lr_decay_factor=self.HUGE)
        assert str(excinfo.value) == f"lr_decay_factor must be finite, got {self.HUGE}"

    @pytest.mark.parametrize(
        "settings,message",
        [
            # float ** raised OverflowError from schedule(2), a traceback in the middle of a run
            (dict(lr=0.1, lr_decay_epochs=(1, 2), lr_decay_factor=1e200), "0.1 * 1e+200**2"),
            (dict(lr=0.0, lr_decay_epochs=(1, 2), lr_decay_factor=1e200), "0.0 * 1e+200**2"),
            # the product overflowed to an infinite rate, with no error
            (dict(lr=1e300, lr_decay_epochs=(1,), lr_decay_factor=1e10), "1e+300 * 10000000000.0**1"),
            (dict(lr=1e300, lr_decay_epochs=(1, 2), lr_decay_factor=1e5), "1e+300 * 100000.0**2"),
        ],
    )
    def test_overflowing_schedule_rejected(self, settings, message):
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(epochs=3, batches_per_epoch=1, batch_size=1, **settings)
        n = len(settings["lr_decay_epochs"])
        assert str(excinfo.value) == f"learning rate lr * lr_decay_factor**{n} overflows: {message}"

    def test_largest_finite_schedule_kept(self):
        # the check rejects only overflow: every accepted rate is schedule's product, bit for bit
        cfg = TrainConfig(epochs=3, batches_per_epoch=1, batch_size=1, lr=1e300, lr_decay_epochs=(1, 2),
                          lr_decay_factor=1e4)
        assert [cfg.schedule(e)[0] for e in range(3)] == [1e300, 1e300 * 1e4, 1e300 * 1e4**2]
        tiny = TrainConfig(epochs=3, batches_per_epoch=1, batch_size=1, lr=1e-300, lr_decay_epochs=(1, 2),
                           lr_decay_factor=1e-200)
        assert tiny.schedule(2)[0] == 0.0  # underflow to zero is no overflow


class TestEvaluate:
    def _three_class_test_set(self):
        labels = np.repeat(np.arange(3), 10)
        features = np.eye(3)[labels] * 5.0
        return LabeledDataset(features, labels, 3)

    def _identity_params(self):
        W = init_params(3, 3, seed=0)
        W[:, :-1] = np.eye(3)
        W[:, -1] = 0.0
        return W

    def test_perfect_predictor(self):
        test = self._three_class_test_set()
        groups = np.array([0, 1, 2])  # head, medium, tail
        report = evaluate(self._identity_params(), test, groups)
        assert np.array_equal(report.per_class_recall, np.ones(3))
        assert report.balanced_accuracy == 1.0
        assert report.overall_accuracy == 1.0
        assert report.group_accuracy == {"head": 1.0, "medium": 1.0, "tail": 1.0}

    def test_constant_predictor(self):
        test = self._three_class_test_set()
        W = init_params(3, 3, seed=0)
        W[:] = 0.0
        W[:, -1] = [10.0, 0.0, 0.0]
        report = evaluate(W, test, np.array([0, 1, 2]))
        assert report.balanced_accuracy == pytest.approx(1.0 / 3.0)

    def test_balanced_accuracy_is_mean_recall(self):
        test = self._three_class_test_set()
        W = init_params(3, 3, seed=4)
        report = evaluate(W, test, default_groups([10, 10, 10]))
        assert report.balanced_accuracy == pytest.approx(np.mean(report.per_class_recall))

    def test_recalls_equal_per_class_loop(self):
        rng = np.random.default_rng(23)
        labels = rng.permutation(np.repeat(np.arange(7), [1, 3, 7, 12, 29, 50, 97]))
        test = LabeledDataset(rng.normal(size=(labels.size, 4)), labels, 7)
        W = init_params(4, 7, seed=6)
        predicted = _forward(W, test.rows).T.argmax(axis=1)
        loop = [float(np.mean(predicted[labels == k] == k)) for k in range(7)]
        assert np.array_equal(evaluate(W, test, default_groups([1] * 7)).per_class_recall, loop)

    def test_missing_class_rejected(self):
        labels = np.zeros(5, dtype=np.int64)
        test = LabeledDataset(np.zeros((5, 2)), labels, 2)
        with pytest.raises(ValueError, match="class 1 missing"):
            evaluate(init_params(2, 2, seed=0), test, np.array([0, 2]))

    def test_missing_class_rejected_before_any_logit(self):
        # weights of the wrong width would fail the product, so the class check must come first
        test = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="class 1 missing"):
            evaluate(init_params(3, 2, seed=0), test, np.array([0, 2]))

    @pytest.mark.parametrize("classes, rows, dim", [(3, 50, 5), (10, 4000, 8), (1000, 1000, 64)])
    def test_predictions_are_the_probability_argmax(self, classes, rows, dim):
        # C=10: a block of 3,276 rows and a partial one; C=1000: 31 blocks of 32 rows and a partial one
        rng = np.random.default_rng(classes)
        x = rng.normal(scale=2.0, size=(rows, dim))
        W = init_params(dim, classes, seed=classes)
        probs = _forward(W, with_ones(x)).T
        top = np.sort(probs, axis=1)[:, -2:]
        assert (top[:, 1] > top[:, 0]).all()  # no ties
        predicted = probs.argmax(axis=1)
        # label every row with its prediction, except rows of classes predicted more than once that
        # give each unpredicted class one row: every class is present, and the recalls expose every hit
        labels, counts = predicted.copy(), np.bincount(predicted, minlength=classes)
        missing = list(np.flatnonzero(counts == 0))
        for r, k in enumerate(predicted):
            if missing and counts[k] > 1:
                labels[r], counts[k] = missing.pop(), counts[k] - 1
        assert not missing
        test = LabeledDataset(x, labels, classes)
        groups = default_groups(np.bincount(labels))
        hits = predicted == labels
        loop = [float(np.mean(hits[labels == k])) for k in range(classes)]
        report = evaluate(W, test, groups)
        assert np.array_equal(report.per_class_recall, loop)
        assert report.overall_accuracy == float(np.mean(hits))

    def test_scores_without_softmax(self, monkeypatch):
        import lobmix.trainer

        rng = np.random.default_rng(29)
        labels = rng.permutation(np.arange(200) % 7)
        test = LabeledDataset(rng.normal(size=(200, 4)), labels, 7)
        W, groups = init_params(4, 7, seed=2), default_groups([1] * 7)
        report = evaluate(W, test, groups)

        def refuse(logits):
            raise AssertionError("evaluate took a softmax")

        monkeypatch.setattr(lobmix.trainer, "_softmax", refuse)
        assert evaluate(W, test, groups) == report

    def test_evaluate_allocates_one_block(self):
        # 20,000 x 64 -> 1000: the full logits would take 160 MB; one 32-row block takes 256 KB
        rng = np.random.default_rng(31)
        rows, dim, classes = 20_000, 64, 1000
        test = LabeledDataset(rng.normal(size=(rows, dim)), np.arange(rows) % classes, classes)
        W, groups = init_params(dim, classes, seed=5), default_groups([rows // classes] * classes)
        report, peak = traced_peak(evaluate, W, test, groups)
        assert peak < 2 * 2**20
        predicted = _forward(W, test.rows).T.argmax(axis=1)
        assert report.overall_accuracy == float(np.mean(predicted == test.labels))


def sorted_groups(counts):
    """Oracle: the rank-tercile grouping as a class -> group-name dict, ranked with ``sorted``."""
    sizes = list(counts)
    num_classes = len(sizes)
    order = sorted(range(num_classes), key=lambda k: (-sizes[k], k))
    n_edge = max(1, math.ceil(num_classes / 3))
    groups = {}
    for rank, k in enumerate(order):
        if rank < n_edge:
            groups[k] = "head"
        elif rank >= num_classes - n_edge:
            groups[k] = "tail"
        else:
            groups[k] = "medium"
    return groups


class TestGroups:
    def test_terciles(self):
        groups = default_groups([100, 90, 80, 70, 60, 50, 40, 30, 20, 10])
        assert [GROUP_NAMES[g] for g in groups] == [
            "head", "head", "head", "head",
            "medium", "medium",
            "tail", "tail", "tail", "tail",
        ]

    def test_two_classes(self):
        groups = default_groups([10, 5])
        assert groups.tolist() == [0, 2]  # head, tail

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=60))
    def test_matches_sorted_oracle(self, counts):
        # sizes from 1-4 make ties common, so the class-id tie-break is exercised
        groups = default_groups(counts)
        assert groups.shape == (len(counts),)
        oracle = sorted_groups(counts)
        assert [GROUP_NAMES[g] for g in groups] == [oracle[k] for k in range(len(counts))]


class TestHistoryCsv:
    def test_columns_and_formatting(self, tmp_path):
        train_ds, test_ds, _ = quick_split(seed=14)
        cfg = TrainConfig(epochs=2, batches_per_epoch=3, batch_size=16, lr=0.25, seed=0)
        _, history = train(train_ds, test_ds, cfg)
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,balanced_acc,head_acc,med_acc,tail_acc"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "0.25"
