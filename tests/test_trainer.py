import dataclasses
import math

import numpy as np
import pytest

from lobmix import (
    CB,
    IB,
    ClassCounts,
    LabeledDataset,
    Strategy,
    TrainConfig,
    evaluate,
    forward,
    grad,
    longtail_split,
    make_batch,
    make_rng,
    soft_cross_entropy,
    synth_gaussian_mixture,
    train,
)
from lobmix.trainer import (
    ModelParams,
    TrainingDiverged,
    _forward_parts,
    _loss_and_grad,
    default_groups,
    init_params,
    write_history_csv,
)

from conftest import dense_targets


def random_dataset(rng, dim, num_classes):
    counts = [max(2, int(c)) for c in rng.integers(2, 8, size=num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)
    return LabeledDataset(rng.normal(size=(labels.size, dim)), labels, num_classes)


def random_mixed_batch(rng, dim, num_classes, batch_size, kinds=(IB, IB)):
    ds = random_dataset(rng, dim, num_classes)
    return make_batch(ds, ds.class_index(), batch_size, 1.0, kinds, make_rng(int(rng.integers(1 << 31)), "test"))


def two_hot_loss_and_grad(params, batch):
    return _loss_and_grad(params, batch.features, batch.src[:, 2], batch.src[:, 3], batch.lams)


def dense_loss_and_grad(params, x, targets):
    """Reference: mean soft cross entropy and its gradient from (B, C) target rows."""
    probs, z, h = _forward_parts(params, x)
    loss = float(soft_cross_entropy(probs, targets).mean())
    dlogits = (probs - targets) / x.shape[0]
    if params.arch == "linear":
        return loss, [z.T @ dlogits, dlogits.sum(axis=0)]
    w1, b1, w2, b2 = params.weights
    dpre = (dlogits @ w2.T) * (1.0 - h * h)
    return loss, [z.T @ dpre, dpre.sum(axis=0), h.T @ dlogits, dlogits.sum(axis=0)]


def flatten(weights):
    return np.concatenate([w.ravel() for w in weights])


def numeric_grad(params, batch, step=1e-5):
    """Central finite differences of the mean loss over a flattened parameter vector."""
    base = [w.copy() for w in params.weights]
    flat = flatten(base)
    out = np.empty_like(flat)
    shapes = [w.shape for w in base]
    sizes = [w.size for w in base]

    def unflatten(vec):
        chunks = np.split(vec, np.cumsum(sizes)[:-1])
        return [c.reshape(s) for c, s in zip(chunks, shapes)]

    def loss_at(vec):
        probe = ModelParams(
            arch=params.arch,
            weights=unflatten(vec),
            feature_offset=params.feature_offset,
            feature_scale=params.feature_scale,
        )
        return two_hot_loss_and_grad(probe, batch)[0]

    for idx in range(flat.size):
        plus = flat.copy()
        plus[idx] += step
        minus = flat.copy()
        minus[idx] -= step
        out[idx] = (loss_at(plus) - loss_at(minus)) / (2.0 * step)
    return out


class TestForward:
    def test_zero_params_uniform(self):
        params = init_params("linear", 4, 5, seed=0)
        params.weights[0][:] = 0.0
        probs = forward(params, np.array([1.0, -2.0, 3.0, 0.5]))
        assert np.allclose(probs, 0.2, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        params = init_params("mlp1", 3, 4, seed=1, hidden=8)
        probs = forward(params, np.random.default_rng(0).normal(size=(32, 3)))
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_dominant_logit(self):
        params = init_params("linear", 2, 3, seed=0)
        params.weights[0][:] = 0.0
        params.weights[1][:] = np.array([50.0, 0.0, 0.0])
        probs = forward(params, np.zeros(2))
        assert probs[0] > 1.0 - 1e-12

    def test_shift_invariance(self):
        params = init_params("linear", 2, 3, seed=3)
        shifted = ModelParams(
            arch=params.arch,
            weights=[params.weights[0].copy(), params.weights[1] + 7.5],
            feature_offset=params.feature_offset,
            feature_scale=params.feature_scale,
        )
        x = np.array([0.3, -1.2])
        assert np.allclose(forward(params, x), forward(shifted, x), rtol=0, atol=1e-12)

    def test_non_finite_input(self):
        params = init_params("linear", 2, 3, seed=0)
        with pytest.raises(ValueError, match="finite"):
            forward(params, np.array([np.nan, 1.0]))


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
    @pytest.mark.parametrize("arch,hidden", [("linear", 0), ("mlp1", 6)])
    def test_matches_finite_differences(self, arch, hidden):
        rng = np.random.default_rng(42)
        for _ in range(10):
            batch = random_mixed_batch(rng, dim=4, num_classes=3, batch_size=6)
            params = init_params(arch, 4, 3, seed=int(rng.integers(1 << 31)), hidden=hidden or 6)
            analytic = flatten(grad(params, batch))
            numeric = numeric_grad(params, batch)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-4

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(7)
        batch = random_mixed_batch(rng, dim=3, num_classes=4, batch_size=8)
        doubled = dataclasses.replace(
            batch,
            features=np.concatenate([batch.features, batch.features]),
            lams=np.concatenate([batch.lams, batch.lams]),
            src=np.concatenate([batch.src, batch.src]),
        )
        params = init_params("linear", 3, 4, seed=11)
        for g1, g2 in zip(grad(params, batch), grad(params, doubled)):
            assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)

    def test_gradient_small_after_convergence(self):
        base = synth_gaussian_mixture(2, ClassCounts((200, 200)), 3, 10.0, seed=4)
        train_ds, test_ds, _ = longtail_split(base, ClassCounts((150, 150)), 50, seed=4)
        cfg = TrainConfig(
            epochs=120, batches_per_epoch=10, batch_size=64, lr=1.0,
            lr_decay_epochs=(), strategy=Strategy.ERM, seed=0,
        )
        params, _ = train(train_ds, test_ds, cfg)
        _, grads = _loss_and_grad(params, train_ds.features, train_ds.labels, train_ds.labels, 1.0)
        assert np.linalg.norm(flatten(grads)) <= 1e-3


class TestTwoHotLoss:
    @pytest.mark.parametrize("arch", ["linear", "mlp1"])
    @pytest.mark.parametrize("kinds", [(IB, IB), (CB, CB)])
    def test_equals_dense_soft_cross_entropy(self, arch, kinds):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            ds = random_dataset(rng, dim=5, num_classes=4)
            batch = make_batch(ds, ds.class_index(), 64, 1.0, kinds, make_rng(int(rng.integers(1 << 31)), "test"))
            params = init_params(arch, 5, 4, seed=int(rng.integers(1 << 31)), hidden=6)
            targets = dense_targets(ds, batch)
            loss, grads = two_hot_loss_and_grad(params, batch)
            ref_loss, ref_grads = dense_loss_and_grad(params, batch.features, targets)
            assert np.array_equal(loss, ref_loss)
            assert np.array_equal(
                loss, soft_cross_entropy(forward(params, batch.features), targets).mean()
            )
            for g, ref in zip(grads, ref_grads):
                assert np.array_equal(g, ref)

    def test_unmixed_rows_equal_one_hot(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, dim=3, num_classes=5)
        params = init_params("linear", 3, 5, seed=4)
        one_hot = np.eye(5)[ds.labels]
        loss, grads = _loss_and_grad(params, ds.features, ds.labels, ds.labels, 1.0)
        ref_loss, ref_grads = dense_loss_and_grad(params, ds.features, one_hot)
        assert loss == ref_loss
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)


def quick_split(seed=0, separation=4.0, counts=(120, 60, 30)):
    base = synth_gaussian_mixture(len(counts), ClassCounts((200,) * len(counts)), 4, separation, seed)
    return longtail_split(base, ClassCounts(counts), 40, seed)


class TestTrain:
    def test_zero_lr_keeps_params(self):
        train_ds, test_ds, _ = quick_split()
        cfg = TrainConfig(epochs=4, batches_per_epoch=5, batch_size=16, lr=0.0, seed=3)
        params, history = train(train_ds, test_ds, cfg)
        fresh = init_params(
            cfg.arch, train_ds.dim, train_ds.num_classes,
            seed=cfg.seed, hidden=cfg.hidden,
        )
        for w, w0 in zip(params.weights, fresh.weights):
            assert np.array_equal(w, w0)
        accs = [row.balanced_acc for row in history]
        assert len(set(accs)) == 1

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_generator_per_batch(self, monkeypatch, strategy):
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
        assert addresses == [(5, "init")] + [(5, "batch", e, b) for e in range(2) for b in range(3)]

    def test_deterministic_history(self):
        train_ds, test_ds, _ = quick_split(seed=5)
        cfg = TrainConfig(epochs=3, batches_per_epoch=8, batch_size=32, lr=0.3, strategy=Strategy.LOB, seed=21)
        _, h1 = train(train_ds, test_ds, cfg)
        _, h2 = train(train_ds, test_ds, cfg)
        assert h1 == h2

    def test_erm_converges_on_separable_data(self):
        base = synth_gaussian_mixture(2, ClassCounts((300, 300)), 4, 10.0, seed=6)
        train_ds, test_ds, _ = longtail_split(base, ClassCounts((200, 200)), 80, seed=6)
        cfg = TrainConfig(epochs=50, batches_per_epoch=10, batch_size=64, lr=0.5, strategy=Strategy.ERM, seed=0)
        _, history = train(train_ds, test_ds, cfg)
        assert history[-1].balanced_acc >= 0.99

    def test_divergence_aborts(self):
        # an oversized step on the weight-decay term grows the weights
        # multiplicatively until they overflow
        train_ds, test_ds, _ = quick_split(seed=8)
        cfg = TrainConfig(
            epochs=10, batches_per_epoch=40, batch_size=8, lr=5.0, weight_decay=10.0, seed=1
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged, match="epoch"):
            train(train_ds, test_ds, cfg)

    def test_deferred_prefix_matches_vanilla(self):
        train_ds, test_ds, _ = quick_split(seed=9)
        common = dict(epochs=6, batches_per_epoch=6, batch_size=32, lr=0.3, lr_decay_epochs=(4,), seed=13)
        _, deferred = train(train_ds, test_ds, TrainConfig(strategy=Strategy.DEFERRED, **common))
        _, vanilla = train(train_ds, test_ds, TrainConfig(strategy=Strategy.MIXUP, **common))
        assert deferred[:4] == vanilla[:4]
        assert deferred[4:] != vanilla[4:]

    def test_strategies_all_run(self):
        train_ds, test_ds, _ = quick_split(seed=10)
        for strategy in Strategy:
            cfg = TrainConfig(
                epochs=2, batches_per_epoch=4, batch_size=16, lr=0.2,
                lr_decay_epochs=(1,), strategy=strategy, seed=2,
            )
            params, history = train(train_ds, test_ds, cfg)
            assert len(history) == 2

    def test_momentum_and_weight_decay_paths(self):
        train_ds, test_ds, _ = quick_split(seed=11)
        cfg = TrainConfig(
            epochs=3, batches_per_epoch=6, batch_size=32, lr=0.2,
            momentum=0.9, weight_decay=1e-4, seed=0,
        )
        _, history = train(train_ds, test_ds, cfg)
        assert np.isfinite(history[-1].train_loss)

    def test_mlp_strategy_run(self):
        train_ds, test_ds, _ = quick_split(seed=12)
        cfg = TrainConfig(
            epochs=3, batches_per_epoch=6, batch_size=32, lr=0.2,
            strategy=Strategy.LOB, arch="mlp1", hidden=16, seed=0,
        )
        _, history = train(train_ds, test_ds, cfg)
        assert np.isfinite(history[-1].train_loss)


class TestTrainConfigValidation:
    def test_deferred_needs_valid_switch(self):
        with pytest.raises(ValueError, match="defer"):
            TrainConfig(epochs=5, batches_per_epoch=1, batch_size=1, lr=0.1,
                        strategy=Strategy.DEFERRED, defer_epoch=5)
        with pytest.raises(ValueError, match="defer"):
            TrainConfig(epochs=5, batches_per_epoch=1, batch_size=1, lr=0.1,
                        strategy=Strategy.DEFERRED)

    def test_defer_defaults_to_first_decay(self):
        cfg = TrainConfig(epochs=10, batches_per_epoch=1, batch_size=1, lr=0.1,
                          lr_decay_epochs=(6, 8), strategy=Strategy.DEFERRED)
        assert cfg.switch_epoch == 6

    def test_decay_epochs_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            TrainConfig(epochs=10, batches_per_epoch=1, batch_size=1, lr=0.1, lr_decay_epochs=(6, 6))

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(epochs=1, batches_per_epoch=1, batch_size=1, lr=-0.1)


class TestEvaluate:
    def _three_class_test_set(self):
        labels = np.repeat(np.arange(3), 10)
        features = np.eye(3)[labels] * 5.0
        return LabeledDataset(features, labels, 3)

    def _identity_params(self):
        params = init_params("linear", 3, 3, seed=0)
        params.weights[0][:] = np.eye(3)
        params.weights[1][:] = 0.0
        return params

    def test_perfect_predictor(self):
        test = self._three_class_test_set()
        groups = {0: "head", 1: "medium", 2: "tail"}
        report = evaluate(self._identity_params(), test, groups)
        assert np.array_equal(report.per_class_recall, np.ones(3))
        assert report.balanced_accuracy == 1.0
        assert report.overall_accuracy == 1.0
        assert report.group_accuracy == {"head": 1.0, "medium": 1.0, "tail": 1.0}

    def test_constant_predictor(self):
        test = self._three_class_test_set()
        params = init_params("linear", 3, 3, seed=0)
        params.weights[0][:] = 0.0
        params.weights[1][:] = np.array([10.0, 0.0, 0.0])
        report = evaluate(params, test, {0: "head", 1: "medium", 2: "tail"})
        assert report.balanced_accuracy == pytest.approx(1.0 / 3.0)

    def test_balanced_accuracy_is_mean_recall(self):
        test = self._three_class_test_set()
        params = init_params("linear", 3, 3, seed=4)
        report = evaluate(params, test, default_groups([10, 10, 10]))
        assert report.balanced_accuracy == pytest.approx(report.per_class_recall.mean())

    def test_missing_class_rejected(self):
        labels = np.zeros(5, dtype=np.int64)
        test = LabeledDataset(np.zeros((5, 2)), labels, 2)
        with pytest.raises(ValueError, match="missing"):
            evaluate(init_params("linear", 2, 2, seed=0), test, {0: "head", 1: "tail"})


class TestGroups:
    def test_terciles(self):
        groups = default_groups([100, 90, 80, 70, 60, 50, 40, 30, 20, 10])
        assert [groups[k] for k in range(10)] == [
            "head", "head", "head", "head",
            "medium", "medium",
            "tail", "tail", "tail", "tail",
        ]

    def test_two_classes(self):
        groups = default_groups([10, 5])
        assert groups == {0: "head", 1: "tail"}


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
