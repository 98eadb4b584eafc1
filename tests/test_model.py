"""Tests for the dense-relu-dropout-dense-relu-dense-softmax classifier."""

import numpy as np
import pytest

from acqbench.model import (
    MCConfig,
    ModelParams,
    TrainConfig,
    accuracy,
    features,
    init_model,
    loss_and_grads,
    mc_predict,
    mean_cross_entropy,
    predict_proba,
    train,
)


def _params_equal(a: ModelParams, b: ModelParams) -> bool:
    names = ("w1", "b1", "w2", "b2", "w3", "b3")
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


def _blobs(n_per_class=100, gap=6.0, spread=0.5, seed=3):
    g = np.random.default_rng(seed)
    x0 = g.normal(0.0, spread, size=(n_per_class, 2))
    x1 = g.normal(0.0, spread, size=(n_per_class, 2)) + np.array([gap, 0.0])
    X = np.vstack([x0, x1])
    y = np.repeat([0, 1], n_per_class)
    return X, y


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = init_model(3, 8, 4, dropout=0.5, seed=11)
        b = init_model(3, 8, 4, dropout=0.5, seed=11)
        assert _params_equal(a, b)

    def test_different_seeds_differ(self):
        a = init_model(3, 8, 4, dropout=0.5, seed=1)
        b = init_model(3, 8, 4, dropout=0.5, seed=2)
        assert not _params_equal(a, b)

    def test_zero_hidden_rejected(self):
        with pytest.raises(ValueError):
            init_model(3, 0, 2, dropout=0.5, seed=0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            init_model(3, 8, 1, dropout=0.5, seed=0)

    def test_biases_zero(self):
        p = init_model(3, 8, 4, dropout=0.5, seed=5)
        assert np.all(p.b1 == 0) and np.all(p.b2 == 0) and np.all(p.b3 == 0)

    def test_shapes(self):
        p = init_model(3, 8, 4, dropout=0.5, seed=5)
        assert p.w1.shape == (3, 8)
        assert p.w2.shape == (8, 8)
        assert p.w3.shape == (8, 4)
        assert (p.input_dim, p.hidden, p.n_classes) == (3, 8, 4)


class TestTrain:
    def test_zero_epochs_identity(self):
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        X, y = _blobs(20)
        out = train(p, X, y, TrainConfig(lr=0.1, epochs=0, minibatch=8, seed=1))
        assert _params_equal(p, out)

    def test_separable_blobs_fit(self):
        # oracle: the midline x0 = 3.0 separates the two blobs perfectly,
        # so a trained model should get nearly everything right
        X, y = _blobs(100)
        oracle_pred = (X[:, 0] > 3.0).astype(int)
        assert np.mean(oracle_pred == y) == 1.0
        p = init_model(2, 16, 2, dropout=0.1, seed=0)
        p = train(p, X, y, TrainConfig(lr=0.01, epochs=100, minibatch=16, seed=2))
        assert accuracy(p, X, y) >= 0.95

    def test_determinism(self):
        X, y = _blobs(40)
        cfg = TrainConfig(lr=0.05, epochs=7, minibatch=8, seed=9)
        p = init_model(2, 8, 2, dropout=0.3, seed=4)
        a = train(p, X, y, cfg)
        b = train(p, X, y, cfg)
        assert _params_equal(a, b)

    def test_loss_decreases_over_seeds(self):
        X, y = _blobs(100)
        for seed in range(5):
            p = init_model(2, 16, 2, dropout=0.1, seed=seed)
            before = mean_cross_entropy(p, X, y)
            q = train(p, X, y, TrainConfig(lr=0.01, epochs=40, minibatch=16, seed=seed))
            assert mean_cross_entropy(q, X, y) <= before

    def test_empty_data_rejected(self):
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        with pytest.raises(ValueError):
            train(p, np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig())

    def test_label_out_of_range_rejected(self):
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        with pytest.raises(ValueError):
            train(p, np.zeros((3, 2)), np.array([0, 1, 2]), TrainConfig())

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan")])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)


def _fd_batch():
    g = np.random.default_rng(0)
    return g.normal(size=(8, 3)), g.integers(0, 4, size=8)


def _loss_with(p: ModelParams, name: str, arr: np.ndarray) -> float:
    fields = {n: getattr(p, n) for n in ("w1", "b1", "w2", "b2", "w3", "b3")}
    fields[name] = arr
    q = ModelParams(dropout=p.dropout, **fields)
    X, y = _fd_batch()
    loss, _ = loss_and_grads(q, X, y, mask=1.0)
    return loss


class TestGradients:
    def test_finite_difference_check(self):
        # central differences on a fixed 8-sample batch, no dropout noise
        X, y = _fd_batch()
        p = init_model(3, 6, 4, dropout=0.0, seed=1)
        _, grads = loss_and_grads(p, X, y, mask=1.0)
        h = 1e-4
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            base = getattr(p, name)
            num = np.empty(base.size)
            for i in range(base.size):
                up = base.copy().reshape(-1)
                up[i] += h
                down = base.copy().reshape(-1)
                down[i] -= h
                num[i] = (
                    _loss_with(p, name, up.reshape(base.shape))
                    - _loss_with(p, name, down.reshape(base.shape))
                ) / (2 * h)
            ana = grads[name].reshape(-1)
            scale = np.maximum(np.abs(num), 1e-8)
            rel = np.abs(ana - num) / scale
            assert rel.max() < 1e-3, f"{name}: max rel err {rel.max()}"


class TestMCPredict:
    def test_zero_dropout_identical_passes(self):
        p = init_model(2, 8, 3, dropout=0.0, seed=0)
        X = np.random.default_rng(1).normal(size=(5, 2))
        t = mc_predict(p, X, MCConfig(n_passes=5, seed=2))
        for k in range(1, 5):
            np.testing.assert_array_equal(t.data[0], t.data[k])

    def test_dropout_inactive_identical_passes(self):
        p = init_model(2, 8, 3, dropout=0.5, seed=0)
        X = np.random.default_rng(1).normal(size=(5, 2))
        t = mc_predict(p, X, MCConfig(n_passes=4, dropout_active=False, seed=2))
        for k in range(1, 4):
            np.testing.assert_array_equal(t.data[0], t.data[k])

    def test_rows_are_distributions(self):
        p = init_model(2, 8, 3, dropout=0.5, seed=0)
        X = np.random.default_rng(1).normal(size=(7, 2))
        t = mc_predict(p, X, MCConfig(n_passes=5, seed=3))
        assert np.all(t.data >= 0)
        np.testing.assert_allclose(t.data.sum(axis=2), 1.0, atol=1e-9)

    def test_same_seed_identical(self):
        p = init_model(2, 8, 3, dropout=0.5, seed=0)
        X = np.random.default_rng(1).normal(size=(5, 2))
        a = mc_predict(p, X, MCConfig(n_passes=5, seed=7))
        b = mc_predict(p, X, MCConfig(n_passes=5, seed=7))
        np.testing.assert_array_equal(a.data, b.data)

    def test_active_dropout_passes_differ(self):
        p = init_model(2, 16, 3, dropout=0.5, seed=0)
        X = np.random.default_rng(1).normal(size=(5, 2))
        t = mc_predict(p, X, MCConfig(n_passes=5, seed=7))
        assert not np.array_equal(t.data[0], t.data[1])

    def test_dimension_mismatch_rejected(self):
        p = init_model(2, 8, 3, dropout=0.5, seed=0)
        with pytest.raises(ValueError):
            mc_predict(p, np.zeros((4, 5)), MCConfig())


class TestFeatures:
    def test_zero_input_zero_features(self):
        # fresh model has zero biases, so relu chains map 0 to 0
        p = init_model(3, 8, 2, dropout=0.5, seed=0)
        f = features(p, np.zeros((2, 3)))
        np.testing.assert_array_equal(f, np.zeros((2, 8)))

    def test_nonnegative(self):
        p = init_model(3, 8, 2, dropout=0.5, seed=0)
        X = np.random.default_rng(0).normal(size=(20, 3))
        assert np.all(features(p, X) >= 0)

    def test_shape(self):
        p = init_model(3, 8, 2, dropout=0.5, seed=0)
        X = np.random.default_rng(0).normal(size=(6, 3))
        assert features(p, X).shape == (6, 8)

    def test_no_dropout_noise(self):
        p = init_model(3, 8, 2, dropout=0.9, seed=0)
        X = np.random.default_rng(0).normal(size=(6, 3))
        np.testing.assert_array_equal(features(p, X), features(p, X))


class TestPredictHelpers:
    def test_predict_proba_rows_sum_to_one(self):
        p = init_model(2, 8, 4, dropout=0.5, seed=0)
        X = np.random.default_rng(2).normal(size=(9, 2))
        probs = predict_proba(p, X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_accuracy_range(self):
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        X, y = _blobs(30)
        assert 0.0 <= accuracy(p, X, y) <= 1.0

    def test_mean_cross_entropy_positive(self):
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        X, y = _blobs(30)
        assert mean_cross_entropy(p, X, y) > 0
