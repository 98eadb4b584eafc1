"""Tests for the dense-relu-dropout-dense-relu-dense-softmax classifier."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from acqbench import model
from acqbench.acquisition import ProbabilityTensor
from acqbench.model import (
    MCConfig,
    ModelParams,
    TrainConfig,
    accuracy,
    features,
    init_model,
    mc_predict,
    mean_cross_entropy,
    predict_proba,
    train,
)
from acqbench.rng import stream


WEIGHTS = ("w1", "b1", "w2", "b2", "w3", "b3")


def _params_equal(a: ModelParams, b: ModelParams) -> bool:
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in WEIGHTS)


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


class TestModelParams:
    def test_callers_arrays_stay_writeable_and_detached(self):
        p = init_model(2, 3, 2, dropout=0.5, seed=0)
        given = {n: getattr(p, n).copy() for n in WEIGHTS}
        q = ModelParams(dropout=0.5, **given)
        for name, arr in given.items():
            assert arr.flags.writeable
            assert not np.shares_memory(arr, getattr(q, name))
            assert not getattr(q, name).flags.writeable
        given["w1"][0, 0] = 9.0
        assert q.w1[0, 0] == p.w1[0, 0]

    def test_non_finite_weights_rejected(self):
        p = init_model(2, 3, 2, dropout=0.5, seed=0)
        fields = {n: getattr(p, n) for n in WEIGHTS}
        fields["b2"] = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValueError, match="b2"):
            ModelParams(dropout=0.5, **fields)


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

    def test_fractional_labels_rejected(self):
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        with pytest.raises(ValueError, match="integers"):
            train(p, np.zeros((3, 2)), np.array([0.5, 1.5, 0.2]), TrainConfig())

    def test_checks_inputs_and_builds_params_once(self, monkeypatch):
        # the SGD steps run on plain arrays: one input check and one
        # ModelParams per call, however many minibatches there are
        calls = {"check": 0, "params": 0}
        check, post_init = model._check_batch, ModelParams.__post_init__

        def counted_check(*args):
            calls["check"] += 1
            return check(*args)

        def counted_post_init(self):
            calls["params"] += 1
            post_init(self)

        monkeypatch.setattr(model, "_check_batch", counted_check)
        monkeypatch.setattr(ModelParams, "__post_init__", counted_post_init)
        X, y = _blobs(20)
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        train(p, X, y, TrainConfig(lr=0.1, epochs=3, minibatch=8, seed=1))
        assert calls == {"check": 1, "params": 2}  # init_model's, then train's

    @pytest.mark.parametrize(
        "dropout, n, digest",
        [
            (0.3, 5, "0a594029e4bdd3f770ae1688a6799afbd86c4dfb532efc98e13409556cf979a4"),
            (0.0, 16, "9cf9676ff572ffafe1ced6e11524d4f6312bd1224f5cf9b9124b1a8b21462617"),
            (0.3, 17, "d15ecf1f3dce0d6a065f49e270d8471cdfbf9b8184c33880d6312241a3b6bc08"),
            (0.0, 17, "0d7c4c2fecbb0c42bfeea73bd9986edba68760a672e810eaa4365a875e89d27e"),
        ],
    )
    def test_trained_weights_pinned(self, dropout, n, digest, pin_note):
        # sha256 of the weights after four epochs with minibatch 8: n below
        # one minibatch, exactly two, and two plus a one-row remainder; with
        # dropout 0 no mask may be drawn from the shuffle stream
        g = np.random.default_rng(7)
        X, y = g.normal(size=(n, 3)), g.integers(0, 3, size=n)
        p = init_model(3, 6, 3, dropout=dropout, seed=2)
        q = train(p, X, y, TrainConfig(lr=0.1, epochs=4, minibatch=8, seed=5))
        h = hashlib.sha256()
        for name in WEIGHTS:
            h.update(getattr(q, name).tobytes())
        assert h.hexdigest() == digest, pin_note

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan")])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)


class TestGradients:
    def test_finite_difference_check(self):
        # One full-batch SGD step with lr = 1 and no dropout moves every
        # parameter by minus its gradient (up to rounding); central
        # differences of mean_cross_entropy on the same fixed 8-sample
        # batch must agree.
        g = np.random.default_rng(0)
        X, y = g.normal(size=(8, 3)), g.integers(0, 4, size=8)
        p = init_model(3, 6, 4, dropout=0.0, seed=1)
        q = train(p, X, y, TrainConfig(lr=1.0, epochs=1, minibatch=len(X), seed=0))
        h = 1e-4
        for name in WEIGHTS:
            base = getattr(p, name)
            num = np.empty(base.size)
            for i in range(base.size):
                losses = []
                for step in (h, -h):
                    moved = base.copy().reshape(-1)
                    moved[i] += step
                    fields = {n: getattr(p, n) for n in WEIGHTS}
                    fields[name] = moved.reshape(base.shape)
                    losses.append(mean_cross_entropy(ModelParams(dropout=0.0, **fields), X, y))
                num[i] = (losses[0] - losses[1]) / (2 * h)
            ana = (base - getattr(q, name)).reshape(-1)
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

    @pytest.mark.parametrize(
        "dropout, n, digest",
        [
            (0.0, 1, "7b75ecb4bdce725cd40d31f19cfa58cfcb902c3e19131cfd84b8ce0e0d148d7f"),
            (0.0, 17, "db5e80e4299bb6d6d90a6b0071230f72a768dd56e0102170adbddef54a80c799"),
            (0.0, 2500, "daa9f83554d9607a297023af9ce75d38322239d49a6f4876237dc120f2a7930d"),
            (0.15, 1, "45973c23952616e046b18e654d7a8021f54ec4c9cd144c04b8172cfc45f1f325"),
            (0.15, 17, "7436234254b11cce7ebc37bce354f4f3aaed2c6c38875df4e1a9bce8b4cb2621"),
            (0.15, 2500, "788b0044ae98816e9d06e325694315cd886d35191f160b60e0c250e68f24c4d1"),
        ],
    )
    def test_passes_pinned(self, dropout, n, digest, pin_note):
        # sha256 of five passes at the bench pool's width: one row, a few,
        # and a whole pool
        p = init_model(4, 96, 3, dropout=dropout, seed=11)
        X = np.random.default_rng(8).normal(size=(n, 4))
        t = mc_predict(p, X, MCConfig(n_passes=5, seed=13))
        assert hashlib.sha256(t.data.tobytes()).hexdigest() == digest, pin_note

    @pytest.mark.parametrize("dropout, streams", [(0.0, 0), (0.5, 4)])
    def test_one_stream_per_pass_that_draws(self, dropout, streams, monkeypatch):
        p = init_model(2, 8, 3, dropout=dropout, seed=0)
        built = []
        monkeypatch.setattr(model, "stream", lambda *key: built.append(key) or stream(*key))
        mc_predict(p, np.zeros((3, 2)), MCConfig(n_passes=4, seed=1))
        assert len(built) == streams

    def test_passes_reuse_the_calls_buffers(self):
        # three [n, hidden] arrays (the first layer and two pass buffers) plus
        # the stack and its checked copy; a pass that allocated its own mask,
        # activations and logits would hold several more [n, hidden] arrays
        n, hidden, k = 2500, 96, 5
        p = init_model(4, hidden, 3, dropout=0.15, seed=11)
        X = np.random.default_rng(8).normal(size=(n, 4))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mc_predict(p, X, MCConfig(n_passes=k, seed=13))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < (3.5 * n * hidden + 3 * k * n * 3) * 8

    def test_stack_handed_over_without_a_copy(self):
        # the public constructor's copy and range scan would add more than
        # another stack of 36 classes; the stack itself comes back read-only
        n, hidden, k, classes = 2500, 96, 5, 36
        p = init_model(4, hidden, classes, dropout=0.15, seed=11)
        X = np.random.default_rng(8).normal(size=(n, 4))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            t = mc_predict(p, X, MCConfig(n_passes=k, seed=13))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < (3.5 * n * hidden + 1.5 * k * n * classes) * 8
        assert not t.data.flags.writeable
        assert isinstance(t, ProbabilityTensor)


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

    def test_mean_cross_entropy_rejects_fractional_labels(self):
        p = init_model(2, 8, 2, dropout=0.5, seed=0)
        with pytest.raises(ValueError, match="integers"):
            mean_cross_entropy(p, np.zeros((3, 2)), np.array([0.5, 1.5, 0.2]))
