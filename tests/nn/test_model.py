"""Tests for repro.nn.model, losses and optimisers."""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    ReLU,
)
from repro.nn.losses import CategoricalCrossEntropy
from repro.nn.model import History, Sequential
from repro.nn.optim import SGD, Adam


def blobs(n_per_class=60, k=3, d=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(k, d))
    X = np.vstack(
        [centers[i] + 0.6 * rng.normal(size=(n_per_class, d)) for i in range(k)]
    )
    y = np.repeat(np.arange(k), n_per_class)
    order = rng.permutation(X.shape[0])
    return X[order], y[order]


def mlp(k=3):
    return Sequential([Dense(16), ReLU(), Dense(k)], n_classes=k, seed=0)


class TestLoss:
    def test_uniform_loss_is_log_k(self):
        loss_fn = CategoricalCrossEntropy()
        logits = np.zeros((8, 4))
        onehot = np.eye(4)[np.zeros(8, dtype=int)]
        loss, proba = loss_fn.forward(logits, onehot)
        assert loss == pytest.approx(np.log(4))
        assert np.allclose(proba, 0.25)

    def test_gradient_matches_softmax_minus_target(self):
        loss_fn = CategoricalCrossEntropy()
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        onehot = np.eye(3)[rng.integers(0, 3, 5)]
        _, proba = loss_fn.forward(logits, onehot)
        grad = loss_fn.backward()
        assert np.allclose(grad, (proba - onehot) / 5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CategoricalCrossEntropy().forward(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_forward_codes_matches_onehot_forward(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        codes = rng.integers(0, 4, 6)
        onehot = np.eye(4)[codes]
        a, b = CategoricalCrossEntropy(), CategoricalCrossEntropy()
        loss_oh, proba_oh = a.forward(logits, onehot)
        loss_c, proba_c = b.forward_codes(logits, codes)
        assert loss_c == pytest.approx(loss_oh, rel=1e-12)
        np.testing.assert_array_equal(proba_c, proba_oh)
        # The fused gradient is bitwise the same either way.
        np.testing.assert_array_equal(b.backward(), a.backward())

    def test_forward_codes_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CategoricalCrossEntropy().forward_codes(np.zeros((2, 3)), np.zeros(3))


class TestOptimisers:
    def test_sgd_reduces_quadratic(self):
        p = np.array([5.0])
        opt = SGD(lr=0.1, momentum=0.0)
        for _ in range(100):
            opt.step([p], [2 * p])
        assert abs(p[0]) < 1e-3

    def test_sgd_momentum_accelerates(self):
        p1, p2 = np.array([5.0]), np.array([5.0])
        plain = SGD(lr=0.01, momentum=0.0)
        mom = SGD(lr=0.01, momentum=0.9)
        for _ in range(50):
            plain.step([p1], [2 * p1])
            mom.step([p2], [2 * p2])
        assert abs(p2[0]) < abs(p1[0])

    def test_adam_reduces_quadratic(self):
        p = np.array([5.0])
        opt = Adam(lr=0.2)
        for _ in range(200):
            opt.step([p], [2 * p])
        assert abs(p[0]) < 1e-2

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)
        with pytest.raises(ValueError):
            Adam(lr=-1.0)


class TestSequential:
    def test_fit_separable(self):
        X, y = blobs()
        model = mlp()
        history = model.fit(X, y, epochs=60, batch_size=16)
        _, acc = model.evaluate(X, y)
        assert acc > 0.95
        assert history.loss[-1] < history.loss[0]

    def test_history_lengths(self):
        X, y = blobs()
        model = mlp()
        history = model.fit(X, y, epochs=5, validation_data=(X, y))
        assert len(history.loss) == 5
        assert len(history.val_loss) == 5
        assert len(history.accuracy) == 5
        assert len(history.val_accuracy) == 5

    def test_history_as_dict(self):
        history = History(loss=[1.0], accuracy=[0.5])
        d = history.as_dict()
        assert d["loss"] == [1.0]

    def test_predict_proba_normalised(self):
        X, y = blobs()
        model = mlp()
        model.fit(X, y, epochs=3)
        P = model.predict_proba(X)
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_wrong_output_shape_detected(self):
        model = Sequential([Dense(5)], n_classes=3, seed=0)
        with pytest.raises(ValueError, match="output shape"):
            model.build((4,))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            mlp().predict(np.ones((2, 6)))

    def test_bad_codes(self):
        X, _ = blobs()
        model = mlp()
        with pytest.raises(ValueError):
            model.fit(X, np.full(X.shape[0], 7), epochs=1)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mlp().fit(np.ones((4, 6)), np.zeros(3), epochs=1)

    def test_deterministic_given_seeds(self):
        X, y = blobs()
        a = mlp(); a.fit(X, y, epochs=3, shuffle_seed=1)
        b = mlp(); b.fit(X, y, epochs=3, shuffle_seed=1)
        assert np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_evaluate_routes_through_loss_fn(self):
        """evaluate's loss must equal the shared loss on the same logits."""
        X, y = blobs()
        model = mlp()
        model.fit(X, y, epochs=3)
        loss, acc = model.evaluate(X, y)
        logits = model._forward_batched(X)
        expected_loss, proba = CategoricalCrossEntropy().forward_codes(logits, y)
        assert loss == expected_loss
        assert acc == float(np.mean(np.argmax(proba, axis=1) == y))

    def test_zero_rows_answer_empty(self):
        from repro.attack.models import build_feature_cnn

        model = build_feature_cnn(4, width_scale=0.1, seed=0)
        X = np.random.default_rng(0).normal(size=(16, 24, 1))
        model.fit(X, np.arange(16) % 4, epochs=1, batch_size=8)
        proba = model.predict_proba(X[:0])
        assert proba.shape == (0, 4) and proba.dtype == np.float64
        assert model.predict(X[:0]).shape == (0,)

    def test_fit_records_layer_spans(self):
        from repro.obs import reset_observability, tracer

        reset_observability()
        X, y = blobs(n_per_class=20)
        mlp().fit(X, y, epochs=2)
        fwd = tracer().find("layer_forward")
        bwd = tracer().find("layer_backward")
        assert len(fwd) == 3 and len(bwd) == 3  # one span per layer
        assert {s.labels["layer"] for s in fwd} == {"0:Dense", "1:ReLU", "2:Dense"}
        assert all(s.duration_s >= 0.0 for s in fwd + bwd)
        reset_observability()

        # A CNN: each ReLU -> Dropout -> MaxPool run is one executed
        # unit, so one span labelled with its layers.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(24, 16, 1))
        y = np.arange(24) % 2
        Sequential(
            [Conv1D(4, 3), ReLU(), Dropout(0.2, seed=1), MaxPool1D(2),
             Flatten(), Dense(8), ReLU(), Dropout(0.25), Dense(2)],
            n_classes=2,
            seed=0,
        ).fit(X, y, epochs=1, batch_size=8)
        expected = {
            "0:Conv1D", "1-3:ReLU+Dropout+MaxPool1D", "4:Flatten", "5:Dense",
            "6:ReLU", "7:Dropout", "8:Dense",
        }
        for kind in ("layer_forward", "layer_backward"):
            spans = tracer().find(kind)
            assert len(spans) == len(expected)
            assert {s.labels["layer"] for s in spans} == expected
        reset_observability()

    def test_conv1d_stack_trains(self):
        rng = np.random.default_rng(0)
        # Class 0: rising sequences, class 1: falling.
        n = 80
        base = np.linspace(0, 1, 16)
        X0 = base + 0.1 * rng.normal(size=(n, 16))
        X1 = base[::-1] + 0.1 * rng.normal(size=(n, 16))
        X = np.vstack([X0, X1])[..., None]
        y = np.array([0] * n + [1] * n)
        model = Sequential(
            [Conv1D(8, 3), ReLU(), MaxPool1D(2), Flatten(), Dense(2)],
            n_classes=2,
            seed=0,
        )
        model.fit(X, y, epochs=30, batch_size=16)
        _, acc = model.evaluate(X, y)
        assert acc > 0.9
