"""Unit tests for the int8 quantisation path (repro.nn.quant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchNorm,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    ReLU,
    Sequential,
    dequantize_weights,
    fuse_inference,
    quantize_model,
    quantize_weights,
)
from repro.nn.quant import (
    QMAX,
    QuantizedConv1D,
    QuantizedConv2D,
    QuantizedDense,
    quantize_activations,
    quantized_model_from_members,
    quantized_model_to_members,
)


def _fitted_model(seed=0, n=48, with_bn=True):
    rng = np.random.default_rng(seed)
    layers = [Conv1D(8, 3), ReLU(), Conv1D(8, 3)]
    if with_bn:
        layers.append(BatchNorm())
    layers += [ReLU(), Dropout(0.25, seed=seed), MaxPool1D(2), Flatten(),
               Dense(3)]
    model = Sequential(layers, n_classes=3, seed=seed)
    X = rng.normal(size=(n, 24, 1))
    y = rng.integers(0, 3, n)
    model.fit(X, y, epochs=3, batch_size=8)
    return model, X, y


class TestWeightCodec:
    def test_round_trip_within_half_step(self):
        rng = np.random.default_rng(1)
        w = rng.normal(scale=0.3, size=(3, 5, 16))
        q, scales = quantize_weights(w)
        assert q.dtype == np.int8
        assert scales.dtype == np.float32
        assert scales.shape == (16,)
        back = dequantize_weights(q, scales)
        # each entry rounds to the nearest code: error <= scale/2 per channel
        assert np.all(np.abs(back - w) <= scales[None, None, :] * 0.5 + 1e-7)

    def test_codes_cover_the_symmetric_range(self):
        w = np.array([[-1.0, 2.0], [1.0, -2.0]])
        q, scales = quantize_weights(w)
        assert q.max() == QMAX and q.min() == -QMAX
        np.testing.assert_allclose(scales, [1 / QMAX, 2 / QMAX], rtol=1e-6)

    def test_zero_channel_gets_unit_scale(self):
        w = np.zeros((4, 3))
        w[:, 1] = 0.5
        q, scales = quantize_weights(w)
        assert scales[0] == 1.0 and scales[2] == 1.0
        assert np.all(q[:, 0] == 0) and np.all(q[:, 2] == 0)

    def test_channel_axis_selectable(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(6, 4))
        q0, s0 = quantize_weights(w, axis=0)
        assert s0.shape == (6,)
        back = dequantize_weights(q0, s0, axis=0)
        assert np.all(np.abs(back - w) <= s0[:, None] * 0.5 + 1e-7)

    def test_activation_quantisation_is_per_sample(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7, 2))
        x[3] *= 100.0  # an outlier row must not affect other rows' scales
        xq, scale = quantize_activations(x)
        assert scale.shape == (5,)
        xq_without, scale_without = quantize_activations(x[:3])
        np.testing.assert_array_equal(xq[:3], xq_without)
        np.testing.assert_array_equal(scale[:3], scale_without)


class TestFusedInference:
    def test_fused_matches_inference_forward(self):
        model, X, _ = _fitted_model()
        fused = fuse_inference(model)
        np.testing.assert_allclose(
            fused.predict_proba(X), model.predict_proba(X), rtol=1e-10,
            atol=1e-12,
        )

    def test_fused_drops_dropout_and_batchnorm(self):
        model, _, _ = _fitted_model()
        fused = fuse_inference(model)
        kinds = {type(layer).__name__ for layer in fused.layers}
        assert "Dropout" not in kinds
        assert "BatchNorm" not in kinds

    def test_fused_shares_no_parameters(self):
        model, _, _ = _fitted_model(with_bn=False)
        fused = fuse_inference(model)
        for layer, orig in zip(fused.layers, [l for l in model.layers
                                              if not isinstance(l, Dropout)]):
            if hasattr(layer, "W"):
                assert layer.W is not orig.W

    def test_unbuilt_model_refuses(self):
        model = Sequential([Dense(3)], n_classes=3)
        with pytest.raises(RuntimeError, match="built"):
            fuse_inference(model)


class TestQuantizedLayers:
    def test_dense_matches_float_within_tolerance(self):
        rng = np.random.default_rng(4)
        W = rng.normal(scale=0.2, size=(24, 6))
        b = rng.normal(scale=0.1, size=6)
        x = rng.normal(size=(10, 24)).astype(np.float32)
        wq, scales = quantize_weights(W)
        layer = QuantizedDense(wq, scales, b.astype(np.float32))
        out = layer.forward(x)
        ref = x @ W + b
        assert np.max(np.abs(out - ref)) < 0.05 * np.max(np.abs(ref))

    def test_conv1d_matches_float_within_tolerance(self):
        rng = np.random.default_rng(5)
        layer_f = Conv1D(8, 3)
        layer_f.build((24, 2), rng)
        x = rng.normal(size=(6, 24, 2))
        ref = layer_f.forward(x, training=False)
        wq, scales = quantize_weights(layer_f.W)
        layer_q = QuantizedConv1D(wq, scales,
                                  layer_f.b.astype(np.float32))
        out = layer_q.forward(x)
        assert out.shape == ref.shape
        scale = np.max(np.abs(ref)) or 1.0
        assert np.max(np.abs(out - ref)) < 0.05 * scale

    def test_conv2d_matches_float_within_tolerance(self):
        rng = np.random.default_rng(6)
        layer_f = Conv2D(4, (3, 3))
        layer_f.build((12, 10, 2), rng)
        x = rng.normal(size=(4, 12, 10, 2))
        ref = layer_f.forward(x, training=False)
        wq, scales = quantize_weights(layer_f.W)
        layer_q = QuantizedConv2D(wq, scales,
                                  layer_f.b.astype(np.float32))
        out = layer_q.forward(x)
        assert out.shape == ref.shape
        scale = np.max(np.abs(ref)) or 1.0
        assert np.max(np.abs(out - ref)) < 0.05 * scale

    def test_training_forward_refused(self):
        wq, scales = quantize_weights(np.ones((4, 2)))
        layer = QuantizedDense(wq, scales, np.zeros(2, dtype=np.float32))
        with pytest.raises(RuntimeError, match="inference-only"):
            layer.forward(np.ones((1, 4)), training=True)

    def test_backward_refused(self):
        wq, scales = quantize_weights(np.ones((4, 2)))
        layer = QuantizedDense(wq, scales, np.zeros(2, dtype=np.float32))
        with pytest.raises(RuntimeError, match="no backward"):
            layer.backward(np.ones((1, 2)))


class TestQuantizedModel:
    def test_argmax_agreement_with_float(self):
        model, X, _ = _fitted_model()
        q = quantize_model(model)
        agree = np.mean(q.predict(X) == model.predict(X))
        assert agree >= 0.95

    def test_batched_equals_serial(self):
        model, X, _ = _fitted_model()
        q = quantize_model(model)
        batched = q.predict_proba(X)
        serial = np.concatenate(
            [q.predict_proba(X[i : i + 1]) for i in range(X.shape[0])]
        )
        np.testing.assert_array_equal(batched, serial)

    def test_serialisation_round_trip_is_exact(self):
        model, X, _ = _fitted_model()
        q = quantize_model(model)
        config, weights = quantized_model_to_members(q)
        q2 = quantized_model_from_members(config, weights)
        np.testing.assert_array_equal(q2.predict_proba(X), q.predict_proba(X))

    def test_quantization_summary_covers_every_quant_layer(self):
        model, _, _ = _fitted_model()
        q = quantize_model(model)
        summary = q.quantization_summary()
        n_quant = sum(
            isinstance(layer, (QuantizedDense, QuantizedConv1D,
                               QuantizedConv2D))
            for layer in q.layers
        )
        assert len(summary) == n_quant
        for entry in summary:
            assert entry["scale_min"] > 0
            assert entry["scale_min"] <= entry["scale_mean"] <= entry["scale_max"]

    def test_zero_rows_answer_empty(self):
        model, X, _ = _fitted_model()
        q = quantize_model(model)
        proba = q.predict_proba(X[:0])
        assert proba.shape == (0, 3) and proba.dtype == np.float32
        assert q.predict(X[:0]).shape == (0,)


class TestPolicyKernel:
    def test_float_paths_untouched_by_quant_import(self):
        # importing/using the quant module must not perturb default numerics
        model, X, _ = _fitted_model(seed=7)
        before = model.predict_proba(X)
        quantize_model(model)
        np.testing.assert_array_equal(model.predict_proba(X), before)
