"""The streamed GEMM conv lowering against the frozen whole-batch oracle.

``repro.nn.layers`` gathers im2col rows, runs the GEMMs and scatters dX
per cache-sized chunk of samples, and forms dW as ``(gᵀ @ cols)ᵀ``. The
outputs and gradients must be byte-identical to the whole-batch lowering
kept in ``tests/nn/_lowering_oracle.py``, for every conv shape of both
paper CNNs, float64 and float32, batches that the chunk rule splits and
batches it does not. An inference forward must keep only chunk-sized
workspaces.
"""

import numpy as np
import pytest

from repro.attack.models import build_feature_cnn, build_spectrogram_cnn
from repro.nn.layers import (
    _CHUNK_COLS_BYTES,
    Conv1D,
    Conv2D,
    _chunk_bounds,
    _Workspace,
)
from repro.nn.policy import policy_scope
from repro.nn.quant import (
    QuantizedConv1D,
    QuantizedConv2D,
    quantize_activations,
    quantize_weights,
)

from tests.nn import _lowering_oracle as oracle

WIDTHS = (0.25, 0.5, 1.0)
BATCHES = (32, 16, 7, 1)
DTYPES = ("float64", "float32")


def _conv_specs(model, input_shape):
    """``(kind, filters, kernel, padding, per-sample input shape)`` per conv."""
    specs, shape = [], tuple(input_shape)
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            specs.append(("2d", layer.filters, (layer.kh, layer.kw), layer.padding, shape))
        elif isinstance(layer, Conv1D):
            specs.append(("1d", layer.filters, (layer.k,), layer.padding, shape))
        shape = layer.output_shape(shape)
    return specs


def _paper_specs():
    specs = set()
    for width in WIDTHS:
        specs.update(_conv_specs(build_spectrogram_cnn(7, width_scale=width), (32, 32, 1)))
        specs.update(_conv_specs(build_feature_cnn(7, width_scale=width), (24, 1)))
    return sorted(specs, key=repr)


#: Off-model shapes: "valid" padding and a non-square 3x5 kernel, both
#: large enough per sample that a batch of 32 is split into chunks.
EXTRA_SPECS = [
    ("2d", 32, (3, 3), "valid", (16, 16, 32)),
    ("2d", 32, (3, 5), "same", (16, 16, 16)),
    ("2d", 16, (3, 5), "valid", (9, 12, 8)),
    ("1d", 64, (5,), "valid", (48, 32)),
]
SPECS = _paper_specs() + EXTRA_SPECS


def _spec_id(spec):
    kind, filters, kernel, padding, shape = spec
    dims = "x".join(map(str, kernel))
    return f"{kind}-{'x'.join(map(str, shape))}-f{filters}-k{dims}-{padding}"


def _layer(spec, dtype, seed=0):
    kind, filters, kernel, padding, shape = spec
    with policy_scope(compute_dtype=dtype):
        if kind == "2d":
            layer = Conv2D(filters, kernel, padding)
        else:
            layer = Conv1D(filters, kernel[0], padding)
        layer.build(shape, np.random.default_rng(seed))
    layer.b[...] = np.random.default_rng(seed + 1).normal(size=layer.b.shape)
    return layer


def _oracle(spec):
    return (oracle.conv2d_forward, oracle.conv2d_backward) if spec[0] == "2d" else (
        oracle.conv1d_forward, oracle.conv1d_backward)


def _assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: max |diff| {np.max(np.abs(got - want))}"


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_gemm_lowering_matches_oracle_bytes(spec, n, dtype):
    layer = _layer(spec, dtype)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n,) + spec[4]).astype(dtype)
    forward, backward = _oracle(spec)
    want_out, state = forward(x, layer.W, layer.b, spec[3])
    grad = rng.normal(size=want_out.shape).astype(dtype)
    want_dx, want_dw, want_db = backward(state, grad)
    # A training forward keeps the whole batch's cols; an inference
    # forward keeps only its input, and backward rebuilds the cols.
    for training in (True, False):
        out = layer.forward(x, training=training)
        _assert_same_bytes(out, want_out, f"out (training={training})")
        dx = layer.backward(grad)
        _assert_same_bytes(dx, want_dx, f"dX (training={training})")
        _assert_same_bytes(layer.grads[0], want_dw, f"dW (training={training})")
        _assert_same_bytes(layer.grads[1], want_db, f"db (training={training})")


@pytest.mark.parametrize("n", (32, 7))
@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_int8_forward_matches_oracle_bytes(spec, n):
    layer = _layer(spec, "float32")
    wq, scales = quantize_weights(layer.W, axis=-1)
    bias = layer.b.astype(np.float32)
    qcls = QuantizedConv2D if spec[0] == "2d" else QuantizedConv1D
    qlayer = qcls(wq, scales, bias, padding=spec[3])
    x = np.random.default_rng(n).normal(size=(n,) + spec[4]).astype(np.float32)
    xq, a = quantize_activations(x)
    raw, _ = _oracle(spec)[0](xq, qlayer._wf, None, spec[3])
    want = raw * (a.reshape((-1,) + (1,) * (raw.ndim - 1)) * scales) + bias
    _assert_same_bytes(qlayer.forward(x), want, "int8 out")


def _n_chunks(spec, n, dtype):
    kind, filters, kernel, padding, shape = spec
    layer = _layer(spec, dtype)
    rows = int(np.prod(layer.output_shape(shape)[:-1]))
    depth = layer.W.size // filters
    return len(_chunk_bounds(n, rows, depth, filters, np.dtype(dtype).itemsize)) - 1


def test_cases_cover_split_and_whole_batches():
    """The parity cases include batches the chunk rule splits and ones it keeps whole."""
    spectro_3x3 = ("2d", 32, (3, 3), "same", (16, 16, 32))  # width 0.25
    feature_first = ("1d", 64, (3,), "same", (24, 1))  # width 0.25
    assert spectro_3x3 in SPECS and feature_first in SPECS
    assert _n_chunks(spectro_3x3, 32, "float64") > 1
    assert _n_chunks(spectro_3x3, 7, "float32") > 1
    assert _n_chunks(feature_first, 32, "float64") == 1
    assert _n_chunks(spectro_3x3, 1, "float64") == 1


def test_chunk_bounds_are_even_and_respect_the_floor():
    # 147 KiB of float64 cols per sample: 7 fit the target, so 32 samples
    # split into 4 chunks, evenly.
    assert _chunk_bounds(32, 64, 288, 16, 8) == [0, 8, 16, 24, 32]
    assert np.diff(_chunk_bounds(30, 64, 288, 16, 8)).tolist() == [7, 8, 7, 8]
    # One filter: the multiply-add floor, not the byte target, sets the size.
    bounds = _chunk_bounds(4000, 64, 9, 1, 8)
    assert bounds == [0, 2000, 4000]
    assert min(np.diff(bounds)) * 64 * 9 >= 1 << 20
    assert _chunk_bounds(5, 64, 9, 1, 8) == [0, 5]


def _retained_workspace_bytes(layer):
    return sum(
        ws._buf.nbytes for ws in vars(layer).values()
        if isinstance(ws, _Workspace) and ws._buf is not None
    )


@pytest.mark.parametrize(
    "builder,shape,width",
    [
        (build_spectrogram_cnn, (32, 32, 1), 0.25),
        (build_spectrogram_cnn, (32, 32, 1), 1.0),
        (build_feature_cnn, (24, 1), 0.5),
    ],
)
def test_predict_keeps_only_chunk_sized_workspaces(builder, shape, width):
    """Inference must not leave a whole-batch im2col matrix behind.

    A chunk is at most twice its target size (the batch splits evenly),
    and a chunk's padded input is smaller than its cols, so each conv
    layer keeps under four times ``max(target, one sample's cols)``.
    """
    model = builder(7, width_scale=width, seed=0)
    model.build(shape)
    X = np.random.default_rng(0).random((256,) + shape) - 0.5
    model.predict(X)
    in_shape = shape
    for layer in model.layers:
        if isinstance(layer, (Conv1D, Conv2D)):
            out_rows = int(np.prod(layer.output_shape(in_shape)[:-1]))
            sample_cols = out_rows * (layer.W.size // layer.filters) * layer.W.itemsize
            budget = 4 * max(_CHUNK_COLS_BYTES, sample_cols)
            retained = _retained_workspace_bytes(layer)
            assert retained <= budget, (
                f"{type(layer).__name__} on {in_shape} keeps {retained / 2**20:.1f} MiB "
                f"of workspace after predict (budget {budget / 2**20:.1f} MiB)"
            )
        in_shape = layer.output_shape(in_shape)
