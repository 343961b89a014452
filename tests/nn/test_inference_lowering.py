"""The conv lowering's inference path: bytes, reuse and bounded memory.

A conv layer keeps its lowering set-up (pads, output shape, chunk size,
the zero-bordered views of its pad workspace) for one per-sample input
shape, and re-zeroes the pad borders only when the workspace hands out
a new buffer. These tests pin what that must not change:

- every forward is byte-identical to the frozen whole-batch oracle
  ``tests/nn/_lowering_oracle.py`` at batch sizes 0, 1, odd, exactly one
  chunk and several chunks, with training forwards and backwards
  interleaved on the same layer so its workspaces grow between calls,
  across a change of per-sample shape, and after the layer is copied;
- the int8 activation quantiser matches a frozen copy of its formula,
  and the int8 convolutions match the oracle at the same batch sizes;
- after inference at every batch size from 1 to 64 and then 1 again, a
  layer's workspaces hold no more than the hungriest single call of
  that range needed, and the layer still holds the set-up it built
  first;
- inference pooling keeps no window index, and a backward after it
  gives the same bits as one after a training forward; a model's
  predict leaves no pool holding its input.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.nn.layers import (
    Conv1D,
    Conv2D,
    Dropout,
    MaxPool1D,
    MaxPool2D,
    ReLUDropoutPool,
    _chunk_bounds,
    _chunk_samples,
    _Workspace,
)
from repro.nn.policy import policy_scope
from repro.nn.quant import (
    QMAX,
    QuantizedConv1D,
    QuantizedConv2D,
    quantize_activations,
    quantize_weights,
)

from tests.nn import _lowering_oracle as oracle

#: (kind, filters, kernel, padding, per-sample input shape): same and
#: valid padding, square, non-square and 1x1 kernels. A few samples fill
#: a chunk of the first two; the feature-CNN input needs ~1.8k.
SPECS = [
    ("2d", 32, (3, 3), "same", (16, 16, 32)),
    ("1d", 64, (5,), "valid", (48, 32)),
    ("2d", 8, (3, 5), "valid", (9, 12, 4)),
    ("1d", 64, (3,), "same", (24, 1)),
    ("2d", 16, (1, 1), "same", (6, 5, 8)),
    ("1d", 16, (1,), "valid", (10, 8)),
]
DTYPES = ("float64", "float32")


def _spec_id(spec):
    kind, filters, kernel, padding, shape = spec
    dims = "x".join(map(str, kernel))
    return f"{kind}-{'x'.join(map(str, shape))}-f{filters}-k{dims}-{padding}"


def _layer(spec, dtype):
    kind, filters, kernel, padding, shape = spec
    with policy_scope(compute_dtype=dtype):
        if kind == "2d":
            layer = Conv2D(filters, kernel, padding)
        else:
            layer = Conv1D(filters, kernel[0], padding)
        layer.build(shape, np.random.default_rng(0))
    layer.b[...] = np.random.default_rng(1).normal(size=layer.b.shape)
    return layer


def _quantized(spec):
    layer = _layer(spec, "float32")
    wq, scales = quantize_weights(layer.W, axis=-1)
    qcls = QuantizedConv2D if spec[0] == "2d" else QuantizedConv1D
    return qcls(wq, scales, layer.b.astype(np.float32), padding=spec[3])


def _oracle(spec):
    if spec[0] == "2d":
        return oracle.conv2d_forward, oracle.conv2d_backward
    return oracle.conv1d_forward, oracle.conv1d_backward


def _one_chunk(spec, dtype):
    """The chunk rule's target: a batch of this many samples is one full chunk."""
    kind, filters, kernel, padding, shape = spec
    layer = _layer(spec, dtype)
    rows = int(np.prod(layer.output_shape(shape)[:-1]))
    return _chunk_samples(rows, layer.W.size // filters, filters, np.dtype(dtype).itemsize)


def _schedule(spec, dtype):
    """``(batch size, mode)`` calls on one layer.

    Training forwards keep the whole batch's cols, and a backward after
    an inference forward stages the whole batch in the pad workspace,
    so both grow the workspaces between the inference calls. Each size
    comes both after a larger call and after a smaller one.
    """
    one = _one_chunk(spec, dtype)
    several = 2 * one + 1
    return [
        (1, "infer"), (several, "train"), (5, "infer"), (0, "infer"),
        (one, "infer"), (several, "infer+backward"), (1, "infer"),
        (one, "train"), (several, "infer"), (5, "infer+backward"),
        (0, "infer"), (1, "infer"),
    ]


def _assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def test_schedules_cover_one_chunk_and_several():
    spec, dtype = SPECS[0], "float32"
    one = _one_chunk(spec, dtype)
    layer = _layer(spec, dtype)
    rows, depth = 16 * 16, layer.W.size // layer.filters
    assert one > 1
    assert _chunk_bounds(one, rows, depth, layer.filters, 4) == [0, one]
    assert len(_chunk_bounds(2 * one + 1, rows, depth, layer.filters, 4)) == 3


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_inference_matches_oracle_between_training_calls(spec, dtype):
    layer = _layer(spec, dtype)
    forward, backward = _oracle(spec)
    rng = np.random.default_rng(11)
    for n, mode in _schedule(spec, dtype):
        x = rng.normal(size=(n,) + spec[4]).astype(dtype)
        want, state = forward(x, layer.W, layer.b, spec[3])
        got = layer.forward(x, training=mode == "train")
        _assert_same_bytes(got, want, f"out, n={n}, {mode}")
        if mode != "infer":
            grad = rng.normal(size=want.shape).astype(dtype)
            want_dx, want_dw, want_db = backward(state, grad)
            _assert_same_bytes(layer.backward(grad), want_dx, f"dX, n={n}, {mode}")
            _assert_same_bytes(layer.grads[0], want_dw, f"dW, n={n}, {mode}")
            _assert_same_bytes(layer.grads[1], want_db, f"db, n={n}, {mode}")


@pytest.mark.parametrize(
    "spec,other",
    [
        (("1d", 64, (3,), "same", (24, 1)), (12, 1)),
        (("1d", 64, (5,), "valid", (48, 32)), (30, 32)),
        (("2d", 32, (3, 3), "same", (16, 16, 32)), (8, 12, 32)),
    ],
    ids=lambda v: _spec_id(v) if len(v) == 5 else "x".join(map(str, v)),
)
def test_a_new_input_shape_gets_a_new_setup(spec, other):
    """A per-sample shape change reuses the pad buffer under new borders."""
    layer = _layer(spec, "float64")
    forward = _oracle(spec)[0]
    rng = np.random.default_rng(5)
    for shape, n in ((spec[4], 6), (other, 4), (other, 9), (spec[4], 3)):
        x = rng.normal(size=(n,) + shape)
        want, _ = forward(x, layer.W, layer.b, spec[3])
        _assert_same_bytes(layer.forward(x, training=False), want, f"{shape} x{n}")


def test_a_copied_layer_rebuilds_its_pad_views():
    """A deep copy or pickle of a used layer answers like the oracle.

    Copies of the pad workspace's views are no longer views of the
    copied buffer, so a copy must not reuse them.
    """
    spec = ("2d", 8, (3, 3), "same", (6, 6, 4))
    layer = _layer(spec, "float64")
    rng = np.random.default_rng(2)
    layer.forward(rng.normal(size=(3,) + spec[4]), training=False)
    x = rng.normal(size=(3,) + spec[4])
    want, _ = oracle.conv2d_forward(x, layer.W, layer.b, spec[3])
    for clone in (copy.deepcopy(layer), pickle.loads(pickle.dumps(layer))):
        _assert_same_bytes(clone.forward(x, training=False), want, type(clone).__name__)


def _quantize_reference(x):
    """The activation quantiser's formula, frozen as a fresh-array chain."""
    x = np.asarray(x, dtype=np.float32)
    amax = np.abs(x).reshape(x.shape[0], -1).max(axis=1)
    scale = np.where(amax > 0, amax / QMAX, 1.0).astype(np.float32)
    broadcast = scale.reshape((-1,) + (1,) * (x.ndim - 1))
    return np.clip(np.rint(x / broadcast), -QMAX, QMAX), scale


def test_quantize_activations_matches_the_frozen_formula():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 24, 3)) * np.array([1, 1e-3, 1e3, 0, 1, 7]).reshape(-1, 1, 1)
    x[4, ::5] = -0.0
    x[5, 3, 1] = 1e6  # one outlier sets its row's scale
    before = x.copy()
    xq, scale = quantize_activations(x)
    want_q, want_scale = _quantize_reference(x)
    _assert_same_bytes(xq, want_q, "codes")
    _assert_same_bytes(scale, want_scale, "scales")
    assert x.tobytes() == before.tobytes()  # the input is never written
    x32 = x.astype(np.float32)
    quantize_activations(x32)
    assert x32.tobytes() == before.astype(np.float32).tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_int8_inference_matches_oracle(spec):
    qlayer = _quantized(spec)
    forward = _oracle(spec)[0]
    rng = np.random.default_rng(13)
    for n, _ in _schedule(spec, "float32"):
        x = rng.normal(size=(n,) + spec[4]).astype(np.float32)
        if n:
            xq, a = _quantize_reference(x)
        else:
            xq, a = x, np.ones(0, np.float32)
        raw, _ = forward(xq, qlayer._wf, None, spec[3])
        want = raw * (a.reshape((-1,) + (1,) * (raw.ndim - 1)) * qlayer.scales) + qlayer.bias
        _assert_same_bytes(qlayer.forward(x), want, f"int8 out, n={n}")


def _workspace_bytes(layer):
    return sum(
        ws._buf.nbytes for ws in vars(layer).values()
        if isinstance(ws, _Workspace) and ws._buf is not None
    )


#: Small enough per sample that 64 fresh layers run in well under a
#: second. In float64 a feature-CNN conv on (24, 64) splits at 28
#: samples: 55 rows run as one chunk of 55, 64 rows as two of 32.
BOUNDED = [
    ("1d", 64, (3,), "same", (24, 64)),
    ("2d", 16, (3, 3), "same", (8, 8, 16)),
    ("1d", 32, (5,), "valid", (20, 8)),
]


@pytest.mark.parametrize("variant", ["float64", "float32", "int8"])
@pytest.mark.parametrize("spec", BOUNDED, ids=_spec_id)
def test_inference_workspaces_stay_bounded(spec, variant):
    def make():
        return _quantized(spec) if variant == "int8" else _layer(spec, variant)

    dtype = np.float32 if variant == "int8" else np.dtype(variant)
    X = np.random.default_rng(3).normal(size=(64,) + spec[4]).astype(dtype)
    need = 0
    for n in range(1, 65):
        fresh = make()
        fresh.forward(X[:n], False)
        need = max(need, _workspace_bytes(fresh))
    layer = make()
    layer.forward(X[:1], False)
    plan, names = layer._plan, set(vars(layer))
    for n in list(range(1, 65)) + [1]:
        layer.forward(X[:n], False)
    assert _workspace_bytes(layer) <= need
    assert layer._plan is plan and set(vars(layer)) == names


def _awkward(rng, shape):
    """Rounded normals: exact ties, and +0.0 and -0.0 windows."""
    a = np.round(rng.normal(size=shape), 0)
    a.reshape(-1)[::7] = -0.0
    return a


@pytest.mark.parametrize(
    "make,shape",
    [
        (lambda: MaxPool1D(3), (3, 13, 4)),
        (lambda: MaxPool2D(2), (2, 7, 9, 3)),
        (lambda: MaxPool1D(8), (2, 5, 3)),
        (lambda: ReLUDropoutPool(Dropout(0.0), MaxPool1D(2)), (3, 25, 6)),
        (lambda: ReLUDropoutPool(Dropout(0.0), MaxPool2D(3)), (2, 9, 7, 5)),
    ],
)
def test_inference_pooling_derives_its_index_on_demand(make, shape):
    rng = np.random.default_rng(4)
    x = _awkward(rng, shape)
    trained, inferred = make(), make()
    out = trained.forward(x, True)
    _assert_same_bytes(inferred.forward(x, False), out, "pooled")
    assert inferred._idx is None
    grad = _awkward(rng, out.shape)
    _assert_same_bytes(inferred.backward(grad), trained.backward(grad), "dX")


def test_model_inference_keeps_no_pool_input():
    """predict never backpropagates: no pool keeps its (large) input after it."""
    from repro.attack.models import build_spectrogram_cnn
    from repro.nn.quant import quantize_model

    model = build_spectrogram_cnn(3, width_scale=0.25, seed=0)
    model.fit(np.random.default_rng(0).random((6, 16, 16, 1)), np.arange(6) % 3, epochs=1)
    X = np.random.default_rng(1).random((5, 16, 16, 1))
    for container, units in (
        (model, [unit for _, unit in model._plan]),
        (qmodel := quantize_model(model), qmodel.layers),
    ):
        container.predict(X)
        pools = [u for u in units if isinstance(u, (MaxPool1D, MaxPool2D, ReLUDropoutPool))]
        assert pools and all(u._x is None for u in pools)
