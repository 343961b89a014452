"""The fused ``ReLU -> Dropout -> MaxPool`` unit against the three-layer stack.

``Sequential`` runs every such run of layers as one
:class:`~repro.nn.layers.ReLUDropoutPool`. These tests pin it byte for
byte to the stack it replaces: forward output and input gradient
(compared with ``tobytes()``, dtypes matched) over several batches, with
ties, signed zeros, cropped odd sizes and degenerate pools, and the
Dropout RNG stream left in the same state, so the fused unit draws
exactly what the Dropout layer would have.
"""

import numpy as np
import pytest

from repro.attack.models import build_feature_cnn, build_spectrogram_cnn
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    ReLUDropoutPool,
    execution_plan,
)
from repro.nn.model import Sequential

#: (input shape, pool class, pool size): cropped odd sizes, pools 2/3/8,
#: and degenerate pools larger than the input along some axis.
SHAPES = [
    ((3, 9, 7, 5), MaxPool2D, 2),
    ((3, 9, 7, 5), MaxPool2D, 3),
    ((2, 17, 16, 3), MaxPool2D, 8),
    ((2, 5, 6, 2), MaxPool2D, 8),
    ((2, 3, 10, 2), MaxPool2D, 4),
    ((3, 25, 6), MaxPool1D, 2),
    ((3, 13, 4), MaxPool1D, 3),
    ((3, 25, 6), MaxPool1D, 8),
    ((3, 5, 4), MaxPool1D, 8),
]
BATCHES = 3


def _awkward(rng, shape, dtype):
    """Normal draws with injected +0.0, -0.0 and exact ties."""
    a = rng.normal(size=shape).astype(dtype)
    flat = a.reshape(-1)
    picks = rng.permutation(flat.size)[: flat.size // 4]
    third = len(picks) // 3
    flat[picks[:third]] = 0.0
    flat[picks[third : 2 * third]] = -0.0
    flat[picks[2 * third :]] = np.round(flat[picks[2 * third :]], 1)
    return a


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rate", [0.0, 0.2, 0.25])
@pytest.mark.parametrize("shape,pool_cls,p", SHAPES)
def test_fused_matches_stack(dtype, rate, shape, pool_cls, p):
    rng = np.random.default_rng(17)
    stack = [ReLU(), Dropout(rate, seed=5), pool_cls(p)]
    fused_dropout = Dropout(rate, seed=5)
    fused = ReLUDropoutPool(fused_dropout, pool_cls(p))
    for batch in range(BATCHES):
        training = batch != 1  # one inference batch in the middle
        x = _awkward(rng, shape, dtype)
        want = x
        for layer in stack:
            want = layer.forward(want, training)
        got = fused.forward(x.copy(), training)
        _assert_same(got, want)

        grad = _awkward(rng, want.shape, dtype)
        want_dx = grad
        for layer in reversed(stack):
            want_dx = layer.backward(want_dx)
        _assert_same(fused.backward(grad.copy()), want_dx)
    assert (
        fused_dropout._rng.bit_generator.state
        == stack[1]._rng.bit_generator.state
    )


def _argmax_pool_oracle(x, p):
    """Pooled values and each window's winner position, one window at a time.

    Each window's elements are scanned in row-major order and a later
    element wins only if it is strictly greater: numpy's argmax rule.
    """
    outs = tuple(d // p for d in x.shape[1:-1])
    pooled = np.empty((x.shape[0],) + outs + (x.shape[-1],), dtype=x.dtype)
    winner = {}
    for cell in np.ndindex(pooled.shape):
        n, out, c = cell[0], cell[1:-1], cell[-1]
        best = None
        for offset in np.ndindex((p,) * len(out)):
            at = (n,) + tuple(o * p + d for o, d in zip(out, offset)) + (c,)
            if best is None or x[at] > x[best]:
                best = at
        pooled[cell] = x[best]
        winner[cell] = best
    return pooled, winner


@pytest.mark.parametrize(
    "shape,pool_cls,p",
    [((4, 27, 5), MaxPool1D, 2), ((4, 27, 5), MaxPool1D, 3), ((4, 27, 5), MaxPool1D, 8),
     ((3, 9, 7, 4), MaxPool2D, 2), ((3, 9, 7, 4), MaxPool2D, 3)],
)
def test_pool_is_first_occurrence_argmax(shape, pool_cls, p):
    """The standalone pool against an argmax oracle, bit for bit.

    Rounded inputs give exact ties and mixed +0.0/-0.0 windows: the
    first occurrence wins and keeps its bits. Backward writes the
    gradient's exact bits (-0.0 included) at the winner and +0.0
    everywhere else.
    """
    rng = np.random.default_rng(3)
    x = np.round(rng.normal(size=shape), 0)
    layer = pool_cls(p)
    pooled, winner = _argmax_pool_oracle(x, p)
    _assert_same(layer.forward(x, training=True), pooled)
    grad = _awkward(rng, pooled.shape, np.float64)
    want = np.zeros_like(x)
    for cell, at in winner.items():
        want[at] = grad[cell]
    _assert_same(layer.backward(grad), want)


def test_execution_plan_fuses_the_paper_cnn_tails():
    spectrogram = [name for name, _ in execution_plan(build_spectrogram_cnn(7).layers)]
    assert spectrogram[:3] == [
        "0:Conv2D", "1-3:ReLU+Dropout+MaxPool2D", "4:Conv2D",
    ]
    assert "9-11:ReLU+Dropout+MaxPool2D" in spectrogram
    # The dense head's ReLU -> Dropout has no pool and stays unfused.
    assert spectrogram[-3:] == ["16:ReLU", "17:Dropout", "18:Dense"]
    feature = [name for name, _ in execution_plan(build_feature_cnn(7).layers)]
    assert "3-5:ReLU+Dropout+MaxPool1D" in feature
    assert "8-10:ReLU+Dropout+MaxPool1D" in feature
    assert "7:BatchNorm" in feature


def test_sequential_fit_matches_unfused_stack():
    """A fit through the plan equals a fit that walks the bare layer list."""

    def model():
        return Sequential(
            [Conv2D(4, 3), ReLU(), Dropout(0.25, seed=1), MaxPool2D(2),
             Flatten(), Dense(3)],
            n_classes=3,
            seed=0,
        )

    rng = np.random.default_rng(0)
    X = rng.normal(size=(24, 9, 9, 1))
    y = np.arange(24) % 3
    fused = model()
    unfused = model()
    unfused.build(X.shape[1:])
    unfused._plan = [(str(i), layer) for i, layer in enumerate(unfused.layers)]
    a = fused.fit(X, y, epochs=2, batch_size=8)
    b = unfused.fit(X, y, epochs=2, batch_size=8)
    assert a.loss == b.loss
    for pa, pb in zip(fused._params_grads()[0], unfused._params_grads()[0]):
        assert pa.tobytes() == pb.tobytes()
