"""Layers: dense, conv, pooling, normalisation, dropout.

Conventions
-----------
- Channels-last layouts: Conv2D works on ``(N, H, W, C)``, Conv1D on
  ``(N, L, C)``, Dense on ``(N, D)``.
- ``forward(x, training)`` caches what ``backward(grad)`` needs;
  ``backward`` returns dLoss/dInput and fills ``self.grads`` parallel to
  ``self.params``.
- Convolutions use "same" zero padding (as the paper's feature CNN
  states) or "valid".
- Parameters are allocated in the :mod:`repro.nn.policy` compute dtype
  at ``build`` time.

Each convolution is lowered to matrix multiplies streamed through
cache-sized chunks of samples (:func:`_chunk_bounds`). The
forward copies a chunk into a zero-bordered pad workspace, gathers its
receptive fields through one strided window view into the im2col
workspace, and runs ``cols @ W2d`` into that chunk's output rows; a
training forward keeps the whole batch's cols for dW, an inference
forward only one chunk's. The backward forms dW as one GEMM,
``(gradᵀ @ cols)ᵀ``, and dX per chunk: ``grad @ W2dᵀ`` into a
chunk-sized workspace, then one scatter-add per kernel offset, clipped
to the unpadded input. Outputs and gradients are bit-identical to the
whole-batch lowering (``tests/nn/test_lowering.py``), given the two
BLAS identities ``tests/nn/test_blas_guard.py`` checks. 1x1
convolutions skip the gather entirely. The original kernel-offset
summation survives only as the test oracle
``tests/nn/_kernel_offset_oracle.py``, which pins this lowering's
outputs and gradients at ``rtol=1e-10``.

The set-up of that lowering depends only on the per-sample input shape,
so each layer keeps it in a :class:`_ConvPlan` until that shape
changes: the pads, output shape, chunk size and col2im spans, and the
views of the pad workspace. The pad borders are zeroed when the
workspace hands out a new buffer, not per call. A small inference batch
(the serving path, which quantised layers share) then pays for its two
copies (input into the pad interior, fields into the cols) and its
GEMM, and little else. Every buffer stays in the layer's grow-only
workspaces; the plan holds views only and no state per batch size.

Max pooling sweeps the pool-window offsets as strided views in row-major
order, keeping the running max and a compact (uint8 when it fits)
first-occurrence window index; backward scatters the gradient's bit
patterns into the winning offsets. :class:`~repro.nn.model.Sequential`
runs each ``ReLU -> Dropout -> MaxPool`` run of layers as one
:class:`ReLUDropoutPool` unit (see :func:`execution_plan`), which keeps
only the pooled output and that index for backward. At inference both
pools compute the pooled values only, by the same ``np.maximum`` chain,
and keep a reference to their input instead of the index; a backward
after an inference forward derives the index from that input, as a conv
rebuilds its cols. The model containers' predict and evaluate never
backpropagate, so they drop that reference as soon as the pool has
answered (:func:`_release_input`): a pool's input is often the largest
activation of the pass.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.activations import relu
from repro.nn.initializers import he_normal
from repro.nn.policy import get_policy

__all__ = [
    "Layer",
    "Dense",
    "Conv1D",
    "Conv2D",
    "MaxPool1D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "ReLU",
    "ReLUDropoutPool",
    "execution_plan",
]


class _Workspace:
    """A grow-only scratch buffer reused across batches.

    ``get(shape, dtype)`` returns a C-contiguous array of that shape
    backed by one flat allocation that only grows (or is replaced on a
    dtype change), so steady-state training performs zero scratch
    allocations per batch.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf: Optional[np.ndarray] = None

    def reserve(self, size: int, dtype) -> np.ndarray:
        """The flat buffer, holding at least ``size`` elements of ``dtype``."""
        if self._buf is None or self._buf.size < size or self._buf.dtype != dtype:
            self._buf = np.empty(max(size, 1), dtype=dtype)
        return self._buf

    def get(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        return self.reserve(size, dtype)[:size].reshape(shape)


class Layer:
    """Base layer: parameter/gradient registry plus the fwd/bwd API."""

    def __init__(self):
        self.params: List[np.ndarray] = []
        self.grads: List[np.ndarray] = []
        self.built = False

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters once the input shape (sans batch) is known."""
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given the per-sample input shape."""
        return input_shape

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ReLU(Layer):
    """Elementwise rectifier."""

    def forward(self, x, training):
        self._x = x
        return relu(x)

    def backward(self, grad):
        return np.multiply(grad, self._x > 0)


class Flatten(Layer):
    """Collapse all per-sample axes into one."""

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x, training):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Dense(Layer):
    """Fully connected layer."""

    def __init__(self, units: int):
        super().__init__()
        if units < 1:
            raise ValueError("units must be >= 1")
        self.units = int(units)

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat input, got shape {input_shape}")
        d = input_shape[0]
        dtype = get_policy().compute_dtype
        self.W = he_normal((d, self.units), fan_in=d, rng=rng).astype(dtype)
        self.b = np.zeros(self.units, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape):
        return (self.units,)

    def forward(self, x, training):
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad):
        self.grads[0][...] = self._x.T @ grad
        self.grads[1][...] = grad.sum(axis=0)
        return grad @ self.W.T


class Dropout(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float, seed: int = 0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def _draws(self, x, training, workspace: Optional[_Workspace] = None):
        """This batch's uniform draws, or None when dropout is inactive.

        Draws happen in the activation dtype: float64 inputs keep the
        original stream; float32 inputs get native float32 draws (half
        the bandwidth, no astype) at the cost of a policy-specific mask.
        A unit is kept where its draw is below ``1 - rate``. With a
        ``workspace`` the draws land in its reused buffer.
        """
        if not training or self.rate == 0.0:
            return None
        dtype = np.float32 if x.dtype == np.float32 else np.float64
        out = None if workspace is None else workspace.get(x.shape, dtype)
        return self._rng.random(x.shape, dtype=dtype, out=out)

    def _inv_keep(self, dtype):
        """The kept units' scale ``1/keep``, rounded in ``dtype``."""
        return dtype.type(1) / dtype.type(1.0 - self.rate)

    def forward(self, x, training):
        draws = self._draws(x, training)
        self._kept = None if draws is None else draws < 1.0 - self.rate
        self._scale = self._inv_keep(x.dtype)
        return self._apply(x)

    def backward(self, grad):
        return self._apply(grad)

    def _apply(self, a):
        if self._kept is None:
            return a
        out = np.multiply(a, self._kept)
        out *= self._scale
        return out


class BatchNorm(Layer):
    """Batch normalisation over the channel (last) axis."""

    def __init__(self, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.momentum = float(momentum)
        self.eps = float(eps)

    def build(self, input_shape, rng):
        channels = input_shape[-1]
        dtype = get_policy().compute_dtype
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.params = [self.gamma, self.beta]
        self.grads = [np.zeros_like(self.gamma), np.zeros_like(self.beta)]
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.built = True

    def forward(self, x, training):
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        self._x_hat = (x - mean) / np.sqrt(var + self.eps)
        self._var = var
        self._axes = axes
        self._m = math.prod(x.shape[:-1])
        return self.gamma * self._x_hat + self.beta

    def backward(self, grad):
        axes = self._axes
        self.grads[0][...] = np.sum(grad * self._x_hat, axis=axes)
        self.grads[1][...] = np.sum(grad, axis=axes)
        m = self._m
        inv_std = 1.0 / np.sqrt(self._var + self.eps)
        g = grad * self.gamma
        return (
            inv_std
            / m
            * (
                m * g
                - np.sum(g, axis=axes)
                - self._x_hat * np.sum(g * self._x_hat, axis=axes)
            )
        )


def _pad_amounts(size: int, kernel: int, padding: str) -> Tuple[int, int]:
    if padding == "valid":
        return 0, 0
    if padding == "same":
        total = max(kernel - 1, 0)
        return total // 2, total - total // 2
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


#: A chunk's im2col rows take about this many bytes (half a 2 MiB L2).
_CHUNK_COLS_BYTES = 1 << 20
#: Every chunk GEMM does at least this many multiply-adds. Smaller GEMMs
#: may take OpenBLAS's small-matrix path, whose rounding can differ from
#: the whole-batch GEMM's; at or above it the row split is bit-exact.
_CHUNK_MIN_MACS = 1 << 20


def _chunk_samples(rows: int, depth: int, filters: int, itemsize: int) -> int:
    """Samples per chunk: about ``_CHUNK_COLS_BYTES`` of cols, and at
    least ``_CHUNK_MIN_MACS`` multiply-adds against ``filters`` outputs,
    for samples of ``rows`` im2col rows of ``depth`` columns."""
    fit = _CHUNK_COLS_BYTES // (rows * depth * itemsize)
    floor = -(-_CHUNK_MIN_MACS // (rows * depth * filters))
    return max(1, fit, floor)


def _split(n: int, per_chunk: int) -> List[int]:
    """``[0, ..., n]`` cut into ``n // per_chunk`` (at least one) even parts."""
    k = max(1, n // per_chunk)
    return [n * i // k for i in range(k + 1)]


def _chunk_bounds(n: int, rows: int, depth: int, filters: int, itemsize: int) -> List[int]:
    """Sample bounds ``[0, ..., n]`` of the lowering's chunks.

    A chunk holds :func:`_chunk_samples` samples or more: the batch
    splits evenly, so no chunk is smaller than that; a batch that fits
    runs as one chunk.
    """
    return _split(n, _chunk_samples(rows, depth, filters, itemsize))


class _ConvPlan:
    """A convolution's lowering set-up for one per-sample input shape.

    The pads, output shape, chunk size and col2im scatter spans depend
    only on the input's per-sample shape and dtype (:attr:`key`), so a
    layer builds them once and keeps them until that changes; a call
    then pays only for its copies and GEMMs. The plan holds no buffer:
    for a padded input it keeps views of the layer's pad workspace, and
    it zeroes the border strips and rebuilds those views only when the
    workspace hands out a new buffer. It zeroes every sample the buffer
    holds, and chunks write only the interior, so the borders stay zero
    for every later batch size.
    """

    def __init__(self, x: np.ndarray, ksize, padding: str, filters: int):
        self.key = (x.shape[1:], x.dtype)
        spatial, c = x.shape[1:-1], x.shape[-1]
        self.ksize = tuple(ksize)
        self.spatial = spatial
        self.pads = tuple(_pad_amounts(s, k, padding) for s, k in zip(spatial, ksize))
        padded = tuple(s + p0 + p1 for s, (p0, p1) in zip(spatial, self.pads))
        self.pad_shape = padded + (c,)
        self.pad_size = math.prod(self.pad_shape)
        self.interior = (slice(None),) + tuple(
            slice(p0, p0 + s) for s, (p0, _) in zip(spatial, self.pads)
        )
        self.out_sp = tuple(s - k + 1 for s, k in zip(padded, ksize))
        self.field = self.out_sp + self.ksize + (c,)
        self.rows = math.prod(self.out_sp)
        depth = math.prod(ksize) * c
        self.per_chunk = _chunk_samples(self.rows, depth, filters, x.itemsize)
        self._staged = None  # (pad buffer, its interior view, its fields view)

    def __getstate__(self):
        # A copy of a view is no view: a copied plan re-derives its pad
        # views (and re-zeroes the borders) on first use.
        return dict(vars(self), _staged=None)

    @functools.cached_property
    def scatter(self):
        """Per kernel offset: the (dcols slice, dx slice) col2im adds."""
        spans = []
        for offset in np.ndindex(*self.ksize):
            src, dst = [slice(None)], [slice(None)]
            for o, (p0, _), size, length in zip(offset, self.pads, self.spatial, self.out_sp):
                lo, hi = max(0, p0 - o), min(length, size + p0 - o)
                src.append(slice(lo, hi))
                dst.append(slice(lo + o - p0, hi + o - p0))
            spans.append((tuple(src) + offset, tuple(dst)))
        return spans

    def _windows_of(self, src: np.ndarray) -> np.ndarray:
        step = src.strides[1:-1]
        return as_strided(
            src,
            src.shape[:1] + self.field,
            src.strides[:1] + step + step + src.strides[-1:],
            writeable=False,
        )

    def fields(self, x: np.ndarray, pad_ws: _Workspace, chunk: int):
        """``fields(a, b)``: the receptive fields of samples ``x[a:b]``.

        Each result is a strided ``(b - a, *out, *ksize, c)`` view. A
        padded ``x`` goes through ``pad_ws``, sized for ``chunk``
        samples; each chunk copies in only its interior.
        """
        if self.pad_shape == x.shape[1:]:
            windows = self._windows_of(x)
            return lambda a, b: windows[a:b]
        buf = pad_ws.reserve(chunk * self.pad_size, x.dtype)
        if self._staged is None or self._staged[0] is not buf:
            cap = buf.size // self.pad_size
            src = buf[: cap * self.pad_size].reshape((cap,) + self.pad_shape)
            for axis, (p0, p1) in enumerate(self.pads, 1):
                edge = [slice(None)] * src.ndim
                for strip in (slice(0, p0), slice(src.shape[axis] - p1, None)):
                    edge[axis] = strip
                    src[tuple(edge)] = 0
            self._staged = (buf, src[self.interior], self._windows_of(src))
        _, interior, windows = self._staged

        def fields(a, b):
            np.copyto(interior[: b - a], x[a:b])
            return windows[: b - a]

        return fields


def _conv_plan(plan: Optional[_ConvPlan], x: np.ndarray, ksize, padding: str, filters: int):
    """``plan`` if it was built for ``x``'s per-sample shape and dtype, else a new one."""
    if plan is not None and plan.key == (x.shape[1:], x.dtype):
        return plan
    return _ConvPlan(x, ksize, padding, filters)


def _conv_forward(x, w2d, plan, cols_ws, pad_ws, keep_cols=False, bias=None):
    """``x`` ``(n, *spatial, c)`` convolved with ``w2d`` ``(prod(ksize)*c, f)``.

    ``plan`` is the :class:`_ConvPlan` of ``x``'s per-sample shape and
    dtype. Each chunk of samples gathers its receptive fields and runs its GEMM
    into its rows of the output. Returns ``(out, cols)``: with
    ``keep_cols`` the whole batch's im2col matrix lands in ``cols_ws``
    (backward's dW needs it); otherwise ``cols_ws`` holds one chunk and
    ``cols`` is None.
    """
    n, rows = x.shape[0], plan.rows
    depth, f = w2d.shape
    bounds = _split(n, plan.per_chunk)
    chunk = -(-n // (len(bounds) - 1))  # the largest part of an even split
    fields = plan.fields(x, pad_ws, chunk)
    out = np.empty((n * rows, f), dtype=np.result_type(x, w2d))
    cols = cols_ws.get(((n if keep_cols else chunk) * rows, depth), x.dtype)
    for a, b in zip(bounds, bounds[1:]):
        part = cols[a * rows : b * rows] if keep_cols else cols[: (b - a) * rows]
        np.copyto(part.reshape((b - a,) + plan.field), fields(a, b))
        np.matmul(part, w2d, out=out[a * rows : b * rows])
    if bias is not None:
        out += bias
    return out.reshape((n,) + plan.out_sp + (f,)), (cols if keep_cols else None)


def _col2im(g2, w2d, plan, dx, dcols_ws) -> None:
    """Add the input gradient of ``g2`` ``(n*rows, f)`` into zeroed ``dx``.

    Per chunk of samples, ``g2 @ w2dᵀ`` fills a chunk-sized dcols and the
    kernel offsets scatter-add it, in row-major order and clipped to the
    unpadded input, straight into ``dx``.
    """
    rows, depth = plan.rows, w2d.shape[0]
    bounds = _split(dx.shape[0], plan.per_chunk)
    for a, b in zip(bounds, bounds[1:]):
        dcols = dcols_ws.get(((b - a) * rows, depth), dx.dtype)
        np.matmul(g2[a * rows : b * rows], w2d.T, out=dcols)
        dcols = dcols.reshape((b - a,) + plan.field)
        dx_chunk = dx[a:b]
        for src, dst in plan.scatter:
            dx_chunk[dst] += dcols[src]


class _ConvBase(Layer):
    """The GEMM lowering shared by the convolution layers."""

    def __init__(self):
        super().__init__()
        self._cols_ws = _Workspace()
        self._dcols_ws = _Workspace()
        self._pad_ws = _Workspace()
        self._plan: Optional[_ConvPlan] = None

    def forward(self, x, training):
        ksize, f = self.W.shape[:-2], self.filters
        self._x = x
        if ksize == (1,) * len(ksize):
            # Pointwise: the pixels already are the im2col rows.
            self._x2 = x.reshape(-1, x.shape[-1])
            out = self._x2 @ self.W.reshape(-1, f)
            out += self.b
            return out.reshape(x.shape[:-1] + (f,))
        self._plan = _conv_plan(self._plan, x, ksize, self.padding, f)
        out, self._cols = _conv_forward(
            x, self.W.reshape(-1, f), self._plan,
            self._cols_ws, self._pad_ws, keep_cols=training, bias=self.b,
        )
        return out

    def backward(self, grad):
        ksize, f = self.W.shape[:-2], self.filters
        x = self._x
        spatial_axes = tuple(range(grad.ndim - 1))
        if ksize == (1,) * len(ksize):
            g2 = grad.reshape(-1, f)
            self.grads[0][...] = (self._x2.T @ g2).reshape(self.W.shape)
            self.grads[1][...] = g2.sum(axis=0)
            return (g2 @ self.W.reshape(-1, f).T).reshape(x.shape)
        cols = self._cols
        if cols is None:  # an inference forward kept only its input
            cols = self._cols_ws.get((grad.size // f, self.W.size // f), x.dtype)
            fields = self._plan.fields(x, self._pad_ws, len(x))(0, len(x))
            np.copyto(cols.reshape(fields.shape), fields)
        g2 = grad.reshape(-1, f)
        # One GEMM in the orientation OpenBLAS runs faster; the bits equal
        # cols.T @ g2's (tests/nn/test_blas_guard.py).
        self.grads[0][...] = (g2.T @ cols).T.reshape(self.W.shape)
        self.grads[1][...] = grad.sum(axis=spatial_axes)
        dx = np.zeros(x.shape, dtype=cols.dtype)
        _col2im(g2, self.W.reshape(-1, f), self._plan, dx, self._dcols_ws)
        return dx


class Conv2D(_ConvBase):
    """2-D convolution (stride 1, channels-last).

    Lowered to im2col plus GEMMs streamed through sample chunks (see the
    module docstring).
    """

    def __init__(self, filters: int, kernel_size, padding: str = "same"):
        super().__init__()
        if filters < 1:
            raise ValueError("filters must be >= 1")
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.filters = int(filters)
        self.kh, self.kw = int(kernel_size[0]), int(kernel_size[1])
        if self.kh < 1 or self.kw < 1:
            raise ValueError("kernel dims must be >= 1")
        self.padding = padding

    def build(self, input_shape, rng):
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (H, W, C) input, got {input_shape}")
        c_in = input_shape[2]
        fan_in = self.kh * self.kw * c_in
        dtype = get_policy().compute_dtype
        self.W = he_normal((self.kh, self.kw, c_in, self.filters), fan_in, rng)
        self.W = self.W.astype(dtype)
        self.b = np.zeros(self.filters, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape):
        h, w, _ = input_shape
        if self.padding == "same":
            return (h, w, self.filters)
        return (h - self.kh + 1, w - self.kw + 1, self.filters)


class Conv1D(_ConvBase):
    """1-D convolution (stride 1, channels-last), lowered as :class:`Conv2D`."""

    def __init__(self, filters: int, kernel_size: int, padding: str = "same"):
        super().__init__()
        if filters < 1 or kernel_size < 1:
            raise ValueError("filters and kernel_size must be >= 1")
        self.filters = int(filters)
        self.k = int(kernel_size)
        self.padding = padding

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(f"Conv1D expects (L, C) input, got {input_shape}")
        c_in = input_shape[1]
        fan_in = self.k * c_in
        dtype = get_policy().compute_dtype
        self.W = he_normal((self.k, c_in, self.filters), fan_in, rng).astype(dtype)
        self.b = np.zeros(self.filters, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape):
        length, _ = input_shape
        if self.padding == "same":
            return (length, self.filters)
        return (length - self.k + 1, self.filters)


def _pool_windows(a: np.ndarray, p: int) -> List[np.ndarray]:
    """One strided view of ``a`` per pool-window offset, in row-major order.

    ``a`` is ``(N, L, C)`` or ``(N, H, W, C)``; every view has the pooled
    shape (trailing remainder cropped). A pool larger than the input
    (along any axis) covers the whole spatial extent instead.
    """
    n, c = a.shape[0], a.shape[-1]
    spatial = a.shape[1:-1]
    if min(spatial) < p:
        flat = a.reshape(n, -1, c)
        unit = (n,) + (1,) * len(spatial) + (c,)
        return [flat[:, k : k + 1, :].reshape(unit) for k in range(flat.shape[1])]
    if len(spatial) == 1:
        stop = spatial[0] // p * p
        return [a[:, k:stop:p, :] for k in range(p)]
    hs, ws = spatial[0] // p * p, spatial[1] // p * p
    return [a[:, i:hs:p, j:ws:p, :] for i in range(p) for j in range(p)]


def _max_pool(x: np.ndarray, p: int, index: bool = True):
    """Non-overlapping max pool: ``(pooled, first-occurrence window index)``.

    With ``index=False`` only the pooled values are computed, by the same
    ``np.maximum`` chain, and the index is None.
    """
    windows = _pool_windows(x, p)
    out = windows[0].copy()
    if not index:
        for v in windows[1:]:
            np.maximum(v, out, out=out)
        return out, None
    idx = np.zeros(out.shape, dtype=np.min_scalar_type(len(windows) - 1))
    gt = np.empty(out.shape, dtype=bool)
    step = np.empty_like(idx)
    for k, v in enumerate(windows[1:], 1):
        np.greater(v, out, out=gt)
        # On a tie np.maximum returns its second operand, so the earlier
        # window keeps its bits (+0.0 vs -0.0), as argmax would pick it.
        np.maximum(v, out, out=out)
        # k only grows, so max(idx, gt * k) writes k exactly where gt.
        np.multiply(gt, idx.dtype.type(k), out=step)
        np.maximum(idx, step, out=idx)
    return out, idx


def _unpool(grad: np.ndarray, idx: np.ndarray, shape, p: int) -> np.ndarray:
    """dx of ``shape``: ``grad`` at each window's winner, +0.0 elsewhere.

    Every element is written once: the windows tile ``dx`` except for
    the cropped remainder, which is zeroed. The scatter multiplies the gradient's integer bit patterns by the
    0/1 winner mask, so winners keep their exact bits (-0.0 included).
    """
    dx = np.empty(shape, dtype=grad.dtype)
    if min(shape[1:-1]) >= p:  # the cropped remainder is in no window
        for axis, size in enumerate(shape[1:-1], 1):
            dx[(slice(None),) * axis + (slice(size // p * p, None),)] = 0.0
    bits = np.dtype(f"i{dx.itemsize}")
    gbits = grad.view(bits)
    hit = np.empty(idx.shape, dtype=bool)
    for k, window in enumerate(_pool_windows(dx, p)):
        np.equal(idx, k, out=hit)
        np.multiply(gbits, hit, out=window.view(bits))
    return dx


class _MaxPool(Layer):
    """Non-overlapping max pooling (trailing remainder cropped)."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.p = int(pool_size)

    def output_shape(self, input_shape):
        return tuple(max(1, d // self.p) for d in input_shape[:-1]) + input_shape[-1:]

    def forward(self, x, training):
        # Inference pools values only and keeps its input, from which a
        # backward derives the window index.
        self._x = None if training else x
        self._shape = x.shape
        out, self._idx = _max_pool(x, self.p, index=training)
        return out

    def backward(self, grad):
        idx = self._idx
        if idx is None:  # an inference forward kept only its input
            _, idx = _max_pool(self._x, self.p)
        return _unpool(grad, idx, self._shape, self.p)


class MaxPool2D(_MaxPool):
    """Non-overlapping 2-D max pooling over ``(N, H, W, C)``."""


class MaxPool1D(_MaxPool):
    """Non-overlapping 1-D max pooling over ``(N, L, C)``."""


class ReLUDropoutPool:
    """A ``ReLU -> Dropout -> MaxPool`` run executed as one unit.

    Byte-identical to running the three layers in turn: the same
    Dropout draws, the same first-occurrence argmax and the same
    gradient bits. A training forward keeps only the pooled output and
    the window index for backward, not the input or a float dropout
    mask; an inference forward keeps the pooled output and a reference
    to its input, and a backward derives the index from that.
    """

    def __init__(self, dropout: Dropout, pool: _MaxPool):
        self.dropout = dropout
        self.pool = pool
        self._scratch = _Workspace()

    def forward(self, x, training):
        dropout = self.dropout
        mask = dropout._draws(x, training, self._scratch)
        if mask is None:
            self._scale = x.dtype.type(1)
            u = x
        else:
            # In place, the draws become the mask {1/keep, 0.0} and then
            # the dropped-out input: x * (1/keep) == (x * 1) * (1/keep).
            self._scale = dropout._inv_keep(x.dtype)
            np.less(mask, 1.0 - dropout.rate, out=mask)
            mask *= self._scale
            u = np.multiply(x, mask, out=mask)
        # ReLU commutes with the max, so it runs on the pooled output
        # only. Inference pools values only and keeps its input (u is x
        # then), from which a backward derives the window index.
        self._x = None if training else x
        self._pooled, self._idx = _max_pool(u, self.pool.p, index=training)
        np.maximum(self._pooled, 0.0, out=self._pooled)
        if training:
            self._relu_index(self._idx)
        self._shape = x.shape
        return self._pooled

    def _relu_index(self, idx):
        # A window whose max is not positive is all zeros after ReLU, and
        # the stack's first-occurrence argmax then picks its first element.
        idx *= self._pooled > 0
        return idx

    def backward(self, grad):
        idx = self._idx
        if idx is None:  # an inference forward kept only its input
            idx = self._relu_index(_max_pool(self._x, self.pool.p)[1])
        # At a winner the stack's (grad * mask) * relu' is grad * (1/keep)
        # where the pooled value is positive, and grad * 0.0 elsewhere.
        w = np.multiply(self._pooled > 0, self._scale, dtype=self._pooled.dtype)
        np.multiply(grad, w, out=w)
        return _unpool(w, idx, self._shape, self.pool.p)


def _release_input(unit) -> None:
    """Drop the input an inference pool kept for a backward; other units keep theirs.

    A model's predict and evaluate never backpropagate, and a pool's
    input (the conv output before pooling) is often the largest array of
    the pass, so the model containers release it as soon as the pool has
    answered.
    """
    if isinstance(unit, (_MaxPool, ReLUDropoutPool)):
        unit._x = None


def execution_plan(layers: Sequence[Layer]) -> List[Tuple[str, object]]:
    """``(label, unit)`` pairs that run ``layers`` in order.

    Every ``ReLU -> Dropout -> MaxPool1D/2D`` run becomes one
    :class:`ReLUDropoutPool` labelled with its layers, e.g.
    ``"1-3:ReLU+Dropout+MaxPool2D"``; every other layer runs as itself,
    labelled ``"{i}:{class}"``. The layer list itself is untouched, so
    weight keys and checkpoints do not depend on the plan.
    """
    plan: List[Tuple[str, object]] = []
    i = 0
    while i < len(layers):
        run = layers[i : i + 3]
        kinds = tuple(type(layer) for layer in run)
        if kinds in ((ReLU, Dropout, MaxPool1D), (ReLU, Dropout, MaxPool2D)):
            names = "+".join(kind.__name__ for kind in kinds)
            plan.append((f"{i}-{i + 2}:{names}", ReLUDropoutPool(run[1], run[2])))
            i += 3
        else:
            plan.append((f"{i}:{kinds[0].__name__}", layers[i]))
            i += 1
    return plan
