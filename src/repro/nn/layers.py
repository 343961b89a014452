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
  at ``build`` time; the convolution kernel ("gemm" im2col/GEMM or the
  original "reference" kernel-offset summation) is re-read from the
  policy on every forward, unless pinned per layer via ``kernel=``.

The GEMM path lowers each convolution to one matrix multiply per
direction: ``sliding_window_view`` gathers the receptive fields into a
per-layer reusable im2col workspace (grown once, then recycled every
batch), the forward is ``cols @ W2d + b`` and the backward is two GEMMs
(``colsᵀ @ grad`` for dW, ``grad @ W2dᵀ`` followed by a kh·kw slice
scatter-add for dX). 1x1 convolutions skip the gather entirely.

Max pooling sweeps the pool-window offsets as strided views in row-major
order, keeping the running max and a compact (uint8 when it fits)
first-occurrence window index; backward scatters the gradient's bit
patterns into the winning offsets. :class:`~repro.nn.model.Sequential`
runs each ``ReLU -> Dropout -> MaxPool`` run of layers as one
:class:`ReLUDropoutPool` unit (see :func:`execution_plan`), which keeps
only the pooled output and that index for backward.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.activations import relu
from repro.nn.initializers import he_normal
from repro.nn.policy import CONV_KERNELS, get_policy

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

    def get(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        size = int(np.prod(shape))
        dtype = np.dtype(dtype)
        if self._buf is None or self._buf.size < size or self._buf.dtype != dtype:
            self._buf = np.empty(max(size, 1), dtype=dtype)
        return self._buf[:size].reshape(shape)


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
        if get_policy().conv_kernel == "quantized":
            if training:
                raise RuntimeError(
                    "the quantized kernel is inference-only; train under "
                    "'gemm' or 'reference' and quantize afterwards"
                )
            from repro.nn.quant import dense_forward_quantized

            return dense_forward_quantized(self.W, self.b, x)
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
        self._m = int(np.prod([x.shape[a] for a in axes]))
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


class _ConvBase(Layer):
    """Shared kernel dispatch for the convolution layers."""

    def __init__(self, kernel: Optional[str]):
        super().__init__()
        if kernel is not None and kernel not in CONV_KERNELS:
            raise ValueError(f"kernel must be one of {CONV_KERNELS}, got {kernel!r}")
        self.kernel = kernel
        self._cols_ws = _Workspace()
        self._dcols_ws = _Workspace()

    def _active_kernel(self) -> str:
        return self.kernel if self.kernel is not None else get_policy().conv_kernel

    def forward(self, x, training):
        kernel = self._active_kernel()
        self._fwd_kernel = kernel  # backward must match the forward's cache
        if kernel == "reference":
            return self._forward_reference(x, training)
        if kernel == "quantized":
            if training:
                raise RuntimeError(
                    "the quantized kernel is inference-only; train under "
                    "'gemm' or 'reference' and quantize afterwards"
                )
            from repro.nn.quant import conv_forward_quantized

            return conv_forward_quantized(self, x)
        return self._forward_gemm(x, training)

    def backward(self, grad):
        if self._fwd_kernel == "reference":
            return self._backward_reference(grad)
        if self._fwd_kernel == "quantized":
            raise RuntimeError("the quantized kernel has no backward pass")
        return self._backward_gemm(grad)


class Conv2D(_ConvBase):
    """2-D convolution (stride 1, channels-last).

    The default "gemm" kernel lowers the convolution to im2col plus a
    single GEMM per direction; ``kernel="reference"`` pins this layer to
    the original kernel-offset summation (otherwise the
    :mod:`repro.nn.policy` selection applies).
    """

    def __init__(
        self,
        filters: int,
        kernel_size,
        padding: str = "same",
        kernel: Optional[str] = None,
    ):
        super().__init__(kernel)
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

    # -- gemm kernel --------------------------------------------------------
    def _forward_gemm(self, x, training):
        kh, kw, f = self.kh, self.kw, self.filters
        c = self.W.shape[2]
        n = x.shape[0]
        if kh == 1 and kw == 1:
            # Pointwise: the pixels already are the im2col rows.
            self._x2 = x.reshape(-1, c)
            self._x_shape = x.shape
            out = self._x2 @ self.W[0, 0]
            out += self.b
            return out.reshape(n, x.shape[1], x.shape[2], f)
        ph0, ph1 = _pad_amounts(x.shape[1], kh, self.padding)
        pw0, pw1 = _pad_amounts(x.shape[2], kw, self.padding)
        if ph0 or ph1 or pw0 or pw1:
            xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
        else:
            xp = x
        h_out = xp.shape[1] - kh + 1
        w_out = xp.shape[2] - kw + 1
        # (n, h_out, w_out, c, kh, kw) view -> contiguous (rows, kh*kw*c).
        windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))
        cols6 = self._cols_ws.get((n, h_out, w_out, kh, kw, c), xp.dtype)
        np.copyto(cols6, windows.transpose(0, 1, 2, 4, 5, 3))
        cols = cols6.reshape(n * h_out * w_out, kh * kw * c)
        out = cols @ self.W.reshape(kh * kw * c, f)
        out += self.b
        self._cols = cols
        self._x_shape = x.shape
        self._pads = (ph0, ph1, pw0, pw1)
        self._out_hw = (h_out, w_out)
        return out.reshape(n, h_out, w_out, f)

    def _backward_gemm(self, grad):
        kh, kw, f = self.kh, self.kw, self.filters
        c = self.W.shape[2]
        if kh == 1 and kw == 1:
            g2 = grad.reshape(-1, f)
            self.grads[0][...] = self._x2.T @ g2
            self.grads[1][...] = g2.sum(axis=0)
            return (g2 @ self.W[0, 0].T).reshape(self._x_shape)
        n = self._x_shape[0]
        h_out, w_out = self._out_hw
        g2 = grad.reshape(n * h_out * w_out, f)
        self.grads[0][...] = (self._cols.T @ g2).reshape(self.W.shape)
        self.grads[1][...] = grad.sum(axis=(0, 1, 2))
        dcols = self._dcols_ws.get((g2.shape[0], kh * kw * c), self._cols.dtype)
        np.matmul(g2, self.W.reshape(kh * kw * c, f).T, out=dcols)
        dcols6 = dcols.reshape(n, h_out, w_out, kh, kw, c)
        dxp = np.zeros(
            (n, h_out + kh - 1, w_out + kw - 1, c), dtype=dcols.dtype
        )
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + h_out, j : j + w_out, :] += dcols6[:, :, :, i, j, :]
        ph0, ph1, pw0, pw1 = self._pads
        hp, wp = dxp.shape[1], dxp.shape[2]
        return dxp[:, ph0 : hp - ph1, pw0 : wp - pw1, :]

    # -- reference kernel (the original kernel-offset summation) ------------
    def _forward_reference(self, x, training):
        ph0, ph1 = _pad_amounts(x.shape[1], self.kh, self.padding)
        pw0, pw1 = _pad_amounts(x.shape[2], self.kw, self.padding)
        xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
        self._xp = xp
        self._pads = (ph0, ph1, pw0, pw1)
        n, hp, wp, c = xp.shape
        h_out = hp - self.kh + 1
        w_out = wp - self.kw + 1
        out = np.tile(self.b, (n, h_out, w_out, 1))
        for i in range(self.kh):
            for j in range(self.kw):
                patch = xp[:, i : i + h_out, j : j + w_out, :]
                out += patch @ self.W[i, j]
        self._out_hw = (h_out, w_out)
        return out

    def _backward_reference(self, grad):
        xp = self._xp
        h_out, w_out = self._out_hw
        dxp = np.zeros_like(xp)
        self.grads[0][...] = 0.0
        for i in range(self.kh):
            for j in range(self.kw):
                patch = xp[:, i : i + h_out, j : j + w_out, :]
                self.grads[0][i, j] = np.tensordot(
                    patch, grad, axes=([0, 1, 2], [0, 1, 2])
                )
                dxp[:, i : i + h_out, j : j + w_out, :] += grad @ self.W[i, j].T
        self.grads[1][...] = grad.sum(axis=(0, 1, 2))
        ph0, ph1, pw0, pw1 = self._pads
        hp, wp = dxp.shape[1], dxp.shape[2]
        return dxp[:, ph0 : hp - ph1, pw0 : wp - pw1, :]


class Conv1D(_ConvBase):
    """1-D convolution (stride 1, channels-last).

    Kernel selection mirrors :class:`Conv2D`: "gemm" (im2col + GEMM,
    default) or "reference" (kernel-offset summation).
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        padding: str = "same",
        kernel: Optional[str] = None,
    ):
        super().__init__(kernel)
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

    # -- gemm kernel --------------------------------------------------------
    def _forward_gemm(self, x, training):
        k, f = self.k, self.filters
        c = self.W.shape[1]
        n = x.shape[0]
        if k == 1:
            self._x2 = x.reshape(-1, c)
            self._x_shape = x.shape
            out = self._x2 @ self.W[0]
            out += self.b
            return out.reshape(n, x.shape[1], f)
        p0, p1 = _pad_amounts(x.shape[1], k, self.padding)
        xp = np.pad(x, ((0, 0), (p0, p1), (0, 0))) if (p0 or p1) else x
        l_out = xp.shape[1] - k + 1
        # (n, l_out, c, k) view -> contiguous (rows, k*c).
        windows = sliding_window_view(xp, k, axis=1)
        cols4 = self._cols_ws.get((n, l_out, k, c), xp.dtype)
        np.copyto(cols4, windows.transpose(0, 1, 3, 2))
        cols = cols4.reshape(n * l_out, k * c)
        out = cols @ self.W.reshape(k * c, f)
        out += self.b
        self._cols = cols
        self._x_shape = x.shape
        self._pads = (p0, p1)
        self._l_out = l_out
        return out.reshape(n, l_out, f)

    def _backward_gemm(self, grad):
        k, f = self.k, self.filters
        c = self.W.shape[1]
        if k == 1:
            g2 = grad.reshape(-1, f)
            self.grads[0][...] = self._x2.T @ g2
            self.grads[1][...] = g2.sum(axis=0)
            return (g2 @ self.W[0].T).reshape(self._x_shape)
        n = self._x_shape[0]
        l_out = self._l_out
        g2 = grad.reshape(n * l_out, f)
        self.grads[0][...] = (self._cols.T @ g2).reshape(self.W.shape)
        self.grads[1][...] = grad.sum(axis=(0, 1))
        dcols = self._dcols_ws.get((g2.shape[0], k * c), self._cols.dtype)
        np.matmul(g2, self.W.reshape(k * c, f).T, out=dcols)
        dcols4 = dcols.reshape(n, l_out, k, c)
        dxp = np.zeros((n, l_out + k - 1, c), dtype=dcols.dtype)
        for i in range(k):
            dxp[:, i : i + l_out, :] += dcols4[:, :, i, :]
        p0, p1 = self._pads
        lp = dxp.shape[1]
        return dxp[:, p0 : lp - p1, :]

    # -- reference kernel (the original kernel-offset summation) ------------
    def _forward_reference(self, x, training):
        p0, p1 = _pad_amounts(x.shape[1], self.k, self.padding)
        xp = np.pad(x, ((0, 0), (p0, p1), (0, 0)))
        self._xp = xp
        self._pads = (p0, p1)
        n, lp, c = xp.shape
        l_out = lp - self.k + 1
        out = np.tile(self.b, (n, l_out, 1))
        for i in range(self.k):
            out += xp[:, i : i + l_out, :] @ self.W[i]
        self._l_out = l_out
        return out

    def _backward_reference(self, grad):
        xp = self._xp
        l_out = self._l_out
        dxp = np.zeros_like(xp)
        self.grads[0][...] = 0.0
        for i in range(self.k):
            patch = xp[:, i : i + l_out, :]
            self.grads[0][i] = np.tensordot(patch, grad, axes=([0, 1], [0, 1]))
            dxp[:, i : i + l_out, :] += grad @ self.W[i].T
        self.grads[1][...] = grad.sum(axis=(0, 1))
        p0, p1 = self._pads
        lp = dxp.shape[1]
        return dxp[:, p0 : lp - p1, :]


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


def _max_pool(x: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pool: ``(pooled, first-occurrence window index)``."""
    windows = _pool_windows(x, p)
    out = windows[0].copy()
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
        self._shape = x.shape
        out, self._idx = _max_pool(x, self.p)
        return out

    def backward(self, grad):
        return _unpool(grad, self._idx, self._shape, self.p)


class MaxPool2D(_MaxPool):
    """Non-overlapping 2-D max pooling over ``(N, H, W, C)``."""


class MaxPool1D(_MaxPool):
    """Non-overlapping 1-D max pooling over ``(N, L, C)``."""


class ReLUDropoutPool:
    """A ``ReLU -> Dropout -> MaxPool`` run executed as one unit.

    Byte-identical to running the three layers in turn: the same
    Dropout draws, the same first-occurrence argmax and the same
    gradient bits. It keeps only the pooled output and the window index
    for backward, not the input or a float dropout mask.
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
        # only. A window whose max is not positive is all zeros after
        # ReLU, and the stack's first-occurrence argmax then picks its
        # first element.
        self._pooled, self._idx = _max_pool(u, self.pool.p)
        np.maximum(self._pooled, 0.0, out=self._pooled)
        self._idx *= self._pooled > 0
        self._shape = x.shape
        return self._pooled

    def backward(self, grad):
        # At a winner the stack's (grad * mask) * relu' is grad * (1/keep)
        # where the pooled value is positive, and grad * 0.0 elsewhere.
        w = np.multiply(self._pooled > 0, self._scale, dtype=self._pooled.dtype)
        np.multiply(grad, w, out=w)
        return _unpool(w, self._idx, self._shape, self.pool.p)


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
