"""Frozen oracle: the whole-batch im2col/GEMM convolution lowering.

:mod:`repro.nn.layers` streams its GEMM lowering through cache-sized
chunks of samples. This module keeps the earlier whole-batch form so
tests can pin the streamed kernels to it byte for byte: ``np.pad``, one
``sliding_window_view`` gather into a full-batch im2col matrix, one GEMM
per direction, ``colsᵀ @ g`` for dW and a kh·kw scatter-add into a
padded dX that is sliced at the end.

Each ``*_forward`` returns ``(out, state)``; ``*_backward(state, grad)``
returns ``(dx, dW, db)``. ``b=None`` leaves the bias out, as the int8
layers' raw GEMM does. A ``scratch`` dict keeps the cols and dcols
buffers across calls, as the layers' workspaces did, so timings against
the oracle do not count fresh allocations the old layers never made.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _pad_amounts(kernel, padding):
    if padding == "valid":
        return 0, 0
    total = max(kernel - 1, 0)
    return total // 2, total - total // 2


def _empty(scratch, key, shape, dtype):
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    buf = scratch.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = scratch[key] = np.empty(shape, dtype=dtype)
    return buf


def conv2d_forward(x, W, b, padding, scratch=None):
    kh, kw, c, f = W.shape
    n = x.shape[0]
    ph0, ph1 = _pad_amounts(kh, padding)
    pw0, pw1 = _pad_amounts(kw, padding)
    if ph0 or ph1 or pw0 or pw1:
        xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
    else:
        xp = x
    h_out = xp.shape[1] - kh + 1
    w_out = xp.shape[2] - kw + 1
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols6 = _empty(scratch, "cols", (n, h_out, w_out, kh, kw, c), xp.dtype)
    np.copyto(cols6, windows.transpose(0, 1, 2, 4, 5, 3))
    cols = cols6.reshape(n * h_out * w_out, kh * kw * c)
    out = cols @ W.reshape(kh * kw * c, f)
    if b is not None:
        out += b
    state = (W, cols, x.shape, (ph0, ph1, pw0, pw1), (h_out, w_out), scratch)
    return out.reshape(n, h_out, w_out, f), state


def conv2d_backward(state, grad):
    W, cols, x_shape, pads, (h_out, w_out), scratch = state
    kh, kw, c, f = W.shape
    n = x_shape[0]
    g2 = grad.reshape(n * h_out * w_out, f)
    dW = (cols.T @ g2).reshape(W.shape)
    db = grad.sum(axis=(0, 1, 2))
    dcols = _empty(scratch, "dcols", (g2.shape[0], kh * kw * c), cols.dtype)
    np.matmul(g2, W.reshape(kh * kw * c, f).T, out=dcols)
    dcols6 = dcols.reshape(n, h_out, w_out, kh, kw, c)
    dxp = np.zeros((n, h_out + kh - 1, w_out + kw - 1, c), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + h_out, j : j + w_out, :] += dcols6[:, :, :, i, j, :]
    ph0, ph1, pw0, pw1 = pads
    hp, wp = dxp.shape[1], dxp.shape[2]
    return dxp[:, ph0 : hp - ph1, pw0 : wp - pw1, :], dW, db


def conv1d_forward(x, W, b, padding, scratch=None):
    k, c, f = W.shape
    n = x.shape[0]
    p0, p1 = _pad_amounts(k, padding)
    xp = np.pad(x, ((0, 0), (p0, p1), (0, 0))) if (p0 or p1) else x
    l_out = xp.shape[1] - k + 1
    windows = sliding_window_view(xp, k, axis=1)
    cols4 = _empty(scratch, "cols", (n, l_out, k, c), xp.dtype)
    np.copyto(cols4, windows.transpose(0, 1, 3, 2))
    cols = cols4.reshape(n * l_out, k * c)
    out = cols @ W.reshape(k * c, f)
    if b is not None:
        out += b
    state = (W, cols, x.shape, (p0, p1), l_out, scratch)
    return out.reshape(n, l_out, f), state


def conv1d_backward(state, grad):
    W, cols, x_shape, (p0, p1), l_out, scratch = state
    k, c, f = W.shape
    n = x_shape[0]
    g2 = grad.reshape(n * l_out, f)
    dW = (cols.T @ g2).reshape(W.shape)
    db = grad.sum(axis=(0, 1))
    dcols = _empty(scratch, "dcols", (g2.shape[0], k * c), cols.dtype)
    np.matmul(g2, W.reshape(k * c, f).T, out=dcols)
    dcols4 = dcols.reshape(n, l_out, k, c)
    dxp = np.zeros((n, l_out + k - 1, c), dtype=dcols.dtype)
    for i in range(k):
        dxp[:, i : i + l_out, :] += dcols4[:, :, i, :]
    lp = dxp.shape[1]
    return dxp[:, p0 : lp - p1, :], dW, db
