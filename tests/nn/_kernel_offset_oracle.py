"""Frozen oracle: the original kernel-offset convolution summation.

:mod:`repro.nn.layers` lowers every convolution to im2col plus GEMMs.
This module keeps the seed's form of ``Conv1D``/``Conv2D``: zero-pad the
input, then add one small ``patch @ W[offset]`` matmul per kernel offset
into the output (and, backward, one ``tensordot`` per offset into dW and
one scatter per offset into a padded dX that is sliced at the end).

:func:`reference_convs` swaps these methods into ``Conv1D`` and
``Conv2D`` for the length of a ``with`` block, so the parity tests, the
golden training trajectories and BENCH_4's ``reference/f64`` row run the
unchanged layers and models through the oracle.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn.layers import Conv1D, Conv2D

from tests.nn._lowering_oracle import _pad_amounts


def conv2d_forward(self, x, training):
    ph0, ph1 = _pad_amounts(self.kh, self.padding)
    pw0, pw1 = _pad_amounts(self.kw, self.padding)
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


def conv2d_backward(self, grad):
    xp = self._xp
    h_out, w_out = self._out_hw
    dxp = np.zeros_like(xp)
    self.grads[0][...] = 0.0
    for i in range(self.kh):
        for j in range(self.kw):
            patch = xp[:, i : i + h_out, j : j + w_out, :]
            self.grads[0][i, j] = np.tensordot(patch, grad, axes=([0, 1, 2], [0, 1, 2]))
            dxp[:, i : i + h_out, j : j + w_out, :] += grad @ self.W[i, j].T
    self.grads[1][...] = grad.sum(axis=(0, 1, 2))
    ph0, ph1, pw0, pw1 = self._pads
    hp, wp = dxp.shape[1], dxp.shape[2]
    return dxp[:, ph0 : hp - ph1, pw0 : wp - pw1, :]


def conv1d_forward(self, x, training):
    p0, p1 = _pad_amounts(self.k, self.padding)
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


def conv1d_backward(self, grad):
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


_METHODS = {
    Conv2D: {"forward": conv2d_forward, "backward": conv2d_backward},
    Conv1D: {"forward": conv1d_forward, "backward": conv1d_backward},
}


@contextmanager
def reference_convs():
    """Run every ``Conv1D``/``Conv2D`` through the oracle inside the block.

    On exit each class gets back exactly the attributes it had: the
    methods it inherits from the GEMM lowering, or whatever wrapper was
    set on the class itself.
    """
    saved = {
        cls: {name: cls.__dict__.get(name) for name in methods}
        for cls, methods in _METHODS.items()
    }
    for cls, methods in _METHODS.items():
        for name, method in methods.items():
            setattr(cls, name, method)
    try:
        yield
    finally:
        for cls, own in saved.items():
            for name, method in own.items():
                if method is None:
                    delattr(cls, name)
                else:
                    setattr(cls, name, method)
