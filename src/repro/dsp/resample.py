"""Resampling primitives, including the aliasing accelerometer ADC path.

A MEMS accelerometer has no acoustic anti-aliasing front end: the proof
mass responds to chassis vibration well above the output data rate, so
speech-band energy *folds down* into the few-hundred-hertz sensor stream.
That aliasing is the physical mechanism EmoLeak (and Spearphone/AccelEve
before it) exploits. :func:`sample_and_decimate` models it by point
sampling the high-rate vibration waveform with no low-pass, while
:func:`linear_resample` provides a conventional interpolating resampler
for the synthesis side.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "linear_resample",
    "decimated_length",
    "sample_and_decimate",
    "sample_and_decimate_batch",
    "decimate_no_antialias",
]


def linear_resample(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Linear-interpolation resampling from ``fs_in`` to ``fs_out``.

    Suitable for upsampling or modest, pre-band-limited downsampling.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    if x.size == 0:
        return x.copy()
    duration = x.size / fs_in
    n_out = max(1, int(round(duration * fs_out)))
    t_in = np.arange(x.size) / fs_in
    t_out = np.arange(n_out) / fs_out
    return np.interp(t_out, t_in, x)


def decimated_length(n: int, fs_in: float, fs_out: float, phase: float) -> int:
    """Output samples :func:`sample_and_decimate` takes from ``n`` inputs.

    At least one from a non-empty input, none from an empty one.
    """
    if n <= 0:
        return 0
    return max(1, math.floor((n / fs_in - phase / fs_out) * fs_out))


def sample_and_decimate(
    x: np.ndarray, fs_in: float, fs_out: float, phase: float = 0.0
) -> np.ndarray:
    """Point-sample ``x`` at ``fs_out`` with *no* anti-alias filtering.

    Models an accelerometer ADC reading the instantaneous proof-mass
    position: energy above ``fs_out / 2`` aliases into the output band
    instead of being rejected. The one-row case of
    :func:`sample_and_decimate_batch`.

    Parameters
    ----------
    phase:
        Fractional offset (in output-sample periods, ``[0, 1)``) of the
        first sample, modelling an arbitrary ADC clock phase.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    samples, n_out = sample_and_decimate_batch(x[None], [x.size], fs_in, fs_out, [phase])
    return samples[0, : n_out[0]]


def sample_and_decimate_batch(
    x: np.ndarray, lengths, fs_in: float, fs_out: float, phases
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`sample_and_decimate` of every row of a ragged stack at once.

    Row ``r`` is ``x[r, :lengths[r]]``, sampled with ADC phase
    ``phases[r]``. Returns the ``(rows, max n_out)`` sample stack and
    each row's sample count (:func:`decimated_length`); row ``r``'s
    samples are ``[:n_out[r]]`` and are bitwise ``np.interp`` of that
    row on its own ``t_in`` grid.

    All rows share one ``t_in = arange / fs_in`` grid, so each output
    time's interval is found arithmetically (``floor(t * fs_in)``, then
    one step either way where the product rounded across a grid point)
    instead of by binary search, and one gather feeds numpy's own lerp:
    ``slope * (t - t_in[j]) + x[j]``, the left sample where ``t`` lands
    on a grid point or past the last sample, and numpy's fallbacks where
    an infinite sample makes that NaN.
    """
    x = np.asarray(x, dtype=float)
    lengths = np.asarray(lengths, dtype=np.intp)
    phases = np.asarray(phases, dtype=float)
    if x.ndim != 2 or lengths.shape != x.shape[:1] or phases.shape != lengths.shape:
        raise ValueError(
            f"expected a (rows, width) stack with one length and phase per row, got "
            f"shapes {x.shape}, {lengths.shape} and {phases.shape}"
        )
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    outside = ~((phases >= 0.0) & (phases < 1.0))
    if outside.any():
        raise ValueError(f"phase must be in [0, 1), got {phases[outside][0]}")
    if lengths.size and (lengths.min() < 0 or lengths.max() > x.shape[1]):
        raise ValueError("every row must lie inside the stack")
    n_out = np.array(
        [decimated_length(int(n), fs_in, fs_out, float(p)) for n, p in zip(lengths, phases)],
        dtype=np.intp,
    )
    if not n_out.size or not n_out.max():
        return np.zeros((lengths.size, 0)), n_out
    t = np.arange(int(n_out.max())) + phases[:, None]
    t /= fs_out
    t_in = np.arange(x.shape[1] + 1) / fs_in
    last = np.maximum(lengths - 1, 0)[:, None]
    j = (t * fs_in).astype(np.intp)
    np.minimum(j, last, out=j)
    t0, t1 = t_in.take(j), t_in.take(j + 1)
    # Where the product rounded across a grid point, step to the
    # interval np.interp's binary search finds: t_in[j] <= t < t_in[j + 1].
    off = (t0 > t) | ((t1 <= t) & (j < last))
    if off.any():
        j[off] += np.where(t0[off] > t[off], -1, 1)
        t0, t1 = t_in.take(j), t_in.take(j + 1)
    exact = j == last
    exact |= t0 == t
    # Flat takes: a row's samples start at row * width of the C-order stack.
    flat = np.ascontiguousarray(x).reshape(-1)
    base = np.arange(lengths.size)[:, None] * x.shape[1]
    at = base + j
    x0 = flat.take(at)
    np.minimum(at + 1, base + last, out=at)
    slope = flat.take(at)
    with np.errstate(all="ignore"):
        slope -= x0
        t1 -= t0
        slope /= t1
        out = t - t0
        out *= slope
        out += x0
        nan = np.isnan(out)
        if nan.any():
            x1 = flat.take(at)
            again = slope * (t - t_in.take(j + 1)) + x1
            flat_pair = np.isnan(again) & (x0 == x1)
            again[flat_pair] = x0[flat_pair]
            out[nan] = again[nan]
    out[exact] = x0[exact]
    return out, n_out


def decimate_no_antialias(x: np.ndarray, factor: int) -> np.ndarray:
    """Keep every ``factor``-th sample with no filtering (pure aliasing)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if factor < 1:
        raise ValueError("decimation factor must be >= 1")
    return x[::factor].copy()
