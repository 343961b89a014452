"""Butterworth IIR filter design and zero-phase filtering.

The paper uses high-pass filters in two places: an 8 Hz high-pass on the
*speech-region detection* path for the handheld/ear-speaker setting, and a
1 Hz high-pass in the Table I information-gain ablation (which is shown to
destroy the feature information and is therefore *not* used on the feature
path). Both are expressed through the helpers here.

Design is delegated to :func:`scipy.signal.butter` in second-order-section
form for numerical stability; filtering reproduces
:func:`scipy.signal.sosfiltfilt` bit for bit, so the detection path adds no
group delay (matching the offline MATLAB analysis in the paper). Every pass
calls ``scipy.signal._sosfilt._sosfilt``, the kernel that
:func:`scipy.signal.sosfilt` runs after copying its input, directly and in
place on a C-contiguous float64 stack; ``tests/dsp/test_filters.py`` pins
its bytes to the public functions, so a scipy release that moves or
changes it fails there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np
from scipy import signal as _signal
from scipy.signal._sosfilt import _sosfilt

__all__ = [
    "butter_highpass",
    "butter_lowpass",
    "butter_bandpass",
    "cached_butter_highpass",
    "sosfilt_zero_phase",
    "sosfilt_zero_phase_batch",
    "zero_phase_edge",
    "highpass",
    "lowpass",
    "bandpass",
]


def _check_cutoff(cutoff_hz: float, fs: float) -> None:
    nyquist = 0.5 * fs
    if not 0.0 < cutoff_hz < nyquist:
        raise ValueError(f"cutoff {cutoff_hz} Hz must lie in (0, {nyquist}) for fs={fs} Hz")


def butter_highpass(cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Design a Butterworth high-pass filter, returned as SOS sections."""
    _check_cutoff(cutoff_hz, fs)
    return _signal.butter(order, cutoff_hz, btype="highpass", fs=fs, output="sos")


@lru_cache(maxsize=64)
def _cached_butter_highpass(cutoff_hz: float, fs: float, order: int) -> np.ndarray:
    sos = butter_highpass(cutoff_hz, fs, order)
    sos.setflags(write=False)
    return sos


def cached_butter_highpass(cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Memoized :func:`butter_highpass` for hot loops.

    Butterworth design is deterministic in ``(cutoff, fs, order)``, so the
    cached sections are bitwise what a fresh design returns; the batched
    collection pipeline uses this to avoid re-designing the same filter
    once per utterance. Returns a writable copy (scipy's filters require
    writable coefficient buffers).
    """
    return _cached_butter_highpass(float(cutoff_hz), float(fs), int(order)).copy()


def butter_lowpass(cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Design a Butterworth low-pass filter, returned as SOS sections."""
    _check_cutoff(cutoff_hz, fs)
    return _signal.butter(order, cutoff_hz, btype="lowpass", fs=fs, output="sos")


def butter_bandpass(low_hz: float, high_hz: float, fs: float, order: int = 2) -> np.ndarray:
    """Design a Butterworth band-pass filter, returned as SOS sections."""
    _check_cutoff(low_hz, fs)
    _check_cutoff(high_hz, fs)
    if low_hz >= high_hz:
        raise ValueError(f"band edges must satisfy low < high, got {low_hz} >= {high_hz}")
    return _signal.butter(order, (low_hz, high_hz), btype="bandpass", fs=fs, output="sos")


def _zero_phase_state(sos: np.ndarray) -> Tuple[int, np.ndarray]:
    """The odd-extension edge length and steady-state ``zi`` of ``sos``."""
    return _zero_phase_solve(np.ascontiguousarray(sos, dtype=float).tobytes())


#: Keyed by the SOS bytes. ``sosfilt_zi`` solves a small linear system,
#: which dominates ``sosfiltfilt``'s per-call overhead when the same
#: filter runs over hundreds of rows. Bounded, least recently used first
#: out, so a long-lived sweep or server that designs many filters does
#: not grow it without limit; eviction only forces a deterministic
#: re-solve, so the cap cannot change any value.
@lru_cache(maxsize=64)
def _zero_phase_solve(key: bytes) -> Tuple[int, np.ndarray]:
    sos = np.frombuffer(key).reshape(-1, 6)
    ntaps = 2 * sos.shape[0] + 1
    ntaps -= min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
    zi = _signal.sosfilt_zi(sos)
    zi.setflags(write=False)
    return 3 * ntaps, zi


def zero_phase_edge(sos: np.ndarray) -> int:
    """Samples of odd extension :func:`sosfilt_zero_phase_batch` adds per side."""
    return _zero_phase_state(sos)[0]


def sosfilt_zero_phase(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply an SOS filter forwards and backwards (zero phase).

    Replicates :func:`scipy.signal.sosfiltfilt` (default odd padding)
    step for step — odd extension, steady-state ``zi`` scaled by the
    first/last sample, forward and reverse passes — so the output is
    bitwise what sosfiltfilt returns, but the expensive ``sosfilt_zi``
    solve is computed once per coefficient set instead of once per call.
    Falls back to single-pass filtering for signals too short for the
    edge padding. The one-row case of :func:`sosfilt_zero_phase_batch`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    return sosfilt_zero_phase_batch(sos, x[None], [x.size])[0]


def sosfilt_zero_phase_batch(sos: np.ndarray, x: np.ndarray, lengths, lead: int = 0) -> np.ndarray:
    """Zero-phase filter every row of a ragged stack with two causal passes.

    Row ``r`` of the input is ``x[r, lead : lead + lengths[r]]``. Returns
    a ``(rows, max(lengths))`` float64 stack holding row ``r``'s output in
    ``[:lengths[r]]`` and zeros after it; each row is bitwise
    :func:`sosfilt_zero_phase` of that row alone.

    Zero-phase filtering is not pad-safe *as a whole* (the odd extension
    and the reverse pass depend on where each signal ends), but each of
    its two ``sosfilt`` passes is causal, so rows of different lengths
    share one stacked call per direction: trailing columns never reach
    back into a row's valid prefix, and per-row initial conditions ride
    along on the stacked ``zi`` axis. The odd extensions are written
    into the stack around each row, the forward pass filters that stack
    in place, and the reversal is one slice copy per row into a second
    buffer, which the backward pass filters in place.

    When every row is long enough for the edge padding and sits exactly
    :func:`zero_phase_edge` columns in from the left of ``x`` (``lead``)
    with at least as many after its end, ``x`` is scratch: the extensions
    are written around the rows, the forward pass filters ``x`` itself,
    and the output is a view of it. Otherwise the rows are copied once
    into a fresh buffer and ``x`` is left untouched.
    """
    x = np.asarray(x, dtype=float)
    lengths = np.asarray(lengths, dtype=np.intp)
    if x.ndim != 2 or lengths.shape != x.shape[:1]:
        raise ValueError(
            f"expected a (rows, width) stack and one length per row, got "
            f"shapes {x.shape} and {lengths.shape}"
        )
    width = int(lengths.max()) if lengths.size else 0
    if lead < 0 or (lengths.size and (lengths.min() < 0 or lead + width > x.shape[1])):
        raise ValueError("every row must lie inside the stack")
    sos = np.ascontiguousarray(sos, dtype=float)
    threshold = 3 * (2 * sos.shape[0] + 1)
    live = np.flatnonzero(lengths > threshold)
    out = None if 0 < live.size == lengths.size else np.zeros((lengths.size, width))
    # Rows too short for the edge padding take one causal pass from rest.
    short = np.flatnonzero((lengths > 0) & (lengths <= threshold))
    if short.size:
        y = np.ascontiguousarray(x[short, lead : lead + int(lengths[short].max())])
        _sosfilt(sos, y, np.zeros((short.size, sos.shape[0], 2)))
        for r, row in zip(short, y):
            out[r, : lengths[r]] = row[: lengths[r]]
    if not live.size:
        return out
    edge, zi = _zero_phase_state(sos)
    n = lengths[live]
    ends = edge + n
    if lead >= edge and int(ends.max()) + edge <= x.shape[1] - (lead - edge):
        ext = x[:, lead - edge :] if out is None else x[live, lead - edge :]
        ext = np.ascontiguousarray(ext)
    else:
        ext = np.zeros((live.size, width + 2 * edge))
        ext[:, edge : edge + width] = x[live, lead : lead + width]
    # Odd extensions: 2 * x[0] - x[edge:0:-1] on the left and
    # 2 * x[-1] - x[-2:-(edge + 2):-1] on the right of every row.
    k = np.arange(edge)
    rows = np.arange(live.size)[:, None]
    right, mirror = ends[:, None] + k, ends[:, None] - 2 - k
    ext[:, :edge] = 2 * ext[:, edge : edge + 1] - ext[:, 2 * edge : edge : -1]
    ext[rows, right] = 2 * ext[rows, ends[:, None] - 1] - ext[rows, mirror]
    # Each pass starts from the steady state scaled by the row's first
    # sample, one (sections, 2) state per row, and filters in place.
    _sosfilt(sos, ext, zi[None] * ext[:, :1, None])
    back = np.zeros_like(ext)
    for i, e in enumerate(ends + edge):
        back[i, :e] = ext[i, e - 1 :: -1]
    _sosfilt(sos, back, zi[None] * back[:, :1, None])
    if out is None:
        # Every row is live: the forward pass's buffer is free to reuse.
        out = ext[:, :width]
    for r, row, m in zip(live, back, n):
        out[r, :m] = row[edge : edge + m][::-1]
        out[r, m:] = 0.0
    return out


def highpass(x: np.ndarray, cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth high-pass of a 1-D signal."""
    return sosfilt_zero_phase(butter_highpass(cutoff_hz, fs, order), x)


def lowpass(x: np.ndarray, cutoff_hz: float, fs: float, order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth low-pass of a 1-D signal."""
    return sosfilt_zero_phase(butter_lowpass(cutoff_hz, fs, order), x)


def bandpass(x: np.ndarray, low_hz: float, high_hz: float, fs: float, order: int = 2) -> np.ndarray:
    """Zero-phase Butterworth band-pass of a 1-D signal."""
    return sosfilt_zero_phase(butter_bandpass(low_hz, high_hz, fs, order), x)
