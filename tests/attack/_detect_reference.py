"""Byte-parity oracle for :mod:`repro.attack.regions`.

The straightforward per-row detector maths — DC removal, optional
zero-phase high-pass, moving-RMS envelope, a fused ``np.percentile``
call, ``np.histogram``-based Otsu split, hysteresis walk and merge —
kept verbatim as the reference the stacked production code must
reproduce exactly: every row's on/off thresholds, presence gate and
regions. Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.attack.regions import Region, RegionDetector, _hysteresis_spans
from repro.dsp.envelope import moving_rms
from repro.dsp.filters import highpass


def reference_detection_signal(
    detector: RegionDetector, trace: np.ndarray, fs: float
) -> np.ndarray:
    """The envelope the thresholds operate on, one row at a time."""
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 1:
        raise ValueError(f"expected a 1-D trace, got shape {trace.shape}")
    x = trace - np.median(trace)  # remove gravity/DC
    if detector.highpass_hz is not None and trace.size > 32:
        x = highpass(x, detector.highpass_hz, fs, order=4)
    window = max(3, int(round(detector.envelope_window_s * fs)))
    return moving_rms(x, window)


def reference_otsu_threshold(log_env: np.ndarray) -> float:
    """Otsu's between-class-variance threshold on the log envelope."""
    lo, hi = float(log_env.min()), float(log_env.max())
    if hi - lo < 1e-9:
        return hi
    hist, edges = np.histogram(log_env, bins=64, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    weights = hist / hist.sum()
    w0 = np.cumsum(weights)
    w1 = 1.0 - w0
    mu_all = np.sum(weights * centers)
    mu0_num = np.cumsum(weights * centers)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = mu0_num / w0
        mu1 = (mu_all - mu0_num) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = 0.0
    return float(centers[int(np.argmax(between))])


def reference_thresholds(
    detector: RegionDetector, envelope: np.ndarray
) -> Optional[Tuple[float, float]]:
    """``(threshold_on, threshold_off)``, or None where the presence gate
    (or an empty envelope) rules the row speech-free."""
    if envelope.size == 0:
        return None
    median, peak, floor, floor_hi = np.percentile(
        envelope,
        [50.0, 99.0, detector.floor_percentile, detector.floor_percentile + 10.0],
    )
    if peak < detector.min_peak_ratio * max(median, 1e-12):
        return None
    noise_spread = max(floor_hi - floor, 1e-9)
    guard = floor + detector.threshold_factor * noise_spread
    log_env = np.log10(np.maximum(envelope, 1e-12))
    otsu = 10.0 ** reference_otsu_threshold(log_env)
    threshold_on = max(otsu, guard)
    threshold_off = max(
        floor + detector.release_factor * (threshold_on - floor), floor
    )
    return float(threshold_on), float(threshold_off)


def reference_regions_from_envelope(
    detector: RegionDetector, envelope: np.ndarray, fs: float
) -> List[Region]:
    thresholds = reference_thresholds(detector, envelope)
    if thresholds is None:
        return []
    regions = _hysteresis_spans(envelope, *thresholds)
    merge_gap = int(round(detector.merge_gap_s * fs))
    merged: List[Tuple[int, int]] = []
    for s, e in regions:
        if merged and s - merged[-1][1] <= merge_gap:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    min_len = int(round(detector.min_duration_s * fs))
    return [Region(start=s, end=e, fs=fs) for s, e in merged if e - s >= min_len]


def reference_detect(
    detector: RegionDetector, trace: np.ndarray, fs: float
) -> List[Region]:
    """Detect speech regions in one accelerometer trace."""
    if fs <= 0:
        raise ValueError("fs must be positive")
    envelope = reference_detection_signal(detector, trace, fs)
    return reference_regions_from_envelope(detector, envelope, fs)
