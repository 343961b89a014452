"""Byte-parity oracle for :mod:`repro.attack.features`.

The straightforward per-row Table II maths, kept verbatim as the
reference the fused production kernel must reproduce byte for byte
under float64. Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.attack.features import FEATURE_NAMES, FREQ_FEATURES


def _skewness(x: np.ndarray) -> float:
    mu = x.mean()
    sigma = x.std()
    # Relative threshold: a constant 9.81 m/s^2 trace has sigma ~1e-15
    # from float rounding, which must not produce garbage moments.
    if sigma <= 1e-10 * max(1.0, abs(mu)):
        return 0.0
    return float(np.mean(((x - mu) / sigma) ** 3))


def _kurtosis(x: np.ndarray) -> float:
    mu = x.mean()
    sigma = x.std()
    if sigma <= 1e-10 * max(1.0, abs(mu)):
        return 0.0
    return float(np.mean(((x - mu) / sigma) ** 4))


def reference_time_features(region: np.ndarray) -> Dict[str, float]:
    """Time-domain features of a raw region (gravity offset included)."""
    x = np.asarray(region, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("region must be a 1-D array with >= 2 samples")
    mean = float(x.mean())
    std = float(x.std())
    crossings = np.sum(np.diff(np.signbit(x - mean)) != 0)
    # Zero-mean regions (gravity-compensated or axis-differenced traces)
    # get cv = 0.0: a NaN here would silently drop the whole row in
    # clean_features and shrink the training set.
    cv = std / abs(mean) if abs(mean) > 1e-12 else 0.0
    # Fused quantile call: one partition serves both ranks, each value
    # bit-equal to a separate np.quantile call.
    q25, q50 = np.quantile(x, [0.25, 0.50])
    return {
        "min": float(x.min()),
        "max": float(x.max()),
        "mean": mean,
        "std": std,
        "variance": float(x.var()),
        "range": float(x.max() - x.min()),
        "cv": float(cv),
        "skewness": _skewness(x),
        "kurtosis": _kurtosis(x),
        "quantile25": float(q25),
        "quantile50": float(q50),
        "mean_crossing_rate": float(crossings / (x.size - 1)),
    }


def reference_freq_features(region: np.ndarray, fs: float) -> Dict[str, float]:
    """Frequency-domain features of a region's magnitude spectrum.

    The DC bin is excluded so the gravity offset doesn't dominate
    spectral statistics.
    """
    x = np.asarray(region, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("region must be a 1-D array with >= 4 samples")
    if fs <= 0:
        raise ValueError("fs must be positive")
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)
    spectrum = spectrum[1:]
    freqs = freqs[1:]
    power = spectrum**2
    total_power = power.sum()
    if total_power < 1e-24:
        # Silent region: all spectral statistics degenerate to 0.
        return {name: 0.0 for name in FREQ_FEATURES}

    p_norm = power / total_power
    centroid = float(np.sum(freqs * p_norm))
    spread = float(np.sqrt(np.sum(((freqs - centroid) ** 2) * p_norm)))
    entropy = float(
        np.clip(
            -np.sum(p_norm * np.log2(p_norm + 1e-15)) / np.log2(p_norm.size),
            0.0,
            1.0,
        )
    )

    # Frequency ratio: energy above fs/8 over energy below (voiced speech
    # vibration concentrates low; noise spreads high).
    split = fs / 8.0
    high = power[freqs >= split].sum()
    low = power[freqs < split].sum()
    # An empty/silent low band means "no low-frequency energy to compare
    # against"; report 0.0 rather than a NaN sentinel that would get the
    # row dropped downstream.
    freq_ratio = float(high / low) if low > 1e-24 else 0.0

    # Irregularity K (Krimphoff): deviation from the 3-point local mean.
    if spectrum.size >= 3:
        local_mean = (spectrum[:-2] + spectrum[1:-1] + spectrum[2:]) / 3.0
        irregularity_k = float(np.sum(np.abs(spectrum[1:-1] - local_mean)))
    else:
        irregularity_k = 0.0

    # Irregularity J (Jensen): normalised squared successive differences.
    irregularity_j = float(
        np.sum(np.diff(spectrum) ** 2) / np.sum(spectrum**2)
    )

    # Sharpness: high-frequency-weighted centroid (Zwicker-style weight
    # approximated with a soft exponential emphasis).
    weight = 1.0 + np.exp((freqs / freqs[-1] - 0.75) * 4.0)
    sharpness = float(np.sum(freqs * weight * p_norm) / np.sum(weight * p_norm))

    # Smoothness (McAdams): mean absolute deviation of log-spectrum from
    # its 3-point local mean.
    log_spec = 20.0 * np.log10(spectrum + 1e-12)
    if log_spec.size >= 3:
        local = (log_spec[:-2] + log_spec[1:-1] + log_spec[2:]) / 3.0
        smoothness = float(np.mean(np.abs(log_spec[1:-1] - local)))
    else:
        smoothness = 0.0

    crest = float(power.max() / power.mean())
    if spread > 1e-12:
        z = (freqs - centroid) / spread
        spec_skew = float(np.sum((z**3) * p_norm))
        spec_kurt = float(np.sum((z**4) * p_norm))
    else:
        spec_skew = 0.0
        spec_kurt = 0.0

    return {
        "energy": float(np.sum(x**2)),
        "entropy": entropy,
        "frequency_ratio": freq_ratio,
        "irregularity_k": irregularity_k,
        "irregularity_j": irregularity_j,
        "sharpness": sharpness,
        "smoothness": smoothness,
        "spec_centroid": centroid,
        "spec_std": spread,
        "spec_crest": crest,
        "spec_skewness": spec_skew,
        "spec_kurtosis": spec_kurt,
    }


def reference_features(region: np.ndarray, fs: float) -> np.ndarray:
    """Full 24-dimensional Table II feature vector, ordered FEATURE_NAMES."""
    values = reference_time_features(region)
    values.update(reference_freq_features(region, fs))
    return np.array([values[name] for name in FEATURE_NAMES], dtype=float)
