"""The Table II time/frequency-domain feature set, as one fused kernel.

Twelve time-domain features — Min, Max, Mean, Standard Deviation,
Variance, Range, CV, Skewness, Kurtosis, Quantile25, Quantile50,
MeanCrossingRate — computed on the *raw* region samples (no filtering;
Table I shows even a 1 Hz high-pass destroys their information), and
twelve frequency-domain features — Energy, Entropy, Frequency Ratio,
Irregularity K, Irregularity J, Sharpness, Smoothness, SpecCentroid,
SpecStdDev, SpecCrest, SpecSkewness, SpecKurt — computed on the region's
magnitude spectrum.

One kernel computes all 24 over a block of equal-length rows. It takes
the mean, the centred signal, the variance and the standardised signal
once, gets both quantiles from one partition, and reads the constants
of a ``(length, fs, dtype)`` — frequency grid, band split, sharpness
weights, quantile ranks — from a bounded LRU cache. Every entry point is
a view over it: :func:`extract_features_batch` buckets a ragged list by
length, and :func:`extract_features`, :func:`extract_time_features` and
:func:`extract_freq_features` are one-row calls. The kernel keeps a time
part and a frequency part only because time features accept 2-3 sample
regions that have no usable spectrum.

Byte-identity contract: under float64 every value equals, bit for bit,
the plain per-row maths — ``np.mean``/``np.std``/``np.quantile``
(linear)/``np.fft.rfft`` on the one 1-D region, as kept in
``tests/attack/_features_reference.py`` — whatever the batch holds.
Every reduction runs along a contiguous last axis, which numpy sums with
the same pairwise tree as a 1-D call, and every elementwise expression
is the one the per-row maths evaluates. ``float32`` runs the same kernel
in single precision and is tolerance-close to float64.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "TIME_FEATURES",
    "FREQ_FEATURES",
    "FEATURE_NAMES",
    "extract_time_features",
    "extract_freq_features",
    "extract_features",
    "extract_features_batch",
]

TIME_FEATURES: Tuple[str, ...] = (
    "min",
    "max",
    "mean",
    "std",
    "variance",
    "range",
    "cv",
    "skewness",
    "kurtosis",
    "quantile25",
    "quantile50",
    "mean_crossing_rate",
)

FREQ_FEATURES: Tuple[str, ...] = (
    "energy",
    "entropy",
    "frequency_ratio",
    "irregularity_k",
    "irregularity_j",
    "sharpness",
    "smoothness",
    "spec_centroid",
    "spec_std",
    "spec_crest",
    "spec_skewness",
    "spec_kurtosis",
)

FEATURE_NAMES: Tuple[str, ...] = TIME_FEATURES + FREQ_FEATURES


class _Plan(NamedTuple):
    """Constants of one ``(n, fs, dtype)``; the spectral ones need ``fs``."""

    kth: np.ndarray  # partition ranks, the exact set np.quantile uses
    ranks: List[Tuple[int, int, float]]  # (lower, upper, weight) per quantile
    freqs: Optional[np.ndarray]  # non-DC rfft bin frequencies
    split: int  # bins below fs/8
    weight: Optional[np.ndarray]  # sharpness weights
    weighted_freqs: Optional[np.ndarray]  # freqs * weight
    log_bins: Optional[np.floating]  # log2(number of bins)


#: Kernel constants by ``(n, fs, dtype)``. Window lengths come from
#: clients, so the cache is bounded LRU: a long-lived server would
#: otherwise grow it without limit. Eviction only forces a rebuild, and
#: rebuilds are deterministic, so the cap cannot change any value. A plan
#: holds three arrays of n/2 values, so 1024 regions of ~10^3 samples
#: stay within ~12 MB.
@lru_cache(maxsize=1024)
def _plan(n: int, fs: Optional[float], dtype: np.dtype) -> _Plan:
    # np.quantile's linear method: the virtual index n*q + (1 - q) - 1
    # (exact in float64), the ranks either side and the fraction between.
    ranks = []
    for q in (0.25, 0.5):
        virtual = n * q + (1.0 - q) - 1.0
        lower = math.floor(virtual)
        ranks.append((lower, lower + 1, virtual - lower))
    kth = np.unique(np.array([0, -1] + [k for r in ranks for k in r[:2]], dtype=np.intp))
    if fs is None:
        return _Plan(kth, ranks, None, 0, None, None, None)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)[1:]
    # Sharpness: high-frequency-weighted centroid (Zwicker-style weight
    # approximated with a soft exponential emphasis).
    weight = 1.0 + np.exp((freqs / freqs[-1] - 0.75) * 4.0)
    return _Plan(
        kth,
        ranks,
        freqs.astype(dtype),
        int(np.count_nonzero(freqs < fs / 8.0)),
        weight.astype(dtype),
        (freqs * weight).astype(dtype),
        dtype.type(np.log2(freqs.size)),
    )


def _quantiles(X: np.ndarray, plan: _Plan, out) -> None:
    """``np.quantile(row, [0.25, 0.5])`` of every row, bit for bit."""
    ranked = np.partition(X, plan.kth, axis=1)
    for col, (lower, upper, t) in enumerate(plan.ranks):
        below = ranked[:, lower]
        diff = ranked[:, upper] - below
        # numpy's _lerp: interpolate from the nearer neighbour.
        if t >= 0.5:
            out[:, col] = ranked[:, upper] - diff * (1 - t)
        else:
            out[:, col] = below + diff * t
    # NaN sorts last, and np.quantile answers such a row with it.
    last = ranked[:, -1:]
    nan = np.isnan(last[:, 0])
    if nan.any():
        out[nan] = last[nan]


def _time_part(X: np.ndarray, mean: np.ndarray, d: np.ndarray, plan: _Plan, out) -> None:
    n = X.shape[1]
    var = np.add.reduce(np.square(d), axis=1) / n
    std = np.sqrt(var)
    xmin = np.minimum.reduce(X, axis=1)
    xmax = np.maximum.reduce(X, axis=1)
    abs_mean = np.abs(mean)
    # Relative threshold: a constant 9.81 m/s^2 trace has sigma ~1e-15
    # from float rounding, which must not produce garbage moments.
    flat = std <= 1e-10 * np.maximum(1.0, abs_mean)
    z = d / std[:, None]
    signs = np.signbit(d)
    out[:, 0] = xmin
    out[:, 1] = xmax
    out[:, 2] = mean
    out[:, 3] = std
    out[:, 4] = var
    out[:, 5] = xmax - xmin
    # Zero-mean regions (gravity-compensated or axis-differenced traces)
    # get cv = 0.0: a NaN here would silently drop the whole row in
    # clean_features and shrink the training set.
    out[:, 6] = np.where(abs_mean > 1e-12, std / abs_mean, 0.0)
    out[:, 7] = np.where(flat, 0.0, np.add.reduce(z**3, axis=1) / n)
    out[:, 8] = np.where(flat, 0.0, np.add.reduce(z**4, axis=1) / n)
    _quantiles(X, plan, out[:, 9:11])
    out[:, 11] = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1) / (n - 1)


def _freq_part(X: np.ndarray, d: np.ndarray, plan: _Plan, out) -> None:
    # The DC bin is excluded so the gravity offset doesn't dominate
    # spectral statistics.
    spectrum = np.abs(np.fft.rfft(d, axis=1))[:, 1:]
    bins = spectrum.shape[1]
    power = np.square(spectrum)
    total = np.add.reduce(power, axis=1)
    p = power / total[:, None]
    centroid = np.add.reduce(plan.freqs * p, axis=1)
    dev = plan.freqs - centroid[:, None]
    spread = np.sqrt(np.add.reduce(np.square(dev) * p, axis=1))
    z = dev / spread[:, None]
    out[:, 0] = np.add.reduce(np.square(X), axis=1)
    entropy = -np.add.reduce(p * np.log2(p + 1e-15), axis=1) / plan.log_bins
    out[:, 1] = np.clip(entropy, 0.0, 1.0)
    # Frequency ratio: energy above fs/8 over energy below (voiced speech
    # vibration concentrates low; noise spreads high). An empty/silent low
    # band reports 0.0 rather than a NaN that would drop the row.
    split = plan.split
    low = np.add.reduce(power[:, :split], axis=1)
    out[:, 2] = np.where(low > 1e-24, np.add.reduce(power[:, split:], axis=1) / low, 0.0)
    if bins >= 3:
        # Irregularity K (Krimphoff): deviation from the 3-point local mean.
        middle = spectrum[:, 1:-1]
        local = (spectrum[:, :-2] + middle + spectrum[:, 2:]) / 3.0
        out[:, 3] = np.add.reduce(np.abs(middle - local), axis=1)
        # Smoothness (McAdams): mean absolute deviation of log-spectrum
        # from its 3-point local mean.
        log_spec = 20.0 * np.log10(spectrum + 1e-12)
        middle = log_spec[:, 1:-1]
        local = (log_spec[:, :-2] + middle + log_spec[:, 2:]) / 3.0
        out[:, 6] = np.add.reduce(np.abs(middle - local), axis=1) / (bins - 2)
    else:
        out[:, 3] = 0.0
        out[:, 6] = 0.0
    # Irregularity J (Jensen): normalised squared successive differences.
    steps = spectrum[:, 1:] - spectrum[:, :-1]
    out[:, 4] = np.add.reduce(np.square(steps), axis=1) / total
    weighted = np.add.reduce(plan.weighted_freqs * p, axis=1)
    out[:, 5] = weighted / np.add.reduce(plan.weight * p, axis=1)
    out[:, 7] = centroid
    out[:, 8] = spread
    out[:, 9] = np.maximum.reduce(power, axis=1) / (total / bins)
    shaped = spread > 1e-12
    out[:, 10] = np.where(shaped, np.add.reduce(z**3 * p, axis=1), 0.0)
    out[:, 11] = np.where(shaped, np.add.reduce(z**4 * p, axis=1), 0.0)
    # Silent region: every spectral statistic (energy included) is 0.
    out[total < 1e-24] = 0.0


def _table2(X: np.ndarray, fs: Optional[float]) -> np.ndarray:
    """The Table II kernel over equal-length rows ``X`` of shape ``(m, n)``.

    Returns the 12 time columns, then the 12 frequency columns unless
    ``fs`` is None, in ``FEATURE_NAMES`` order and X's dtype.
    """
    m, n = X.shape
    plan = _plan(n, fs, X.dtype)
    out = np.empty((m, 12 if fs is None else 24), dtype=X.dtype)
    with np.errstate(all="ignore"):
        mean = np.add.reduce(X, axis=1) / n
        d = X - mean[:, None]
        _time_part(X, mean, d, plan, out[:, :12])
        if fs is not None:
            _freq_part(X, d, plan, out[:, 12:])
    return out


def _region(region: np.ndarray, min_size: int) -> np.ndarray:
    x = np.asarray(region, dtype=float)
    if x.ndim != 1 or x.size < min_size:
        raise ValueError(f"region must be a 1-D array with >= {min_size} samples")
    return x


def _rate(fs: float) -> float:
    if fs <= 0:
        raise ValueError("fs must be positive")
    return float(fs)


def extract_time_features(region: np.ndarray) -> Dict[str, float]:
    """Time-domain features of a raw region (gravity offset included)."""
    row = _table2(_region(region, 2)[None], None)[0]
    return dict(zip(TIME_FEATURES, row.tolist()))


def extract_freq_features(region: np.ndarray, fs: float) -> Dict[str, float]:
    """Frequency-domain features of a region's magnitude spectrum."""
    row = _table2(_region(region, 4)[None], _rate(fs))[0, 12:]
    return dict(zip(FREQ_FEATURES, row.tolist()))


def extract_features(region: np.ndarray, fs: float) -> np.ndarray:
    """Full 24-dimensional Table II feature vector, ordered FEATURE_NAMES."""
    return _table2(_region(region, 4)[None], _rate(fs))[0]


def extract_features_batch(
    regions: Sequence[np.ndarray],
    fs: float,
    dtype: Optional[Union[str, np.dtype, type]] = None,
) -> np.ndarray:
    """Batched :func:`extract_features` over a ragged list of regions.

    Rows are bucketed by exact length and each bucket runs the kernel
    once, so the default float64 ``dtype`` is byte-identical to
    :func:`extract_features` for every row whatever the batch holds.
    ``float32`` is the hot path: buckets are cast before computation and
    the kernel runs in single precision, tolerance-close to float64.

    Returns an ``(n_regions, 24)`` matrix ordered by ``FEATURE_NAMES``.
    """
    fs = _rate(fs)
    out_dtype = np.dtype(np.float64 if dtype is None else dtype)
    rows = [np.asarray(r, dtype=float) for r in regions]
    buckets: Dict[int, List[int]] = {}
    for i, row in enumerate(rows):
        if row.ndim != 1 or row.size < 4:
            raise ValueError(f"region {i} must be a 1-D array with >= 4 samples")
        buckets.setdefault(row.size, []).append(i)
    out = np.empty((len(rows), len(FEATURE_NAMES)), dtype=out_dtype)
    for idxs in buckets.values():
        X = np.stack([rows[i] for i in idxs]).astype(out_dtype, copy=False)
        out[idxs] = _table2(X, fs)
    return out
