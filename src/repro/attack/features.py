"""The Table II time/frequency-domain feature set, as one flat kernel.

Twelve time-domain features — Min, Max, Mean, Standard Deviation,
Variance, Range, CV, Skewness, Kurtosis, Quantile25, Quantile50,
MeanCrossingRate — computed on the *raw* region samples (no filtering;
Table I shows even a 1 Hz high-pass destroys their information), and
twelve frequency-domain features — Energy, Entropy, Frequency Ratio,
Irregularity K, Irregularity J, Sharpness, Smoothness, SpecCentroid,
SpecStdDev, SpecCrest, SpecSkewness, SpecKurt — computed on the region's
magnitude spectrum.

One kernel computes all 24 over a ragged batch. It sorts the rows by
length and concatenates them into one flat buffer, so rows of equal
length sit next to each other, and runs every elementwise step once over
that buffer: the centring, the squares and the powers of the
standardised signal, the sign flips, the spectra's power and
normalisation, the logarithms, the 3-point local means, the successive
steps and the weighted products. Only what depends on a row's length
runs once per distinct length, on a ``(rows, length)`` view of one
equal-length group: the ``rfft``, the quantile partition and the
reductions. Both quantiles come from one partition, and the constants
of a ``(length, fs, dtype)`` — frequency grid, band split, sharpness
weights, quantile ranks — come from a bounded LRU cache.
:func:`extract_features_batch` is the kernel's entry point;
:func:`extract_features`, :func:`extract_time_features` and
:func:`extract_freq_features` are batches of one. The kernel keeps a
time part and a frequency part only because time features accept 2-3
sample regions that have no usable spectrum.

Byte-identity contract: under float64 every value equals, bit for bit,
the plain per-row maths — ``np.mean``/``np.std``/``np.quantile``
(linear)/``np.fft.rfft`` on the one 1-D region, as kept in
``tests/attack/_features_reference.py`` — whatever the batch holds.
Elementwise results do not depend on where a value sits in the buffer,
and every elementwise expression is the one the per-row maths
evaluates. Float sums do depend on layout: numpy sums a contiguous row
with a pairwise tree shaped by the row's length, so each sum runs along
the contiguous last axis of a group's view, the tree a 1-D call builds
(a segmented sum over the flat buffer, or a zero-padded stack, would
change it). Mean-crossing counts are integers, so one cumulative sum
over the flat buffer serves every row. ``float32`` runs the same kernel
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
    picks: np.ndarray  # ranked columns read: lower and upper rank per quantile, then the last
    fractions: Tuple[float, float]  # where each quantile sits between its two ranks
    spectral: Optional[np.ndarray]  # (3, bins): non-DC bin frequencies, sharpness weights, product
    split: int  # bins below fs/8
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
    picks, fractions = [], []
    for q in (0.25, 0.5):
        virtual = n * q + (1.0 - q) - 1.0
        lower = math.floor(virtual)
        picks += [lower, lower + 1]
        fractions.append(virtual - lower)
    kth = np.unique(np.array([0, -1] + picks, dtype=np.intp))
    picks = np.array(picks + [n - 1], dtype=np.intp)
    if fs is None:
        return _Plan(kth, picks, tuple(fractions), None, 0, None)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)[1:]
    # Sharpness: high-frequency-weighted centroid (Zwicker-style weight
    # approximated with a soft exponential emphasis).
    weight = 1.0 + np.exp((freqs / freqs[-1] - 0.75) * 4.0)
    return _Plan(
        kth,
        picks,
        tuple(fractions),
        np.stack([freqs, weight, freqs * weight]).astype(dtype),
        int(np.count_nonzero(freqs < fs / 8.0)),
        dtype.type(np.log2(freqs.size)),
    )


class _Group(NamedTuple):
    """One run of equal-length rows in the length-sorted batch."""

    plan: _Plan
    rows: slice  # its rows, in sorted order
    time: slice  # its samples in the flat buffer
    bins: slice  # its non-DC bins in the flat spectral buffer
    n: int  # samples per row
    k: int  # rows


def _groups(n: np.ndarray, fs: Optional[float], dtype: np.dtype) -> List[_Group]:
    """The runs of equal-length rows of the ascending row lengths ``n``."""
    groups, t0, b0 = [], 0, 0
    lengths, firsts, counts = np.unique(n, return_index=True, return_counts=True)
    for length, r, k in zip(lengths.tolist(), firsts.tolist(), counts.tolist()):
        t1, b1 = t0 + k * length, b0 + k * (length // 2)
        plan = _plan(length, fs, dtype)
        groups.append(_Group(plan, slice(r, r + k), slice(t0, t1), slice(b0, b1), length, k))
        t0, b0 = t1, b1
    return groups


def _per_group(groups: List[_Group], values) -> np.ndarray:
    """One value per group, repeated over the group's rows."""
    return np.repeat(np.asarray(values), [g.k for g in groups], axis=0)


def _sums(flat: np.ndarray, groups: List[_Group], spectral: bool = False, cols=slice(None)):
    """Row sums of a flat buffer, or of a ``(q, size)`` stack of flat buffers.

    One ``np.add.reduce`` per distinct length, along the contiguous last
    axis of the group's ``(rows, width)`` view (``cols`` of it), so each
    row is summed with the pairwise tree a 1-D call builds. ``spectral``
    reads the spectral layout (``n // 2`` bins a row) instead of samples.
    """
    lead = flat.shape[:-1]
    out = np.empty(lead + (groups[-1].rows.stop,), flat.dtype)
    for g in groups:
        segment, width = (g.bins, g.n // 2) if spectral else (g.time, g.n)
        view = flat[..., segment].reshape(lead + (g.k, width))
        np.add.reduce(view[..., cols], axis=-1, out=out[..., g.rows])
    return out


def _quantiles(picked: np.ndarray, groups: List[_Group], out) -> None:
    """``np.quantile(row, [0.25, 0.5])`` of every row, bit for bit."""
    fractions = _per_group(groups, [g.plan.fractions for g in groups])
    last = picked[4]
    # NaN sorts last, and np.quantile answers such a row with it.
    nan = np.isnan(last)
    for col in range(2):
        below, above = picked[2 * col], picked[2 * col + 1]
        t = fractions[:, col]
        diff = above - below
        # numpy's _lerp: interpolate from the nearer neighbour.
        lerp = np.where(
            t >= 0.5,
            above - diff * (1 - t).astype(out.dtype),
            below + diff * t.astype(out.dtype),
        )
        out[:, col] = np.where(nan, last, lerp)


def _time_part(X: np.ndarray, groups: List[_Group], n: np.ndarray, out) -> np.ndarray:
    """The 12 time columns of the sorted rows; returns the centred buffer."""
    nf = n.astype(X.dtype)
    sums, xmin, xmax = np.empty((3, n.size), X.dtype)
    picked = np.empty((5, n.size), X.dtype)
    for g in groups:
        block = X[g.time].reshape(g.k, g.n)
        np.add.reduce(block, axis=1, out=sums[g.rows])
        np.minimum.reduce(block, axis=1, out=xmin[g.rows])
        np.maximum.reduce(block, axis=1, out=xmax[g.rows])
        picked[:, g.rows] = np.partition(block, g.plan.kth, axis=1)[:, g.plan.picks].T
    mean = sums / nf
    d = X - np.repeat(mean, n)
    var = _sums(np.square(d), groups) / nf
    std = np.sqrt(var)
    abs_mean = np.abs(mean)
    # Relative threshold: a constant 9.81 m/s^2 trace has sigma ~1e-15
    # from float rounding, which must not produce garbage moments.
    flat = std <= 1e-10 * np.maximum(1.0, abs_mean)
    z = d / np.repeat(std, n)
    moments = np.empty((2, X.size), X.dtype)
    np.power(z, 3, out=moments[0])
    np.power(z, 4, out=moments[1])
    skew, kurt = _sums(moments, groups)
    # Sign flips, counted once over the whole buffer: a row's count is
    # the difference of the running count at its two ends.
    signs = np.signbit(d)
    flips = np.concatenate(([0], np.cumsum(signs[1:] != signs[:-1])))
    starts = np.cumsum(n) - n
    crossings = flips[starts + n - 1] - flips[starts]
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
    out[:, 7] = np.where(flat, 0.0, skew / nf)
    out[:, 8] = np.where(flat, 0.0, kurt / nf)
    _quantiles(picked, groups, out[:, 9:11])
    out[:, 11] = crossings / (n - 1)
    return d


def _freq_part(X: np.ndarray, d: np.ndarray, groups: List[_Group], n: np.ndarray, out) -> None:
    bins = n // 2
    size = int(bins.sum())
    # The DC bin is excluded so the gravity offset doesn't dominate
    # spectral statistics.
    coeffs = np.empty(size, np.result_type(X.dtype, np.complex64))
    for g in groups:
        block = coeffs[g.bins].reshape(g.k, g.n // 2)
        block[...] = np.fft.rfft(d[g.time].reshape(g.k, g.n), axis=1)[:, 1:]
    spectrum = np.abs(coeffs)
    power = np.square(spectrum)
    total, peak, low, high = np.empty((4, bins.size), X.dtype)
    for g in groups:
        block = power[g.bins].reshape(g.k, g.n // 2)
        np.add.reduce(block, axis=1, out=total[g.rows])
        np.maximum.reduce(block, axis=1, out=peak[g.rows])
        np.add.reduce(block[:, : g.plan.split], axis=1, out=low[g.rows])
        np.add.reduce(block[:, g.plan.split :], axis=1, out=high[g.rows])
    p = power / np.repeat(total, bins)
    # Every bin's frequency, sharpness weight and their product, gathered
    # from the plans: each row reads its group's columns of one table.
    table = np.concatenate([g.plan.spectral for g in groups], axis=1)
    offsets = np.cumsum([0] + [g.n // 2 for g in groups[:-1]])
    shift = np.repeat(np.cumsum(bins) - bins - _per_group(groups, offsets), bins)
    freqs, weight, weighted_freqs = table[:, np.arange(size) - shift]
    terms = np.empty((4, size), X.dtype)
    np.multiply(freqs, p, out=terms[0])
    np.multiply(p, np.log2(p + 1e-15), out=terms[1])
    np.multiply(weighted_freqs, p, out=terms[2])
    np.multiply(weight, p, out=terms[3])
    centroid, entropy, weighted, weight_sum = _sums(terms, groups, spectral=True)
    dev = freqs - np.repeat(centroid, bins)
    spread = np.sqrt(_sums(np.square(dev) * p, groups, spectral=True))
    z = dev / np.repeat(spread, bins)
    np.multiply(z**3, p, out=terms[0])
    np.multiply(z**4, p, out=terms[1])
    skew, kurt = _sums(terms[:2], groups, spectral=True)
    # Irregularity K (Krimphoff) and Smoothness (McAdams): deviation of the
    # spectrum and of the log-spectrum from their 3-point local means,
    # stored at each middle bin. Values across row boundaries are never read.
    deviation = np.empty((2, size), X.dtype)
    log_spec = 20.0 * np.log10(spectrum + 1e-12)
    for row, s in zip(deviation, (spectrum, log_spec)):
        middle = s[1:-1]
        local = (s[:-2] + middle + s[2:]) / 3.0
        np.abs(middle - local, out=row[1:-1])
    irregularity_k, smooth = _sums(deviation, groups, spectral=True, cols=slice(1, -1))
    # Irregularity J (Jensen): normalised squared successive differences,
    # stored at each step's upper bin.
    steps = np.empty(size, X.dtype)
    np.square(spectrum[1:] - spectrum[:-1], out=steps[1:])
    irregularity_j = _sums(steps, groups, spectral=True, cols=slice(1, None))
    wide = bins >= 3
    out[:, 0] = _sums(np.square(X), groups)
    log_bins = _per_group(groups, [g.plan.log_bins for g in groups])
    out[:, 1] = np.clip(-entropy / log_bins, 0.0, 1.0)
    # Frequency ratio: energy above fs/8 over energy below (voiced speech
    # vibration concentrates low; noise spreads high). An empty/silent low
    # band reports 0.0 rather than a NaN that would drop the row.
    out[:, 2] = np.where(low > 1e-24, high / low, 0.0)
    out[:, 3] = np.where(wide, irregularity_k, 0.0)
    out[:, 4] = irregularity_j / total
    out[:, 5] = weighted / weight_sum
    out[:, 6] = np.where(wide, smooth / (bins - 2).astype(X.dtype), 0.0)
    out[:, 7] = centroid
    out[:, 8] = spread
    out[:, 9] = peak / (total / bins.astype(X.dtype))
    shaped = spread > 1e-12
    out[:, 10] = np.where(shaped, skew, 0.0)
    out[:, 11] = np.where(shaped, kurt, 0.0)
    # Silent region: every spectral statistic (energy included) is 0.
    out[total < 1e-24] = 0.0


def _table2(rows: Sequence[np.ndarray], fs: Optional[float], dtype: np.dtype) -> np.ndarray:
    """The Table II kernel over a non-empty ragged list of 1-D float rows.

    Returns one row of features per input row, in input order: the 12
    time columns, then the 12 frequency columns unless ``fs`` is None,
    in ``FEATURE_NAMES`` order and ``dtype``.
    """
    sizes = np.array([row.size for row in rows], dtype=np.intp)
    order = np.argsort(sizes, kind="stable")
    n = sizes[order]
    groups = _groups(n, fs, dtype)
    X = np.concatenate([rows[i] for i in order], dtype=dtype, casting="same_kind")
    out = np.empty((n.size, 12 if fs is None else 24), dtype=dtype)
    with np.errstate(all="ignore"):
        d = _time_part(X, groups, n, out[:, :12])
        if fs is not None:
            _freq_part(X, d, groups, n, out[:, 12:])
    result = np.empty_like(out)
    result[order] = out
    return result


def _region(region: np.ndarray, min_size: int) -> np.ndarray:
    x = np.asarray(region, dtype=float)
    if x.ndim != 1 or x.size < min_size:
        raise ValueError(f"region must be a 1-D array with >= {min_size} samples")
    return x


def _rate(fs: float) -> float:
    if fs <= 0:
        raise ValueError("fs must be positive")
    return float(fs)


_FLOAT64 = np.dtype(np.float64)


def extract_time_features(region: np.ndarray) -> Dict[str, float]:
    """Time-domain features of a raw region (gravity offset included)."""
    row = _table2([_region(region, 2)], None, _FLOAT64)[0]
    return dict(zip(TIME_FEATURES, row.tolist()))


def extract_freq_features(region: np.ndarray, fs: float) -> Dict[str, float]:
    """Frequency-domain features of a region's magnitude spectrum."""
    row = _table2([_region(region, 4)], _rate(fs), _FLOAT64)[0, 12:]
    return dict(zip(FREQ_FEATURES, row.tolist()))


def extract_features(region: np.ndarray, fs: float) -> np.ndarray:
    """Full 24-dimensional Table II feature vector, ordered FEATURE_NAMES."""
    return _table2([_region(region, 4)], _rate(fs), _FLOAT64)[0]


def extract_features_batch(
    regions: Sequence[np.ndarray],
    fs: float,
    dtype: Optional[Union[str, np.dtype, type]] = None,
) -> np.ndarray:
    """Batched :func:`extract_features` over a ragged list of regions.

    The whole batch runs the flat kernel once, so the default float64
    ``dtype`` is byte-identical to :func:`extract_features` for every
    row whatever the batch holds, including its order and any NaN or
    ±inf in other rows. ``float32`` casts the rows as they are gathered
    and runs the kernel in single precision, tolerance-close to float64.

    Returns an ``(n_regions, 24)`` matrix ordered by ``FEATURE_NAMES``.
    """
    fs = _rate(fs)
    out_dtype = np.dtype(np.float64 if dtype is None else dtype)
    rows = [np.asarray(r, dtype=float) for r in regions]
    for i, row in enumerate(rows):
        if row.ndim != 1 or row.size < 4:
            raise ValueError(f"region {i} must be a 1-D array with >= 4 samples")
    if not rows:
        return np.empty((0, len(FEATURE_NAMES)), dtype=out_dtype)
    return _table2(rows, fs, out_dtype)
