"""Speech-region detection on accelerometer traces.

"The speech region corresponds to the period when a spike in the
accelerometer data is observed" (Section III-B2). The detector:

1. removes the static (gravity) offset;
2. optionally high-passes the trace — 8 Hz in the handheld/ear-speaker
   setting to suppress hand/body motion (used for *detection only*; the
   feature path always sees the raw region);
3. computes a short-window RMS envelope;
4. estimates the noise floor from a low percentile of that envelope and
   thresholds with hysteresis;
5. merges nearby regions and drops too-short ones.

Steps 1-4 run over a whole stack of traces at once
(:meth:`RegionDetector.detect_batch`), the threshold statistics
included; only the hysteresis walk and the merge are per row.
:meth:`RegionDetector.detect` is the one-row case.

The paper reports ~90 % region-extraction rate table-top and >=45 %
for the ear speaker; :func:`detection_rate` scores a detector against a
session's ground-truth playback log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.envelope import moving_rms
from repro.dsp.filters import cached_butter_highpass, sosfilt_zero_phase_batch

__all__ = ["Region", "RegionDetector", "detection_rate"]


def _hysteresis_spans(
    envelope: np.ndarray, threshold_on: float, threshold_off: float
) -> List[Tuple[int, int]]:
    """Hysteresis thresholding as a transition walk.

    Equivalent to the per-sample loop (enter when ``value >=
    threshold_on`` while inactive, leave when ``value < threshold_off``
    while active, re-entry possible from the next sample) but walks only
    the precomputed crossing indices.
    """
    spans: List[Tuple[int, int]] = []
    on_idx = np.flatnonzero(envelope >= threshold_on)
    off_idx = np.flatnonzero(envelope < threshold_off)
    pos = 0
    while True:
        k = int(np.searchsorted(on_idx, pos))
        if k == on_idx.size:
            break
        start = int(on_idx[k])
        j = int(np.searchsorted(off_idx, start + 1))
        if j == off_idx.size:
            spans.append((start, int(envelope.size)))
            break
        end = int(off_idx[j])
        spans.append((start, end))
        pos = end + 1
    return spans


#: Histogram bins of the Otsu split.
_OTSU_BINS = 64


def _otsu_split(
    log_env: np.ndarray, lengths: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Otsu's between-class-variance threshold of every row's log envelope.

    The log envelope of a recording is bimodal — a noise-floor mode and
    a speech mode — so Otsu's criterion finds the valley without
    assuming how much of the trace is speech. Row ``r`` holds its
    ``lengths[r]`` values first (in any order) and has minimum ``lo[r]``
    and maximum ``hi[r]``, with ``hi - lo >= 1e-9``. The bins are
    ``np.histogram(row, 64, range=(lo, hi))``'s: edges as ``np.linspace``
    builds them, then the scaled-index guess and its one-step
    corrections at the edges, so every count is numpy's.
    """
    k, bins = lo.size, _OTSU_BINS
    delta = hi - lo
    edges = np.arange(bins + 1.0) * (delta / bins)[:, None] + lo[:, None]
    edges[:, -1] = hi
    row = np.repeat(np.arange(k), lengths)
    values = log_env[np.arange(log_env.shape[1]) < lengths[:, None]]
    idx = (((values - lo[row]) / delta[row]) * bins).astype(np.intp)
    idx[idx == bins] -= 1
    flat_edges = edges.ravel()
    base = row * (bins + 1)
    idx[values < flat_edges[base + idx]] -= 1
    idx[(values >= flat_edges[base + idx + 1]) & (idx != bins - 1)] += 1
    hist = np.bincount(row * bins + idx, minlength=k * bins).reshape(k, bins)

    centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
    weights = hist / hist.sum(axis=1, keepdims=True)
    w0 = np.cumsum(weights, axis=1)
    w1 = 1.0 - w0
    mu_all = np.sum(weights * centers, axis=1, keepdims=True)
    mu0_num = np.cumsum(weights * centers, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = mu0_num / w0
        mu1 = (mu_all - mu0_num) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = 0.0
    return centers[np.arange(k), np.argmax(between, axis=1)]


@dataclass(frozen=True)
class Region:
    """A detected speech region, in samples and seconds."""

    start: int
    end: int
    fs: float

    @property
    def start_s(self) -> float:
        return self.start / self.fs

    @property
    def end_s(self) -> float:
        return self.end / self.fs

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) / self.fs

    @property
    def center_s(self) -> float:
        return 0.5 * (self.start_s + self.end_s)

    def slice(self, trace: np.ndarray) -> np.ndarray:
        """Extract this region's raw samples from a trace."""
        return trace[self.start : self.end]


class RegionDetector:
    """Energy-spike speech-region detector.

    Parameters
    ----------
    highpass_hz:
        Detection-path high-pass cutoff (None = no filter, the table-top
        configuration; 8.0 = the paper's handheld configuration).
    envelope_window_s:
        RMS envelope window.
    threshold_factor:
        Region onset threshold as a multiple of the noise floor spread
        above the floor.
    release_factor:
        Hysteresis release threshold (fraction of the onset threshold).
    min_duration_s:
        Minimum region length.
    merge_gap_s:
        Regions closer than this are merged.
    floor_percentile:
        Envelope percentile used as the noise-floor estimate.
    min_peak_ratio:
        Signal-presence gate: if the envelope's 99th percentile is below
        ``min_peak_ratio`` times its median, the trace is treated as
        containing no speech at all (a pure noise floor is unimodal and
        tight; speech bursts stretch the upper tail).
    """

    def __init__(
        self,
        highpass_hz: Optional[float] = None,
        envelope_window_s: float = 0.05,
        threshold_factor: float = 3.0,
        release_factor: float = 0.55,
        min_duration_s: float = 0.08,
        merge_gap_s: float = 0.12,
        floor_percentile: float = 25.0,
        min_peak_ratio: float = 2.0,
    ):
        if highpass_hz is not None and highpass_hz <= 0:
            raise ValueError("highpass_hz must be positive or None")
        if threshold_factor <= 0:
            raise ValueError("threshold_factor must be positive")
        if not 0 < release_factor <= 1:
            raise ValueError("release_factor must be in (0, 1]")
        self.highpass_hz = highpass_hz
        self.envelope_window_s = float(envelope_window_s)
        self.threshold_factor = float(threshold_factor)
        self.release_factor = float(release_factor)
        self.min_duration_s = float(min_duration_s)
        self.merge_gap_s = float(merge_gap_s)
        self.floor_percentile = float(floor_percentile)
        self.min_peak_ratio = float(min_peak_ratio)

    def detection_signal(self, trace: np.ndarray, fs: float) -> np.ndarray:
        """The envelope the thresholds operate on (exposed for Fig. 4)."""
        stack, lengths = self._envelope_stack([trace], fs)
        return stack[0, : lengths[0]]

    def detect(self, trace: np.ndarray, fs: float) -> List[Region]:
        """Detect speech regions in an accelerometer trace."""
        return self.detect_batch([trace], fs)[0]

    def _envelope_stack(
        self, traces: Sequence[np.ndarray], fs: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every trace's RMS envelope as one ``+inf``-padded stack.

        Returns the ``(rows, width)`` stack and each row's length. The
        DC offset is each row's median, read off one sort of the
        ``+inf``-padded trace stack; the optional zero-phase high-pass
        runs as two stacked causal passes
        (:func:`repro.dsp.filters.sosfilt_zero_phase_batch`); and the
        envelopes come from one cumulative sum over the zero-padded
        ``x**2`` stack — a padded row's cumsum prefix is exactly its own
        cumsum, so the window gathers reproduce ``moving_rms`` bit for
        bit. Rows shorter than the window (whose window shrinks to the
        row) go through ``moving_rms`` itself.
        """
        rows = [np.asarray(t, dtype=float) for t in traces]
        for i, trace in enumerate(rows):
            if trace.ndim != 1:
                raise ValueError(f"trace {i} must be 1-D, got shape {trace.shape}")
        lengths = np.array([trace.size for trace in rows], dtype=np.intp)
        width = int(lengths.max()) if lengths.size else 0
        idx = np.arange(width)
        pad = idx >= lengths[:, None]
        x = np.full((len(rows), width), np.inf)
        for r, trace in enumerate(rows):
            x[r, : trace.size] = trace
        if width:
            # np.median of each row: the mean of its two middle ranks.
            ranked = np.sort(x, axis=1)
            every = np.arange(len(rows))
            middle = ranked[every, np.maximum(lengths - 1, 0) // 2] + ranked[every, lengths // 2]
            median = middle / 2.0
            median[np.isnan(ranked[:, -1])] = np.nan
            with np.errstate(invalid="ignore"):  # inf - inf past a row's end
                x -= median[:, None]
        x[pad] = 0.0
        if self.highpass_hz is not None:
            long_rows = np.flatnonzero(lengths > 32)
            if long_rows.size:
                sos = cached_butter_highpass(self.highpass_hz, fs, order=4)
                filtered = sosfilt_zero_phase_batch(sos, x[long_rows], lengths[long_rows])
                x[long_rows, : filtered.shape[1]] = filtered
        window = max(3, int(round(self.envelope_window_s * fs)))
        short = [(r, x[r, : lengths[r]].copy()) for r in np.flatnonzero(lengths < window)]
        np.square(x, out=x)
        csum = np.zeros((len(rows), width + 1))
        np.cumsum(x, axis=1, out=csum[:, 1:])
        half_left = window // 2
        half_right = window - half_left - 1
        lo = np.maximum(idx - half_left, 0)
        hi = np.minimum(idx + half_right + 1, lengths[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            stack = np.sqrt((np.take_along_axis(csum, hi, axis=1) - csum[:, lo]) / (hi - lo))
        stack[pad] = np.inf
        for r, centred in short:
            stack[r, : centred.size] = moving_rms(centred, window)
        return stack, lengths

    def _thresholds(
        self, stack: np.ndarray, lengths: np.ndarray
    ) -> List[Optional[Tuple[float, float]]]:
        """Every row's ``(threshold_on, threshold_off)`` from one sorted stack.

        None marks a row the presence gate rules speech-free (or an
        empty one). The four envelope percentiles are numpy's ``linear``
        method read off the ``+inf``-padded sort, and Otsu's split uses
        ``np.histogram``'s uniform-bin rule on the sorted log envelope
        (bin counts do not depend on order): both bit-equal to the
        per-row ``np.percentile`` / ``np.histogram`` calls. A row whose
        envelope reaches Otsu with a non-finite value raises, as
        ``np.histogram``'s range check does.
        """
        out: List[Optional[Tuple[float, float]]] = [None] * len(lengths)
        live = np.flatnonzero(lengths > 0)
        if live.size == 0:
            return out
        n = lengths[live]
        ranked = np.sort(stack[live], axis=1)
        rows = np.arange(live.size)[:, None]
        # NaN sorts after the +inf padding.
        nan_rows = np.isnan(ranked[:, -1])
        finite = np.isfinite(ranked[rows[:, 0], n - 1]) & ~nan_rows

        # np.percentile(row, q), method="linear": the virtual index
        # (n - 1) * q, its neighbours (clamped at the row's end) and
        # numpy's _lerp from the nearer one.
        ranks = [50.0, 99.0, self.floor_percentile, self.floor_percentile + 10.0]
        virtual = (n[:, None] - 1) * np.true_divide(ranks, 100)
        below = np.floor(virtual)
        t = virtual - below
        below = below.astype(np.intp)
        above = np.minimum(below + 1, n[:, None] - 1)
        a = ranked[rows, below]
        b = ranked[rows, above]
        with np.errstate(invalid="ignore"):  # a NaN row reads the padding
            diff = b - a
            stats = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
        # np.percentile answers a NaN row with NaN, which passes the
        # signal-presence gate: a speech-free trace has a tight, unimodal
        # envelope distribution; thresholding it would hallucinate regions.
        stats[nan_rows] = np.nan
        median, peak, floor, floor_hi = stats.T
        with np.errstate(invalid="ignore"):
            speech = ~(peak < self.min_peak_ratio * np.maximum(median, 1e-12))
        bad = speech & ~finite
        if bad.any():
            row = int(live[np.flatnonzero(bad)[0]])
            raise ValueError(f"trace {row} has a non-finite detection envelope")
        if not speech.any():
            return out
        keep = np.flatnonzero(speech)
        n, ranked, floor, floor_hi = n[keep], ranked[keep], floor[keep], floor_hi[keep]
        # Noise-floor statistics from the quiet end of the envelope.
        guard = floor + self.threshold_factor * np.maximum(floor_hi - floor, 1e-9)

        # Bimodal split between the noise and speech envelope modes.
        log_env = np.log10(np.maximum(ranked, 1e-12))
        lo = log_env[:, 0]
        hi = log_env[np.arange(keep.size), n - 1]
        split = hi.copy()
        spread = np.flatnonzero(~(hi - lo < 1e-9))
        if spread.size:
            split[spread] = _otsu_split(log_env[spread], n[spread], lo[spread], hi[spread])
        # Python's pow per row: numpy's vectorised power is 1 ulp off the
        # scalar 10.0 ** x on some inputs.
        otsu = np.array([10.0**x for x in split.tolist()])
        threshold_on = np.maximum(otsu, guard)
        threshold_off = np.maximum(floor + self.release_factor * (threshold_on - floor), floor)
        for r, on, off in zip(live[keep], threshold_on.tolist(), threshold_off.tolist()):
            out[r] = (on, off)
        return out

    def detect_batch(self, traces: Sequence[np.ndarray], fs: float) -> List[List[Region]]:
        """Detect speech regions in every trace of a ragged list.

        Envelopes and thresholds are computed for the whole list at once
        (:meth:`_envelope_stack`, :meth:`_thresholds`); only the
        hysteresis walk and the merge run per row. Region boundaries are
        discrete, so this path always runs in double precision, and each
        row's regions do not depend on its batchmates.
        """
        if fs <= 0:
            raise ValueError("fs must be positive")
        stack, lengths = self._envelope_stack(traces, fs)
        thresholds = self._thresholds(stack, lengths)
        merge_gap = int(round(self.merge_gap_s * fs))
        min_len = int(round(self.min_duration_s * fs))
        out: List[List[Region]] = []
        for r, pair in enumerate(thresholds):
            if pair is None:
                out.append([])
                continue
            merged: List[Tuple[int, int]] = []
            for s, e in _hysteresis_spans(stack[r, : lengths[r]], *pair):
                if merged and s - merged[-1][1] <= merge_gap:
                    merged[-1] = (merged[-1][0], e)
                else:
                    merged.append((s, e))
            out.append([Region(start=s, end=e, fs=fs) for s, e in merged if e - s >= min_len])
        return out

    @classmethod
    def for_setting(cls, placement: str) -> "RegionDetector":
        """Paper-default detector for a placement.

        Table-top: no filter; handheld: 8 Hz high-pass on the detection
        path (Section III-B2) and a more permissive threshold because
        the ear-speaker signal is weak.
        """
        key = str(placement).lower()
        if "hand" in key:
            return cls(
                highpass_hz=8.0,
                threshold_factor=2.2,
                release_factor=0.6,
                min_duration_s=0.15,
                merge_gap_s=0.30,
            )
        return cls(highpass_hz=None)


def detection_rate(
    regions: Sequence[Region],
    truth_intervals: Sequence[Tuple[float, float]],
) -> float:
    """Fraction of ground-truth playback intervals hit by >=1 detection.

    An interval counts as extracted when some detected region *overlaps*
    it with positive duration, i.e. ``region.start_s < t_end`` and
    ``region.end_s > t_start`` — the paper's "extraction rate". A region
    that merely touches an interval's edge (zero-length intersection)
    does not count; a region's centre falling outside the interval is
    fine as long as the region itself overlaps it.
    """
    if not truth_intervals:
        raise ValueError("need at least one ground-truth interval")
    hits = 0
    for t_start, t_end in truth_intervals:
        for region in regions:
            if region.start_s < t_end and region.end_s > t_start:
                hits += 1
                break
    return hits / len(truth_intervals)
