"""Property tests (hypothesis): the stacked front end against its oracles.

Region detection and spectrogram images run as one stacked pass over a
ragged chunk; the frozen per-row oracles (``tests/attack/_detect_reference.py``,
``tests/dsp/_spectrogram_reference.py``) define what each row must come
out as. The chunks mix the rows that take the unusual branches:

- flat rows: constant traces, and square waves whose log envelope is
  flat (``hi - lo < 1e-9``) yet passes a presence gate of 1.0; zero and
  constant images;
- speech-free noise rows (the presence gate: peak < 2 x median);
- 0-, 1- and 2-sample traces, and 8- and 9-sample regions;
- one session-length row beside utterance-length ones;
- detector settings drawn at random, so every percentile rank and
  threshold branch moves.

Thresholds and regions must match the oracle exactly, float64 images
byte for byte; the float32 image policy stays within tolerance of the
float64 oracle on well-conditioned rows. A NaN row must make the stacked
call raise, so the engine's chunk fallback can isolate it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.regions import RegionDetector
from repro.dsp.spectrogram import spectrogram_image_batch

from tests.attack._detect_reference import (
    reference_detect,
    reference_detection_signal,
    reference_thresholds,
)
from tests.dsp._spectrogram_reference import reference_spectrogram_image

FS = 420.0
_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_kinds = st.sampled_from(["speech", "noise", "flat", "square", "tiny"])


def _trace(kind, length, seed):
    rng = np.random.default_rng(seed)
    if kind == "tiny":
        return 9.80665 + rng.normal(size=length % 3)
    if kind == "flat":
        return np.full(length, 9.80665)
    if kind == "square":
        return 9.8 + 0.05 * (-1.0) ** np.arange(length)
    x = 9.80665 + 0.003 * rng.normal(size=length)
    if kind == "speech" and length > 8:
        start = int(rng.integers(0, length // 2))
        stop = min(length, start + int(rng.integers(4, max(5, length // 2))))
        t = np.arange(stop - start) / FS
        x[start:stop] += rng.uniform(0.01, 0.3) * np.sin(2 * np.pi * 60 * t)
    return x


def _session(seed, seconds=60.0):
    """A session-length trace: a noise floor with a burst every ~4 s."""
    rng = np.random.default_rng(seed)
    n = int(seconds * FS)
    x = 9.80665 + 0.003 * rng.normal(size=n)
    t = np.arange(n) / FS
    for start in np.arange(1.0, seconds - 2.0, 4.0):
        mask = (t >= start) & (t < start + rng.uniform(0.5, 2.0))
        x[mask] += 0.1 * np.sin(2 * np.pi * 60 * t[mask])
    return x


_chunks = st.lists(
    st.tuples(_kinds, st.integers(min_value=0, max_value=900), _seeds),
    min_size=1,
    max_size=8,
)

_detectors = st.builds(
    RegionDetector,
    highpass_hz=st.sampled_from([None, 8.0]),
    envelope_window_s=st.floats(min_value=0.005, max_value=0.2),
    threshold_factor=st.floats(min_value=0.5, max_value=5.0),
    release_factor=st.floats(min_value=0.1, max_value=1.0),
    min_duration_s=st.floats(min_value=0.0, max_value=0.3),
    merge_gap_s=st.floats(min_value=0.0, max_value=0.5),
    floor_percentile=st.floats(min_value=0.0, max_value=90.0),
    min_peak_ratio=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=4.0)),
)


class TestDetectAgainstOracle:
    @given(_chunks, _detectors, st.booleans(), _seeds)
    @settings(max_examples=60, deadline=None)
    def test_thresholds_and_regions_match(self, chunk, detector, with_session, seed):
        traces = [_trace(*row) for row in chunk]
        if with_session:
            traces.insert(len(traces) // 2, _session(seed))
        stack, lengths = detector._envelope_stack(traces, FS)
        thresholds = detector._thresholds(stack, lengths)
        batched = detector.detect_batch(traces, FS)
        for trace, pair, regions in zip(traces, thresholds, batched):
            envelope = reference_detection_signal(detector, trace, FS)
            assert detector.detection_signal(trace, FS).tobytes() == envelope.tobytes()
            assert pair == reference_thresholds(detector, envelope)
            assert regions == reference_detect(detector, trace, FS)
            assert detector.detect(trace, FS) == regions

    def test_flat_log_envelope_takes_the_flat_split(self):
        detector = RegionDetector(min_peak_ratio=1.0)
        square = _trace("square", 400, 0)
        envelope = reference_detection_signal(detector, square, FS)
        log_env = np.log10(envelope)
        assert log_env.max() - log_env.min() < 1e-9
        traces = [_trace("speech", 600, 1), square, _trace("noise", 500, 2)]
        stack, lengths = detector._envelope_stack(traces, FS)
        pairs = detector._thresholds(stack, lengths)
        assert pairs[1] is not None
        for trace, pair in zip(traces, pairs):
            ref = reference_thresholds(
                detector, reference_detection_signal(detector, trace, FS)
            )
            assert pair == ref

    @given(_chunks, st.integers(min_value=0, max_value=7), _seeds)
    @settings(max_examples=25, deadline=None)
    def test_nan_row_raises_the_stacked_call(self, chunk, position, seed):
        traces = [_trace(*row) for row in chunk]
        poisoned = _trace("speech", 600, seed)
        poisoned[int(np.random.default_rng(seed).integers(0, 600))] = np.nan
        traces.insert(min(position, len(traces)), poisoned)
        detector = RegionDetector.for_setting("table_top")
        with pytest.raises(ValueError):
            reference_detect(detector, poisoned, FS)
        with pytest.raises(ValueError):
            detector.detect_batch(traces, FS)
        healthy = [t for t in traces if t is not poisoned]
        detector.detect_batch(healthy, FS)  # the rest alone is fine


_image_rows = st.lists(
    st.one_of(
        st.tuples(st.just("noise"), st.integers(min_value=8, max_value=700)),
        st.tuples(st.just("noise"), st.sampled_from([8, 9])),
        st.tuples(st.just("zeros"), st.integers(min_value=8, max_value=200)),
        st.tuples(st.just("const"), st.integers(min_value=8, max_value=200)),
    ),
    min_size=1,
    max_size=8,
)


def _image_row(kind, length, rng):
    if kind == "zeros":
        return np.zeros(length)
    if kind == "const":
        return np.full(length, 0.37)
    return rng.normal(size=length)


class TestImagesAgainstOracle:
    @given(_image_rows, _seeds, st.sampled_from([8, 16, 32]))
    @settings(max_examples=60, deadline=None)
    def test_float64_images_byte_identical(self, spec, seed, size):
        rng = np.random.default_rng(seed)
        rows = [_image_row(kind, n, rng) for kind, n in spec]
        got = spectrogram_image_batch(rows, FS, size=size)
        for row, image in zip(rows, got):
            assert image.dtype == np.float64
            ref = reference_spectrogram_image(row, FS, size=size)
            assert ref.tobytes() == image.tobytes()

    @given(
        st.lists(st.integers(min_value=8, max_value=700), min_size=1, max_size=8),
        _seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_float32_policy_within_tolerance(self, lengths, seed):
        rng = np.random.default_rng(seed)
        rows = [rng.normal(size=n) for n in lengths]  # well conditioned
        hot = spectrogram_image_batch(rows, FS, dtype=np.float32)
        for row, image in zip(rows, hot):
            assert image.dtype == np.float32
            ref = reference_spectrogram_image(row, FS)
            np.testing.assert_allclose(image, ref, rtol=0, atol=2e-3)
