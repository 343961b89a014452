"""Property-based tests (hypothesis) for the batched data plane.

The properties are the container/stage contracts themselves:

- packing then unpacking a ragged row set is the identity, bitwise, for
  any row lengths and any extra padding width;
- batched stages are row-wise maps, so permuting the batch permutes the
  outputs and changes nothing else;
- the vectorised hysteresis span walk equals the serial per-sample loop
  on arbitrary envelopes;
- the float32 hot path stays within its documented tolerance of the
  float64 numerics on well-conditioned signals (degenerate rows may flip
  threshold branches — that is documented hot-path semantics, so the
  property constrains itself to healthy inputs).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.features import extract_features_batch
from repro.attack.regions import _hysteresis_spans
from repro.batch import UtteranceBatch
from repro.dsp.envelope import moving_rms

from tests.attack._detect_reference import reference_detection_signal

# -- strategies -------------------------------------------------------------

_lengths = st.lists(st.integers(min_value=0, max_value=300), min_size=0, max_size=8)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _rows_from(lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for n in lengths]


def _reference_hysteresis(envelope, on, off):
    """The original serial per-sample open/close loop."""
    spans = []
    start = None
    for i, v in enumerate(envelope):
        if start is None:
            if v >= on:
                start = i
        elif v < off:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(envelope)))
    return spans


class TestPackRoundTrip:
    @given(_lengths, _seeds, st.integers(min_value=0, max_value=512))
    @settings(max_examples=60, deadline=None)
    def test_identity_at_any_padding(self, lengths, seed, extra_cols):
        rows = _rows_from(lengths, seed)
        batch = UtteranceBatch.pack(rows, min_cols=extra_cols)
        batch.check_padding()
        out = batch.unpack()
        assert len(out) == len(rows)
        for a, b in zip(rows, out):
            assert a.tobytes() == b.tobytes()

    @given(_lengths, _seeds)
    @settings(max_examples=40, deadline=None)
    def test_padded_to_is_pad_invariant(self, lengths, seed):
        rows = _rows_from(lengths, seed)
        batch = UtteranceBatch.pack(rows)
        wide = batch.padded_to(batch.max_len + 64)
        for a, b in zip(batch.unpack(), wide.unpack()):
            assert a.tobytes() == b.tobytes()


class TestPermutationInvariance:
    @given(
        st.lists(st.integers(min_value=16, max_value=200), min_size=2, max_size=6),
        _seeds,
        _seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_features_batch_is_row_wise(self, lengths, seed, perm_seed):
        rows = _rows_from(lengths, seed)
        order = np.random.default_rng(perm_seed).permutation(len(rows))
        straight = extract_features_batch(rows, 500.0)
        shuffled = extract_features_batch([rows[i] for i in order], 500.0)
        assert straight[order].tobytes() == shuffled.tobytes()


class TestHysteresisWalk:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=0,
            max_size=120,
        ),
        st.floats(min_value=0.1, max_value=3.5),
        st.floats(min_value=0.0, max_value=3.4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_serial_loop(self, values, on, off):
        off = min(off, on)  # hysteresis: close threshold below open
        envelope = np.asarray(values)
        assert _hysteresis_spans(envelope, on, off) == _reference_hysteresis(
            envelope, on, off
        )


class TestBatchedMovingRms:
    @given(
        st.lists(st.integers(min_value=2, max_value=400), min_size=1, max_size=5),
        _seeds,
        st.floats(min_value=0.002, max_value=0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_detection_envelope_parity(self, lengths, seed, window_s):
        # detect_batch's cumulative-sum envelope stack must equal the
        # scalar moving_rms row by row.
        from repro.attack.regions import RegionDetector

        rows = _rows_from(lengths, seed)
        detector = RegionDetector(envelope_window_s=window_s, highpass_hz=None)
        stack, sizes = detector._envelope_stack(rows, 500.0)
        for row, env in zip(rows, (stack[r, :n] for r, n in enumerate(sizes))):
            ref = reference_detection_signal(detector, row, 500.0)
            assert ref.tobytes() == env.tobytes()
            window = max(3, int(round(window_s * 500.0)))
            assert moving_rms(row - np.median(row), window).tobytes() == env.tobytes()


class TestFloat32Tolerance:
    @given(
        st.lists(st.integers(min_value=64, max_value=400), min_size=1, max_size=5),
        _seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_features_close_on_healthy_signals(self, lengths, seed):
        rows = _rows_from(lengths, seed)  # unit-variance noise: well conditioned
        golden = extract_features_batch(rows, 500.0)
        hot = extract_features_batch(rows, 500.0, dtype=np.float32)
        assert hot.dtype == np.float32
        np.testing.assert_allclose(
            hot, golden.astype(np.float32), rtol=2e-3, atol=2e-3
        )
