"""Property tests (hypothesis): the stacked transmit path against its oracle.

A table-top chunk is one padded 8 kHz stack from the speaker roll-off to
the ADC; ``tests/phone/_transmit_reference.py`` keeps the list-based
path it replaced, and every row must come out of the stack byte for
byte as the oracle makes it. The chunks mix the rows that take the
unusual branches:

- empty audio rows, and rows no longer than the zero-phase edge pad
  (one causal pass instead of two);
- lengths spread over several 1.3x stacking buckets, and a single row;
- a busy-office environment (noise drawn from the row's generator
  before its ADC phase), a gyroscope channel and a 200 Hz output rate;
- the stacked lerp against ``np.interp``: phase 0, phase just below 1,
  one-sample outputs, and rows carrying NaN and +-inf;
- the spectrogram framing gather against per-row ``frame_signal``.

Each oracle chunk is also sent a second time, with fresh generators, so
its rows come from the vibration memo and must still match byte for
byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.filters import cached_butter_highpass, sosfilt_zero_phase_batch, zero_phase_edge
from repro.dsp.resample import sample_and_decimate_batch
from repro.dsp.spectrogram import _frame_rows
from repro.dsp.stft import frame_signal
from repro.obs import metrics
from repro.phone import VibrationChannel

from tests.phone._transmit_reference import (
    reference_sample_and_decimate,
    reference_sosfilt_zero_phase_batch,
    reference_transmit_batch,
)

FS = 8000.0
_seeds = st.integers(min_value=0, max_value=2**32 - 1)
# 0 and <= 9 samples (the order-2 roll-off's edge pad), then lengths up
# to ~10x apart so one chunk spans several stacking buckets.
_lengths = st.one_of(
    st.integers(0, 9), st.integers(10, 400), st.integers(400, 4000)
)
_channels = st.sampled_from(
    [
        {},
        {"environment": "busy_office"},
        {"sensor": "gyroscope"},
        {"sample_rate": 200},
        {"mode": "ear_speaker"},
    ]
)


def _rows(lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.05, 0.8) * rng.normal(size=n) for n in lengths]


def _rngs(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def _assert_rows_equal(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


class TestTransmitBatchAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(_lengths, min_size=1, max_size=9),
        channel_kwargs=_channels,
        pad=st.sampled_from([0, 0, 5, 240]),
        seed=_seeds,
    )
    def test_rows_match_oracle(self, lengths, channel_kwargs, pad, seed):
        """Each chunk goes twice, as read-only rows: cold, then from the vibration memo."""
        channel = VibrationChannel("oneplus7t", seed=seed % 1000, **channel_kwargs)
        audios = _rows(lengths, seed)
        for audio in audios:
            audio.setflags(write=False)
        padded = [np.pad(a, pad) for a in audios]
        ref = reference_transmit_batch(channel, padded, FS, _rngs(seed, len(audios)))
        before = metrics().counter_total("transmit.cache_hits")
        for _ in range(2):
            got = channel.transmit_batch(audios, FS, _rngs(seed, len(audios)), pad=pad)
            _assert_rows_equal(got, ref)
        assert metrics().counter_total("transmit.cache_hits") - before == len(audios)

    @settings(max_examples=10, deadline=None)
    @given(n=_lengths, channel_kwargs=_channels, seed=_seeds)
    def test_single_row_matches_oracle_and_transmit(self, n, channel_kwargs, seed):
        channel = VibrationChannel("pixel5", **channel_kwargs)
        (audio,) = _rows([n], seed)
        (got,) = channel.transmit_batch([audio], FS, _rngs(seed, 1))
        (ref,) = reference_transmit_batch(channel, [audio], FS, _rngs(seed, 1))
        assert got.tobytes() == ref.tobytes()
        if channel.environment is None:
            alone = channel.transmit(audio, FS, _rngs(seed, 1)[0])
            assert alone.tobytes() == ref.tobytes()

    def test_empty_chunk_and_shared_generator(self):
        channel = VibrationChannel("oneplus7t")
        assert channel.transmit_batch([], FS, []) == []
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="own generator"):
            channel.transmit_batch(_rows([100, 200], 0), FS, [rng, rng])

    def test_traces_are_views_of_one_stack(self):
        channel = VibrationChannel("oneplus7t")
        traces = channel.transmit_batch(_rows([900, 1500, 4000], 3), FS, _rngs(3, 3))
        assert all(t.base is not None and t.base is traces[0].base for t in traces)


class TestZeroPhaseStackAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(
            st.one_of(st.integers(1, 40), st.integers(40, 2000)), min_size=1, max_size=8
        ),
        order=st.sampled_from([2, 4]),
        placed=st.booleans(),
        seed=_seeds,
    )
    def test_rows_match_oracle(self, lengths, order, placed, seed):
        sos = cached_butter_highpass(300.0, FS, order=order)
        rows = _rows(lengths, seed)
        lead = zero_phase_edge(sos) if placed else 0
        stack = np.full((len(rows), 2 * lead + max(lengths) + 3), np.nan)
        for r, row in zip(stack, rows):
            r[lead : lead + row.size] = row
        got = sosfilt_zero_phase_batch(sos, stack, lengths, lead=lead)
        ref = reference_sosfilt_zero_phase_batch(sos, rows)
        _assert_rows_equal([g[:n] for g, n in zip(got, lengths)], ref)
        for g, n in zip(got, lengths):
            assert not g[n:].any()


class TestStackedLerpAgainstInterp:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 600), min_size=1, max_size=6),
        phases=st.lists(
            st.one_of(
                st.just(0.0),
                st.just(float(np.nextafter(1.0, 0.0))),
                st.floats(0.0, 1.0, exclude_max=True),
            ),
            min_size=6,
            max_size=6,
        ),
        rates=st.sampled_from(
            [(8000.0, 420.0), (8000.0, 200.0), (44100.0, 500.0), (1000.0, 999.0)]
        ),
        poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        seed=_seeds,
    )
    def test_rows_match_np_interp(self, lengths, phases, rates, poison, seed):
        fs_in, fs_out = rates
        rng = np.random.default_rng(seed)
        rows = [rng.normal(size=n) for n in lengths]
        if poison is not None:
            for row in rows:
                if row.size:
                    row[rng.integers(0, row.size, size=1 + row.size // 50)] = poison
        stack = np.zeros((len(rows), max(lengths) + 2))
        for r, row in zip(stack, rows):
            r[: row.size] = row
        phases = phases[: len(rows)]
        got, n_out = sample_and_decimate_batch(stack, lengths, fs_in, fs_out, phases)
        ref = [reference_sample_and_decimate(row, fs_in, fs_out, p) for row, p in zip(rows, phases)]
        _assert_rows_equal([g[:m] for g, m in zip(got, n_out)], ref)

    def test_one_sample_rows_read_the_end_point(self):
        x = np.array([[1.5, -2.0, 7.0]])
        for n in (1, 2, 3):
            got, n_out = sample_and_decimate_batch(x, [n], 8000.0, 420.0, [0.9])
            ref = reference_sample_and_decimate(x[0, :n], 8000.0, 420.0, 0.9)
            assert n_out[0] == 1 and got[0, :1].tobytes() == ref.tobytes()


class TestFramingGather:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 300), min_size=1, max_size=8),
        geometry=st.sampled_from([(64, 16), (8, 4), (33, 7), (8, 1)]),
        seed=_seeds,
    )
    def test_matches_per_row_frame_signal(self, lengths, geometry, seed):
        fl, hl = geometry
        rows = _rows(lengths, seed)
        frames, counts = _frame_rows(rows, fl, hl)
        ref = [frame_signal(row, fl, hl, pad=True) for row in rows]
        assert counts.tolist() == [f.shape[0] for f in ref]
        assert frames.tobytes() == np.concatenate(ref, axis=0).tobytes()
