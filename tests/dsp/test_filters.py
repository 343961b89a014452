"""Tests for repro.dsp.filters."""

import numpy as np
import pytest

from repro.dsp.filters import (
    bandpass,
    butter_bandpass,
    butter_highpass,
    butter_lowpass,
    highpass,
    lowpass,
    sosfilt_zero_phase,
    sosfilt_zero_phase_batch,
    zero_phase_edge,
)


def tone(freq, fs, duration=2.0):
    t = np.arange(int(duration * fs)) / fs
    return np.sin(2 * np.pi * freq * t)


class TestDesign:
    def test_highpass_shape(self):
        sos = butter_highpass(8.0, 420.0, order=4)
        assert sos.ndim == 2 and sos.shape[1] == 6

    def test_invalid_cutoff_zero(self):
        with pytest.raises(ValueError):
            butter_highpass(0.0, 420.0)

    def test_invalid_cutoff_above_nyquist(self):
        with pytest.raises(ValueError):
            butter_lowpass(300.0, 420.0)

    def test_bandpass_order_of_edges(self):
        with pytest.raises(ValueError):
            butter_bandpass(50.0, 10.0, 420.0)


class TestHighpass:
    def test_removes_dc(self):
        x = np.ones(2000) * 5.0
        y = highpass(x, 8.0, 420.0)
        assert np.max(np.abs(y[100:-100])) < 1e-6

    def test_passes_high_frequency(self):
        fs = 420.0
        x = tone(100.0, fs)
        y = highpass(x, 8.0, fs)
        ratio = np.std(y[200:-200]) / np.std(x[200:-200])
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_attenuates_below_cutoff(self):
        fs = 420.0
        x = tone(1.0, fs, duration=8.0)
        y = highpass(x, 8.0, fs)
        assert np.std(y) < 0.05 * np.std(x)

    def test_zero_phase_no_delay(self):
        # A symmetric pulse stays centred after zero-phase filtering.
        fs = 420.0
        x = np.zeros(1001)
        x[500] = 1.0
        y = highpass(x, 8.0, fs)
        assert abs(int(np.argmax(np.abs(y))) - 500) <= 1


class TestLowpass:
    def test_passes_dc(self):
        x = np.ones(2000) * 3.0
        y = lowpass(x, 10.0, 420.0)
        assert np.allclose(y[200:-200], 3.0, atol=1e-6)

    def test_removes_high_frequency(self):
        fs = 420.0
        x = tone(150.0, fs)
        y = lowpass(x, 10.0, fs)
        # Interior only: filtfilt edge transients dominate the borders.
        assert np.std(y[200:-200]) < 0.02 * np.std(x[200:-200])


class TestBandpass:
    def test_passes_in_band(self):
        fs = 420.0
        x = tone(50.0, fs, 4.0)
        y = bandpass(x, 20.0, 100.0, fs)
        assert np.std(y[200:-200]) > 0.9 * np.std(x[200:-200])

    def test_rejects_out_of_band(self):
        fs = 420.0
        lo = tone(2.0, fs, 4.0)
        hi = tone(180.0, fs, 4.0)
        assert np.std(bandpass(lo, 20.0, 100.0, fs)) < 0.05
        assert np.std(bandpass(hi, 20.0, 100.0, fs)) < 0.05


class TestZeroPhase:
    def test_rejects_2d(self):
        sos = butter_highpass(8.0, 420.0)
        with pytest.raises(ValueError):
            sosfilt_zero_phase(sos, np.zeros((4, 4)))

    def test_short_signal_fallback(self):
        sos = butter_highpass(8.0, 420.0, order=4)
        y = sosfilt_zero_phase(sos, np.ones(10))
        assert y.shape == (10,)

    def test_matches_scipy_sosfiltfilt(self):
        from scipy.signal import sosfiltfilt

        sos = butter_highpass(8.0, 420.0, order=4)
        x = np.random.default_rng(0).normal(size=500)
        np.testing.assert_allclose(
            sosfilt_zero_phase(sos, x), sosfiltfilt(sos, x), rtol=0, atol=1e-12
        )


class TestPrivateKernelPinnedToScipy:
    """The zero-phase stack calls scipy's private ``_sosfilt`` kernel in
    place. Its rows must equal the public functions byte for byte, so a
    scipy release that moves or changes that kernel fails here."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("placed", [False, True])
    def test_rows_equal_sosfiltfilt_bytes(self, order, placed):
        from scipy.signal import sosfilt, sosfiltfilt

        sos = butter_highpass(8.0, 420.0, order=order)
        rng = np.random.default_rng(order)
        threshold = 3 * (2 * sos.shape[0] + 1)
        lengths = [threshold + 1, 40, 500, 1207, 3] if not placed else [threshold + 1, 500, 1207]
        rows = [9.81 + rng.normal(size=n) for n in lengths]
        lead = zero_phase_edge(sos) if placed else 0
        stack = np.zeros((len(rows), 2 * lead + max(lengths)))
        for r, row in zip(stack, rows):
            r[lead : lead + row.size] = row
        got = sosfilt_zero_phase_batch(sos, stack, lengths, lead=lead)
        for g, row in zip(got, rows):
            expected = sosfiltfilt(sos, row) if row.size > threshold else sosfilt(sos, row)
            assert g[: row.size].tobytes() == expected.tobytes()


class TestZeroPhaseCache:
    def test_cache_is_bounded_and_eviction_keeps_bytes(self):
        """More distinct filters than the cap: the cache stays at the cap,
        and a filter whose state was evicted filters to the same bytes."""
        from repro.dsp.filters import _zero_phase_solve

        cap = _zero_phase_solve.cache_info().maxsize
        _zero_phase_solve.cache_clear()
        x = np.random.default_rng(1).normal(size=300)
        first = butter_highpass(5.0, 420.0, order=4)
        before = sosfilt_zero_phase(first, x).tobytes()
        for i in range(cap + 10):
            sosfilt_zero_phase(butter_highpass(6.0 + 0.5 * i, 420.0, order=4), x)
            assert _zero_phase_solve.cache_info().currsize <= cap
        misses = _zero_phase_solve.cache_info().misses
        assert sosfilt_zero_phase(first, x).tobytes() == before
        assert _zero_phase_solve.cache_info().misses == misses + 1  # it was evicted
