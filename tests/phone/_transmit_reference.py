"""Byte-parity oracle for the stacked table-top transmit path.

The list-based vibration channel as it ran before the chunk became one
stack, kept verbatim: :func:`reference_sosfilt_zero_phase_batch` (odd
extensions built per row, stacked per length bucket, reversed per row),
:func:`reference_transmit_batch` (the roll-off over all rows, then the
compression and chassis biquad re-stacked per bucket, then the sensor
front end per row) and :func:`reference_sample_and_decimate` (one
``np.interp`` per row). The production code in :mod:`repro.phone` and
:mod:`repro.dsp` must reproduce every row byte for byte. Test-only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy import signal as _signal
from scipy.signal import lfilter

from repro.dsp.filters import cached_butter_highpass
from repro.phone.accelerometer import GRAVITY, Accelerometer
from repro.phone.channel import Placement, VibrationChannel
from repro.phone.gyroscope import Gyroscope


def reference_sample_and_decimate(
    x: np.ndarray, fs_in: float, fs_out: float, phase: float = 0.0
) -> np.ndarray:
    """Point-sample ``x`` at ``fs_out`` through one ``np.interp`` call."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    if not 0.0 <= phase < 1.0:
        raise ValueError(f"phase must be in [0, 1), got {phase}")
    if x.size == 0:
        return x.copy()
    duration = x.size / fs_in
    n_out = int(np.floor((duration - phase / fs_out) * fs_out))
    n_out = max(1, n_out)
    t_out = (np.arange(n_out) + phase) / fs_out
    t_in = np.arange(x.size) / fs_in
    return np.interp(t_out, t_in, x)


def reference_sample(
    sensor, vibration: np.ndarray, fs_in: float, rng, slow_component=None
) -> np.ndarray:
    """One row through an :class:`Accelerometer` or :class:`Gyroscope`."""
    vibration = np.asarray(vibration, dtype=float)
    if isinstance(sensor, Gyroscope):
        total = sensor.rotational_coupling * vibration
        if slow_component is not None:
            total = total + sensor.rotational_coupling * np.asarray(slow_component, dtype=float)
        phase = float(rng.uniform(0.0, 1.0))
        sampled = reference_sample_and_decimate(total, fs_in, sensor.fs, phase=phase)
    else:
        assert isinstance(sensor, Accelerometer)
        total = vibration
        if slow_component is not None:
            total = total + np.asarray(slow_component, dtype=float)
        phase = float(rng.uniform(0.0, 1.0))
        sampled = reference_sample_and_decimate(total, fs_in, sensor.fs, phase=phase)
        if sensor.include_gravity:
            sampled = sampled + GRAVITY
    if sensor.noise_rms > 0:
        sampled = sampled + rng.normal(0.0, sensor.noise_rms, sampled.size)
    if sensor.lsb > 0:
        sampled = np.round(sampled / sensor.lsb) * sensor.lsb
    return np.clip(sampled, -sensor.full_scale, sensor.full_scale)


def reference_zero_phase_state(sos: np.ndarray):
    """The odd-extension edge length and the steady-state ``zi``."""
    n_sections = sos.shape[0]
    ntaps = 2 * n_sections + 1
    ntaps -= min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
    return 3 * ntaps, _signal.sosfilt_zi(sos)


def reference_sosfilt_zero_phase(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One row: odd extension, forward and reverse ``sosfilt`` passes."""
    x = np.asarray(x, dtype=float)
    pad = 3 * (sos.shape[0] * 2 + 1)
    if x.size <= pad:
        return _signal.sosfilt(sos, x)
    edge, zi = reference_zero_phase_state(sos)
    left = 2 * x[:1] - x[edge:0:-1]
    right = 2 * x[-1:] - x[-2 : -(edge + 2) : -1]
    ext = np.concatenate((left, x, right))
    y, _ = _signal.sosfilt(sos, ext, zi=zi * ext[:1])
    y, _ = _signal.sosfilt(sos, y[::-1], zi=zi * y[-1:])
    y = y[::-1]
    if edge > 0:
        y = y[edge:-edge]
    return y


def reference_length_buckets(sizes, max_ratio: float = 1.3) -> list:
    """Indices grouped by size, splitting past ``max_ratio`` x a bucket's shortest."""
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    buckets = [[order[0]]]
    for i in order[1:]:
        if sizes[i] > max_ratio * sizes[buckets[-1][0]]:
            buckets.append([i])
        else:
            buckets[-1].append(i)
    return buckets


def reference_sosfilt_zero_phase_batch(sos: np.ndarray, xs) -> list:
    """The list-based stacked zero-phase filter, one output array per row."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    results: list = [None] * len(xs)
    pad = 3 * (sos.shape[0] * 2 + 1)
    live = []
    for i, x in enumerate(xs):
        if x.size <= pad:
            results[i] = _signal.sosfilt(sos, x)
        else:
            live.append(i)
    if not live:
        return results
    if len(live) == 1:
        results[live[0]] = reference_sosfilt_zero_phase(sos, xs[live[0]])
        return results

    edge, zi = reference_zero_phase_state(sos)
    exts = []
    for i in live:
        x = xs[i]
        left = 2 * x[:1] - x[edge:0:-1]
        right = 2 * x[-1:] - x[-2 : -(edge + 2) : -1]
        exts.append(np.concatenate((left, x, right)))
    sizes = [e.size for e in exts]
    for bucket in reference_length_buckets(sizes):
        width = sizes[bucket[-1]]
        k = len(bucket)
        stack = np.zeros((k, width))
        heads = np.empty(k)
        for r, j in enumerate(bucket):
            stack[r, : sizes[j]] = exts[j]
            heads[r] = exts[j][0]
        fwd, _ = _signal.sosfilt(sos, stack, axis=-1, zi=zi[:, None, :] * heads[None, :, None])
        rev = np.zeros((k, width))
        for r, j in enumerate(bucket):
            rev[r, : sizes[j]] = fwd[r, : sizes[j]][::-1]
            heads[r] = fwd[r, sizes[j] - 1]
        bwd, _ = _signal.sosfilt(sos, rev, axis=-1, zi=zi[:, None, :] * heads[None, :, None])
        for r, j in enumerate(bucket):
            results[live[j]] = bwd[r, : sizes[j]][::-1][edge:-edge]
    return results


def _reference_transmit_one(
    channel: VibrationChannel, audio: np.ndarray, audio_fs: float, rng
) -> np.ndarray:
    """Per-row table-top transmit of an empty row (speaker, chassis, sensor)."""
    slow = np.zeros(0)
    if channel.environment is not None:
        slow = slow + channel.environment.noise(0, audio_fs, rng)
    return reference_sample(channel._accel, np.asarray(audio, dtype=float), audio_fs, rng, slow)


def reference_transmit_batch(
    channel: VibrationChannel,
    audios: Sequence[np.ndarray],
    audio_fs: float,
    rngs: Sequence[np.random.Generator],
) -> List[np.ndarray]:
    """Table-top transmit of ragged rows, each with its own generator."""
    assert channel.placement is Placement.TABLE_TOP
    audios = [np.asarray(a, dtype=float) for a in audios]
    traces: List[Optional[np.ndarray]] = [None] * len(audios)
    work = [i for i in range(len(audios)) if audios[i].size > 0]
    for i in range(len(audios)):
        if audios[i].size == 0:
            traces[i] = _reference_transmit_one(channel, audios[i], audio_fs, rngs[i])
    if not work:
        return traces  # type: ignore[return-value]

    lengths = [audios[i].size for i in work]
    speaker = channel._speaker
    if 0 < speaker.rolloff_hz < 0.45 * audio_fs:
        sos = cached_butter_highpass(speaker.rolloff_hz, audio_fs, order=2)
        rolled = reference_sosfilt_zero_phase_batch(sos, [audios[i] for i in work])
    else:
        rolled = [audios[i] for i in work]

    chassis = channel._chassis
    f0 = min(chassis.resonance_hz, 0.45 * audio_fs)
    w0 = 2.0 * np.pi * f0 / audio_fs
    q = max(chassis.q_factor, 0.3)
    alpha = np.sin(w0) / (2.0 * q)
    b = np.array([alpha, 0.0, -alpha])
    a = np.array([1.0 + alpha, -2.0 * np.cos(w0), 1.0 - alpha])

    vib_rows: List[Optional[np.ndarray]] = [None] * len(work)
    for bucket in reference_length_buckets(lengths):
        stack = np.zeros((len(bucket), lengths[bucket[-1]]))
        for s, r in enumerate(bucket):
            stack[s, : lengths[r]] = rolled[r]
        if speaker.compression > 0:
            knee = max(1e-6, 1.0 - speaker.compression)
            stack /= knee
            np.tanh(stack, out=stack)
            stack *= knee
        force = speaker.drive_gain * stack
        vibration = lfilter(b / a[0], a / a[0], force, axis=-1)
        vibration *= 0.6
        force *= 0.4
        vibration += force
        vibration *= chassis.attenuation
        for s, r in enumerate(bucket):
            vib_rows[r] = vibration[s, : lengths[r]]

    for r, i in enumerate(work):
        vib = vib_rows[r]
        rng = rngs[i]
        slow = None
        if channel.environment is not None:
            slow = channel.environment.noise(vib.size, audio_fs, rng)
        traces[i] = reference_sample(channel._accel, vib, audio_fs, rng, slow_component=slow)
    return traces  # type: ignore[return-value]
