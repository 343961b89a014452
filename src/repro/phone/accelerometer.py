"""MEMS accelerometer ADC model.

The sensor front end is where the side channel becomes a data stream:

- the proof mass tracks chassis vibration to several kilohertz, but the
  output data rate is only a few hundred hertz and there is **no acoustic
  anti-aliasing filter**, so speech-band vibration folds into the output
  band (:func:`repro.dsp.resample.sample_and_decimate_batch`);
- a gravity component rides on the sensitive (Z) axis;
- thermal-mechanical noise sets the resolution floor;
- the digital output is quantised to the sensor's LSB and clipped at its
  full-scale range.

Android 12's privacy cap is expressed by constructing the sensor with
``fs=200`` (ablation A1 / paper Section VI-A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.dsp.resample import decimated_length, sample_and_decimate_batch

__all__ = ["Accelerometer", "digitise_stack"]

GRAVITY = 9.80665


@dataclass(frozen=True)
class Accelerometer:
    """Accelerometer output model (single sensitive axis).

    Attributes
    ----------
    fs:
        Output data rate in Hz (the Physics Toolbox default on the
        paper's phones is ≈400–500 Hz; Android 12 caps background apps
        at 200 Hz).
    noise_rms:
        RMS of the white sensor-noise floor, m/s^2.
    lsb:
        Quantisation step, m/s^2 (typical MEMS parts: ~0.0012 for a
        16-bit ±4 g range).
    full_scale:
        Clipping range, m/s^2 (±4 g default).
    include_gravity:
        Add the 1 g static offset on the sensitive axis (the paper's raw
        Z-axis traces sit near -9.8 / +9.8 m/s^2, Fig. 3b/4a).
    """

    fs: float = 420.0
    noise_rms: float = 0.0035
    lsb: float = 0.0012
    full_scale: float = 4.0 * GRAVITY
    include_gravity: bool = True

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ValueError("sampling rate must be positive")
        if self.noise_rms < 0 or self.lsb < 0:
            raise ValueError("noise_rms and lsb must be non-negative")

    def sample(
        self,
        vibration: np.ndarray,
        fs_in: float,
        rng: np.random.Generator,
        slow_component: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Digitise a high-rate vibration waveform.

        Parameters
        ----------
        vibration:
            Chassis acceleration at the sensor site, sampled at ``fs_in``.
        slow_component:
            Optional additional low-frequency acceleration (hand motion,
            envelope-coupled drift) at the same rate, added *before*
            sampling.
        """
        vibration = np.asarray(vibration, dtype=float)
        if vibration.ndim != 1:
            raise ValueError(f"expected a 1-D signal, got shape {vibration.shape}")
        stack = vibration[None].copy()
        return self.sample_stack(stack, [vibration.size], fs_in, [rng], [slow_component])[0]

    def sample_stack(
        self,
        vibration: np.ndarray,
        lengths,
        fs_in: float,
        rngs: Sequence[np.random.Generator],
        slow: Optional[Iterable[Optional[np.ndarray]]] = None,
    ) -> List[np.ndarray]:
        """:meth:`sample` of every row of a ragged ``(rows, width)`` stack.

        See :func:`digitise_stack`; the gravity offset rides on every row.
        """
        offset = GRAVITY if self.include_gravity else None
        return digitise_stack(self, vibration, lengths, fs_in, rngs, slow, offset=offset)


def digitise_stack(
    sensor,
    vibration: np.ndarray,
    lengths,
    fs_in: float,
    rngs: Sequence[np.random.Generator],
    slow: Optional[Iterable[Optional[np.ndarray]]] = None,
    coupling: Optional[float] = None,
    offset: Optional[float] = None,
) -> List[np.ndarray]:
    """The ADC front end of ``sensor`` over a ragged vibration stack.

    Row ``r`` is ``vibration[r, :lengths[r]]`` and draws from ``rngs[r]``,
    in :meth:`Accelerometer.sample`'s order: its slow component (the next
    entry of ``slow``, which may be a generator drawing from that same
    generator), then the ADC phase, then the noise block. The signal is
    ``coupling * vibration + coupling * slow`` (no scaling when
    ``coupling`` is None); ``vibration`` is scratch for that sum. The
    rows are then sampled in one stacked lerp
    (:func:`repro.dsp.resample.sample_and_decimate_batch`) and offset,
    noised, quantised and clipped as one stack. Returns each row's
    samples as a view of that stack.
    """
    vibration = np.asarray(vibration, dtype=float)
    lengths = np.asarray(lengths, dtype=np.intp)
    if vibration.ndim != 2 or lengths.shape != vibration.shape[:1]:
        raise ValueError(
            f"expected a (rows, width) stack and one length per row, got "
            f"shapes {vibration.shape} and {lengths.shape}"
        )
    if len(rngs) != lengths.size:
        raise ValueError("vibration rows and rngs must have the same length")
    if coupling is not None:
        vibration *= coupling
    phases = np.empty(lengths.size)
    noise = []
    extras = itertools.repeat(None) if slow is None else slow
    for r, (rng, n, extra) in enumerate(zip(rngs, lengths, extras)):
        if extra is not None:
            extra = np.asarray(extra, dtype=float)
            if extra.shape != (n,):
                raise ValueError(
                    f"slow_component shape {extra.shape} != vibration shape {(int(n),)}"
                )
            vibration[r, :n] += extra if coupling is None else coupling * extra
        phases[r] = rng.uniform(0.0, 1.0)
        if sensor.noise_rms > 0:
            m = decimated_length(int(n), fs_in, sensor.fs, phases[r])
            noise.append(rng.normal(0.0, sensor.noise_rms, m))
    sampled, n_out = sample_and_decimate_batch(vibration, lengths, fs_in, sensor.fs, phases)
    if offset is not None:
        sampled += offset
    for row, block in zip(sampled, noise):
        row[: block.size] += block
    if sensor.lsb > 0:
        sampled /= sensor.lsb
        np.round(sampled, out=sampled)
        sampled *= sensor.lsb
    np.clip(sampled, -sensor.full_scale, sensor.full_scale, out=sampled)
    return [row[:m] for row, m in zip(sampled, n_out)]
