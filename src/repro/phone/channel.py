"""End-to-end vibration channel: audio waveform in, accelerometer trace out.

:class:`VibrationChannel` composes the speaker drive, chassis transfer,
handheld motion processes and the accelerometer ADC according to the
scenario (device x speaker mode x placement), mirroring the paper's four
data-collection configurations:

- **loudspeaker / table-top** (Tables III-V): strong drive, no body
  motion, no filtering needed anywhere;
- **ear speaker / handheld** (Table VI): ~25 dB weaker drive, hand/body
  motion below 8 Hz, plus the sub-1 Hz envelope-coupled drift that
  carries the Table I raw-feature information.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.signal import lfilter

from repro.dsp.filters import (
    _length_buckets,
    cached_butter_highpass,
    sosfilt_zero_phase_batch,
)
from repro.phone.accelerometer import Accelerometer
from repro.phone.chassis import ChassisTransfer
from repro.phone.devices import DeviceProfile, get_device
from repro.phone.motion import HandheldMotion, MotionProcess
from repro.phone.speaker import SpeakerModel, ear_speaker_model, loudspeaker_model

__all__ = ["SpeakerMode", "Placement", "VibrationChannel"]


class SpeakerMode(str, enum.Enum):
    """Which speaker plays the audio."""

    LOUDSPEAKER = "loudspeaker"
    EAR_SPEAKER = "ear_speaker"


class Placement(str, enum.Enum):
    """How the phone is held during collection."""

    TABLE_TOP = "table_top"
    HANDHELD = "handheld"


@dataclass
class VibrationChannel:
    """Audio-to-accelerometer simulation for one scenario.

    Parameters
    ----------
    device:
        Device profile or canonical name.
    mode:
        Loudspeaker or ear speaker.
    placement:
        Table-top or handheld (the paper pairs loudspeaker with table-top
        and ear speaker with handheld; other pairings are allowed for
        ablations).
    sample_rate:
        Override of the accelerometer output rate (e.g. 200 for the
        Android-12 cap ablation). ``None`` uses the device default.
    sensor:
        ``"accelerometer"`` (the paper's choice) or ``"gyroscope"``
        (the weaker alternative, for the Section III-B1 sensor-choice
        ablation).
    environment:
        Optional ambient-environment name (``quiet_room``,
        ``busy_office``, ``vehicle``) or an
        :class:`~repro.phone.environment.EnvironmentNoise` instance —
        the paper's future-work "various environments" extension.
        ``None`` means an ideal vibration-free surface.
    seed:
        Seed for the channel's noise processes.
    """

    device: DeviceProfile
    mode: SpeakerMode = SpeakerMode.LOUDSPEAKER
    placement: Placement = Placement.TABLE_TOP
    sample_rate: Optional[float] = None
    sensor: str = "accelerometer"
    environment: Optional[object] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.device, str):
            self.device = get_device(self.device)
        self.mode = SpeakerMode(self.mode)
        self.placement = Placement(self.placement)
        if self.mode is SpeakerMode.LOUDSPEAKER:
            self._speaker: SpeakerModel = loudspeaker_model(self.device.loud_gain)
        else:
            self._speaker = ear_speaker_model(self.device.ear_gain)
        self._chassis = ChassisTransfer(
            resonance_hz=self.device.resonance_hz,
            q_factor=self.device.q_factor,
        )
        fs_out = float(self.sample_rate or self.device.accel_fs)
        if self.sensor == "accelerometer":
            self._accel = Accelerometer(fs=fs_out, noise_rms=self.device.noise_rms)
        elif self.sensor == "gyroscope":
            from repro.phone.gyroscope import Gyroscope

            self._accel = Gyroscope(fs=fs_out)
        else:
            raise ValueError(
                f"sensor must be 'accelerometer' or 'gyroscope', got {self.sensor!r}"
            )
        if isinstance(self.environment, str):
            from repro.phone.environment import get_environment

            self.environment = get_environment(self.environment)
        self._motion_config = HandheldMotion()
        self._rng = np.random.default_rng(self.seed)
        self._motion = MotionProcess(
            self._motion_config, np.random.default_rng(self.seed + 101)
        )

    @property
    def accel_fs(self) -> float:
        """Accelerometer output rate of this channel, Hz."""
        return self._accel.fs

    def reseed(self, seed: int) -> None:
        """Reset the channel noise RNG and motion process (new session)."""
        self._rng = np.random.default_rng(seed)
        self._motion = MotionProcess(
            self._motion_config, np.random.default_rng(seed + 101)
        )

    def transmit(
        self,
        audio: np.ndarray,
        audio_fs: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Play ``audio`` through the scenario and return the accel trace.

        Returns the sensitive-axis accelerometer samples at
        :attr:`accel_fs`, gravity offset included.
        """
        audio = np.asarray(audio, dtype=float)
        if audio.ndim != 1:
            raise ValueError(f"expected a 1-D audio signal, got shape {audio.shape}")
        if rng is None:
            rng = self._rng
        force = self._speaker.drive(audio, audio_fs)
        vibration = self._chassis.transfer(force, audio_fs)
        slow = np.zeros_like(vibration)
        if self.placement is Placement.HANDHELD:
            slow = slow + self._motion.advance(vibration.size, audio_fs)
            # Envelope-coupled drift scales with the *drive* level so the
            # louder an emotional delivery, the larger the slow offset.
            slow = slow + self._motion.drift(force, audio_fs)
        if self.environment is not None:
            slow = slow + self.environment.noise(vibration.size, audio_fs, rng)
        return self._accel.sample(vibration, audio_fs, rng, slow_component=slow)

    def transmit_batch(
        self,
        audios: Sequence[np.ndarray],
        audio_fs: float,
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        """Batched :meth:`transmit`, byte-identical per row.

        Each row keeps its own generator (matching the engine's
        per-utterance RNG derivation), the speaker rolloff runs as two
        stacked causal passes over all rows
        (:func:`repro.dsp.filters.sosfilt_zero_phase_batch`), and the
        compression nonlinearity plus the causal chassis biquad run once
        over the padded stack. The sensor front end stays per row
        because it draws from the row's generator.

        Handheld placement is rejected: the motion process is stateful
        across calls, so the engine routes those rows through per-row
        :meth:`transmit` on cloned channels instead.
        """
        if self.placement is Placement.HANDHELD:
            raise ValueError(
                "transmit_batch does not support handheld placement; "
                "use per-row transmit() on cloned channels"
            )
        if len(audios) != len(rngs):
            raise ValueError("audios and rngs must have the same length")
        audios = [np.asarray(a, dtype=float) for a in audios]
        for i, audio in enumerate(audios):
            if audio.ndim != 1:
                raise ValueError(f"audio {i} must be 1-D, got shape {audio.shape}")
        traces: List[Optional[np.ndarray]] = [None] * len(audios)
        work = [i for i in range(len(audios)) if audios[i].size > 0]
        for i in range(len(audios)):
            if audios[i].size == 0:
                traces[i] = self.transmit(audios[i], audio_fs, rngs[i])
        if not work:
            return traces  # type: ignore[return-value]

        lengths = [audios[i].size for i in work]
        speaker = self._speaker
        if 0 < speaker.rolloff_hz < 0.45 * audio_fs:
            sos = cached_butter_highpass(speaker.rolloff_hz, audio_fs, order=2)
            rolled = sosfilt_zero_phase_batch(sos, [audios[i] for i in work])
        else:
            rolled = [audios[i] for i in work]

        chassis = self._chassis
        f0 = min(chassis.resonance_hz, 0.45 * audio_fs)
        w0 = 2.0 * np.pi * f0 / audio_fs
        q = max(chassis.q_factor, 0.3)
        alpha = np.sin(w0) / (2.0 * q)
        b = np.array([alpha, 0.0, -alpha])
        a = np.array([1.0 + alpha, -2.0 * np.cos(w0), 1.0 - alpha])

        # Stack rows in length buckets: the compression tanh and the
        # chassis biquad cost per padded sample, so near-equal rows
        # share a stack while outliers get their own.
        vib_rows: List[Optional[np.ndarray]] = [None] * len(work)
        for bucket in _length_buckets(lengths):
            stack = np.zeros((len(bucket), lengths[bucket[-1]]))
            for s, r in enumerate(bucket):
                stack[s, : lengths[r]] = rolled[r]
            if speaker.compression > 0:
                knee = max(1e-6, 1.0 - speaker.compression)
                stack /= knee
                np.tanh(stack, out=stack)
                stack *= knee
            force = speaker.drive_gain * stack
            # attenuation * (0.6 * resonant + 0.4 * force), in place.
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
            if self.environment is not None:
                slow = self.environment.noise(vib.size, audio_fs, rng)
            traces[i] = self._accel.sample(vib, audio_fs, rng, slow_component=slow)
        return traces  # type: ignore[return-value]
