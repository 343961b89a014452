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
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.memo import ByteBudgetMemo
from repro.obs import metrics
from repro.phone.accelerometer import Accelerometer
from repro.phone.chassis import ChassisTransfer
from repro.phone.devices import DeviceProfile, get_device
from repro.phone.motion import HandheldMotion, MotionProcess
from repro.phone.speaker import SpeakerModel, ear_speaker_model, loudspeaker_model

__all__ = ["SpeakerMode", "Placement", "VibrationChannel", "TRANSMIT_MEMO_BYTES"]

#: Byte budget of the process-wide vibration memo, the render memo's
#: (:data:`repro.datasets.base.RENDER_MEMO_BYTES`): at ~93 KB per padded
#: 8 kHz utterance it holds the vibration of ~2,800 utterances.
TRANSMIT_MEMO_BYTES = 256 << 20

#: Table-top vibration rows (speaker drive, then chassis transfer) keyed
#: by ``(id(audio), speaker, chassis, audio_fs, pad)``; each value is
#: ``(weakref to audio, read-only row)``. Module state, so a pickled
#: channel never carries it to a worker process.
_TRANSMIT_MEMO = ByteBudgetMemo(TRANSMIT_MEMO_BYTES, "transmit.cache_evictions")


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
            raise ValueError(f"sensor must be 'accelerometer' or 'gyroscope', got {self.sensor!r}")
        if isinstance(self.environment, str):
            from repro.phone.environment import get_environment

            self.environment = get_environment(self.environment)
        self._motion_config = HandheldMotion()
        self._rng = np.random.default_rng(self.seed)
        self._motion = MotionProcess(self._motion_config, np.random.default_rng(self.seed + 101))

    @property
    def accel_fs(self) -> float:
        """Accelerometer output rate of this channel, Hz."""
        return self._accel.fs

    def reseed(self, seed: int) -> None:
        """Reset the channel noise RNG and motion process (new session)."""
        self._rng = np.random.default_rng(seed)
        self._motion = MotionProcess(self._motion_config, np.random.default_rng(seed + 101))

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
        pad: int = 0,
    ) -> List[np.ndarray]:
        """Batched :meth:`transmit`, byte-identical per row.

        Row ``i`` plays ``audios[i]`` framed by ``pad`` samples of silence
        on each side — ``transmit(np.pad(audios[i], pad), audio_fs,
        rngs[i])`` — and draws only from its own generator ``rngs[i]``
        (the engine's per-utterance RNG derivation). The chunk is one
        vibration stack; runs of near-equal rows share a drive stack
        (:meth:`~repro.phone.speaker.SpeakerModel.drive_batch`: each row
        copied once, then the roll-off, compression and gain in place),
        and the chassis biquad mixes each run straight into its block of
        the vibration stack. The sensor front end then draws each row's
        noise from its generator and samples the whole stack at once;
        each trace is a view of one output stack.

        The vibration before the sensor is a pure function of the audio,
        the speaker, the chassis, ``audio_fs`` and ``pad``, so it is
        memoised per process: a read-only audio array played again
        through an equal speaker and chassis copies its row from the memo
        (``transmit.cache_hits``) instead of running the drive and the
        chassis. The key is the array's identity, checked through a weak
        reference, so a recycled ``id``, a writable array or a fresh copy
        of the same samples never hits. Every row still goes through the
        ADC with its own generator, so a hit changes no byte.

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
        if len({id(rng) for rng in rngs}) != len(rngs):
            raise ValueError("every row needs its own generator")
        audios = [np.asarray(a, dtype=float) for a in audios]
        for i, audio in enumerate(audios):
            if audio.ndim != 1:
                raise ValueError(f"audio {i} must be 1-D, got shape {audio.shape}")
        if pad < 0:
            raise ValueError(f"pad must be non-negative, got {pad}")
        keys = [self._vibration_key(audio, audio_fs, pad) for audio in audios]
        cached = [_recall(key, audio) for key, audio in zip(keys, audios)]
        # Misses first, each part by length, so the misses' runs are one
        # block of the stack that the chassis writes straight into.
        order = sorted(range(len(audios)), key=lambda i: (cached[i] is not None, audios[i].size))
        n_miss = sum(row is None for row in cached)
        lengths = np.array([audios[i].size + 2 * pad for i in order], dtype=np.intp)
        vibration = np.zeros((lengths.size, int(lengths.max()) if lengths.size else 0))
        for start, stop in _length_runs(lengths[:n_miss]):
            if lengths[start]:
                rows = order[start:stop]
                force = self._speaker.drive_batch([audios[i] for i in rows], audio_fs, pad)
                block = vibration[start:stop, : force.shape[1]]
                self._chassis.transfer_stack(force, audio_fs, out=block)
        for k, i in enumerate(order):
            if k < n_miss:
                _remember(keys[i], audios[i], vibration[k, : lengths[k]])
            else:
                vibration[k, : lengths[k]] = cached[i]
        registry = metrics()
        if n_miss < len(order):
            registry.count("transmit.cache_hits", len(order) - n_miss)
        registry.gauge("transmit.memo_bytes", _TRANSMIT_MEMO.nbytes)
        sorted_rngs = [rngs[i] for i in order]
        slow = None
        if self.environment is not None:
            slow = (
                self.environment.noise(int(n), audio_fs, rng)
                for n, rng in zip(lengths, sorted_rngs)
            )
        traces = self._accel.sample_stack(vibration, lengths, audio_fs, sorted_rngs, slow)
        return [traces[k] for k in np.argsort(order)]

    def _vibration_key(self, audio: np.ndarray, audio_fs: float, pad: int) -> Optional[tuple]:
        """The vibration memo's key for ``audio``, or None if it may change."""
        if not _frozen(audio):
            return None
        return (id(audio), self._speaker, self._chassis, float(audio_fs), int(pad))


def _frozen(array: np.ndarray) -> bool:
    """Whether no writable array reaches ``array``'s memory (it and its bases)."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


def _recall(key: Optional[tuple], audio: np.ndarray) -> Optional[np.ndarray]:
    """The memoised vibration row of ``audio`` — only if ``audio`` itself made it."""
    entry = None if key is None else _TRANSMIT_MEMO.get(key)
    if entry is None or entry[0]() is not audio:
        return None
    return entry[1]


def _remember(key: Optional[tuple], audio: np.ndarray, row: np.ndarray) -> None:
    """Keep a read-only copy of ``audio``'s vibration ``row`` in the memo."""
    if key is None or row.nbytes > _TRANSMIT_MEMO.budget_bytes:
        return  # may change, or would not be kept (a pool worker's budget is 0)
    row = row.copy()
    row.setflags(write=False)
    _TRANSMIT_MEMO.put(key, (weakref.ref(audio), row), row.nbytes)


def _length_runs(sizes: np.ndarray, max_ratio: float = 1.3) -> List[Tuple[int, int]]:
    """``[start, stop)`` runs of ascending ``sizes`` that share a stack.

    One stack padded to its longest row pays for every shorter row's
    padding; splitting the sorted rows whenever a row exceeds
    ``max_ratio`` times its run's shortest keeps that waste under ~30%
    per run while still batching near-equal rows together.
    """
    runs = []
    start = 0
    for i in range(1, len(sizes)):
        if sizes[i] > max_ratio * sizes[start]:
            runs.append((start, i))
            start = i
    if len(sizes):
        runs.append((start, len(sizes)))
    return runs
