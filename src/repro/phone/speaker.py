"""Speaker drive models.

A micro-speaker converts the audio waveform into force on the chassis.
The model captures the three properties that matter for the side channel:

- **drive level**: loudspeakers at max volume (the paper's table-top
  setting) push far more energy than ear speakers at conversation level
  (36–40 dB SPL classic earpieces, 42–46 dB for the stereo-capable ear
  speakers the paper exploits);
- **low-frequency rolloff**: micro-speakers radiate poorly below a few
  hundred hertz (2nd-order high-pass at the driver resonance);
- **compressive nonlinearity** at high drive, which spreads spectral
  content — one of the reasons aliased accelerometer spectra stay
  informative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dsp.filters import cached_butter_highpass, sosfilt_zero_phase_batch, zero_phase_edge

__all__ = ["SpeakerModel", "loudspeaker_model", "ear_speaker_model"]


@dataclass(frozen=True)
class SpeakerModel:
    """Parametric speaker drive model.

    Attributes
    ----------
    drive_gain:
        Linear gain from audio amplitude to chassis force (arbitrary
        acceleration-equivalent units).
    rolloff_hz:
        Driver resonance; response falls off 2nd-order below this.
    compression:
        Soft-clipping knee in [0, 1); 0 disables the nonlinearity.
    """

    drive_gain: float
    rolloff_hz: float = 350.0
    compression: float = 0.15

    def drive(self, audio: np.ndarray, fs: float) -> np.ndarray:
        """Convert an audio waveform into a chassis force waveform."""
        audio = np.asarray(audio, dtype=float)
        if audio.ndim != 1:
            raise ValueError(f"expected a 1-D audio signal, got shape {audio.shape}")
        return self.drive_batch([audio], fs)[0]

    def drive_batch(self, audios: Sequence[np.ndarray], fs: float, pad: int = 0) -> np.ndarray:
        """:meth:`drive` of every row, each framed by ``pad`` zeros a side.

        Returns a ``(rows, max length)`` force stack; row ``i`` is
        ``drive(np.pad(audios[i], pad))`` in ``[:audios[i].size + 2 * pad]``,
        byte for byte, with zeros after it. Each row is copied once, at
        its silence and odd-extension offset, into one stack that the
        zero-phase roll-off filters in place; the compression and the
        drive gain then run in place on the filter's output.
        """
        lengths = np.array([np.size(a) + 2 * pad for a in audios], dtype=np.intp)
        rolloff = 0 < self.rolloff_hz < 0.45 * fs
        sos = cached_butter_highpass(self.rolloff_hz, fs, order=2) if rolloff else None
        lead = zero_phase_edge(sos) if rolloff else 0
        width = int(lengths.max()) if lengths.size else 0
        stack = np.zeros((lengths.size, lead + width + lead))
        for row, audio in zip(stack, audios):
            row[lead + pad : lead + pad + np.size(audio)] = audio
        if rolloff:
            shaped = sosfilt_zero_phase_batch(sos, stack, lengths, lead=lead)
        else:
            shaped = stack[:, :width]
        if self.compression > 0:
            knee = max(1e-6, 1.0 - self.compression)
            shaped /= knee
            np.tanh(shaped, out=shaped)
            shaped *= knee
        shaped *= self.drive_gain
        return shaped


def loudspeaker_model(gain: float = 1.0) -> SpeakerModel:
    """Bottom loudspeaker at maximum media volume (table-top setting)."""
    return SpeakerModel(drive_gain=gain, rolloff_hz=300.0, compression=0.25)


def ear_speaker_model(gain: float = 0.05) -> SpeakerModel:
    """Top ear speaker at conversation volume (handheld setting).

    Roughly 25 dB below the loudspeaker drive; stereo-capable ear
    speakers (OnePlus 7T/9 style) get device-profile gains above the
    classic-earpiece default.
    """
    return SpeakerModel(drive_gain=gain, rolloff_hz=450.0, compression=0.05)
