"""Chassis / motherboard vibration transfer.

The speaker and the IMU share the motherboard, which acts as the
conductive medium (Spearphone's observation, reused by EmoLeak). We model
the structural path as a resonant band-pass — phone chassis have a main
bending-mode resonance in the hundreds of hertz to low kilohertz — plus a
broadband attenuation set by the speaker-to-sensor distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

__all__ = ["ChassisTransfer"]


@dataclass(frozen=True)
class ChassisTransfer:
    """Structural transfer from speaker force to accelerometer-site motion.

    Attributes
    ----------
    resonance_hz:
        Main chassis bending-mode frequency.
    q_factor:
        Resonance sharpness (higher = more peaked).
    attenuation:
        Broadband linear attenuation along the conductive path.
    """

    resonance_hz: float = 900.0
    q_factor: float = 4.0
    attenuation: float = 1.0

    def transfer(self, force: np.ndarray, fs: float) -> np.ndarray:
        """Apply the structural response to a force waveform."""
        force = np.asarray(force, dtype=float)
        if force.ndim != 1:
            raise ValueError(f"expected a 1-D force signal, got shape {force.shape}")
        if force.size == 0:
            return force.copy()
        return self.transfer_stack(force[None].copy(), fs)[0]

    def transfer_stack(
        self, force: np.ndarray, fs: float, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`transfer` of every row of a ``(rows, n)`` stack.

        The biquad is causal, so a row's zero padding never reaches back
        into its valid prefix. ``force`` is scratch: the broadband share
        is scaled in place and mixed into the filter's own output, whose
        final scaling lands in ``out`` when one is given.
        """
        f0 = min(self.resonance_hz, 0.45 * fs)
        w0 = 2.0 * np.pi * f0 / fs
        q = max(self.q_factor, 0.3)
        alpha = np.sin(w0) / (2.0 * q)
        # RBJ band-pass (constant peak gain) biquad.
        b = np.array([alpha, 0.0, -alpha])
        a = np.array([1.0 + alpha, -2.0 * np.cos(w0), 1.0 - alpha])
        vibration = lfilter(b / a[0], a / a[0], force, axis=-1)
        # The chassis also transmits some broadband (non-resonant) motion:
        # attenuation * (0.6 * resonant + 0.4 * force).
        vibration *= 0.6
        force *= 0.4
        vibration += force
        return np.multiply(vibration, self.attenuation, out=out)
