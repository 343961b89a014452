"""Source-filter utterance renderer.

:class:`Synthesizer` combines a speaker voice, an utterance plan and an
emotion prosody profile into a waveform: per-syllable F0 contours drive
the glottal source, formant resonators shape the spectrum, and an energy
envelope with emotion-dependent attack sharpness modulates intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.speech.formants import formant_filter, formant_filter_batch, vowel_formants
from repro.speech.glottal import (
    glottal_finish_batch,
    glottal_source,
    glottal_source_deferred,
)
from repro.speech.phonemes import UtterancePlan, plan_utterance
from repro.speech.prosody import ProsodyProfile

__all__ = ["SpeakerVoice", "Synthesizer"]


#: Memoized read-only envelope ramps keyed by (start, stop, n, power).
#: ``np.linspace(start, stop, n)`` is exactly ``arange(n) * delta + start``
#: with the endpoint pinned, so the cached ramps are byte-identical to the
#: linspace calls they replace; syllable lengths repeat heavily across a
#: corpus, which makes the cache hit rate high. The cache is bounded LRU:
#: corpora whose segment lengths do not repeat (the music corpus's
#: beat-grid clips, long multi-corpus runs) would otherwise grow without
#: limit. Eviction only ever forces a rebuild, and rebuilds are
#: deterministic, so capping cannot change any value. The cap of 4096
#: arrays of a syllable's length (~10^2-10^3 samples) bounds the cache to
#: a few tens of MB while keeping repeating syllable lengths warm.
@lru_cache(maxsize=4096)
def _cached_ramp(
    start: float, stop: float, n: int, power: Optional[float] = None
) -> np.ndarray:
    if n == 1:
        ramp = np.array([float(start)])
    else:
        ramp = np.arange(n) * ((stop - start) / (n - 1)) + start
        ramp[-1] = stop
    if power is not None:
        ramp **= power
    ramp.setflags(write=False)
    return ramp


@dataclass(frozen=True)
class SpeakerVoice:
    """A speaker's neutral voice characteristics.

    Attributes
    ----------
    base_f0_hz:
        Neutral mean fundamental frequency (≈110 Hz male, ≈210 Hz female).
    f0_excursion_hz:
        Neutral depth of the intonation contour.
    tract_scale:
        Vocal-tract length factor (>1 raises formants; female ≈ 1.15).
    loudness_db:
        Speaker-level intensity offset.
    """

    base_f0_hz: float = 120.0
    f0_excursion_hz: float = 25.0
    tract_scale: float = 1.0
    loudness_db: float = 0.0

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        female: bool = False,
        variability: float = 0.08,
    ) -> "SpeakerVoice":
        """Draw a random speaker voice of the given sex."""
        base = 205.0 if female else 118.0
        return cls(
            base_f0_hz=float(base * rng.lognormal(0.0, variability)),
            f0_excursion_hz=float(25.0 * rng.lognormal(0.0, variability)),
            tract_scale=float((1.16 if female else 1.0) * rng.lognormal(0.0, 0.04)),
            loudness_db=float(rng.normal(0.0, 1.5)),
        )


class Synthesizer:
    """Render emotional utterances at a fixed audio sampling rate."""

    def __init__(self, fs: float = 8000.0):
        if fs < 2000:
            raise ValueError("synthesis sampling rate must be >= 2000 Hz")
        self.fs = float(fs)

    def _f0_contour(
        self,
        n: int,
        voice: SpeakerVoice,
        profile: ProsodyProfile,
        stress: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Declination + accent-shaped F0 contour for one syllable."""
        base = voice.base_f0_hz * profile.f0_scale * (0.9 + 0.2 * stress)
        excursion = (
            voice.f0_excursion_hz * profile.f0_range_scale * stress
        )
        # Bitwise-equal fast path for linspace(0, 1, n, endpoint=False).
        t = np.arange(n) * (1.0 / n)
        # Rise-fall accent with a random peak position plus declination.
        peak = rng.uniform(0.25, 0.5)
        accent = np.exp(-0.5 * ((t - peak) / 0.25) ** 2)
        declination = 1.0 - 0.15 * t
        contour = base * declination + excursion * accent
        return np.maximum(contour, 40.0)

    def render(
        self,
        voice: SpeakerVoice,
        profile: ProsodyProfile,
        rng: np.random.Generator,
        plan: Optional[UtterancePlan] = None,
    ) -> np.ndarray:
        """Render one utterance to a waveform in [-1, 1].

        The emotion profile's rate/pause scales stretch the plan, its
        energy offset sets overall level, and its attack sharpness shapes
        syllable onsets — the envelope cues that survive the vibration
        channel.
        """
        if plan is None:
            plan = plan_utterance(rng)
        fs = self.fs
        rate = max(profile.rate_scale, 1e-3)
        pieces = []
        for i, syllable in enumerate(plan.syllables):
            # Unvoiced onset burst.
            n_onset = int(round(syllable.onset_noise_s / rate * fs))
            if n_onset > 0:
                burst = rng.normal(0.0, 0.25, n_onset)
                burst *= _cached_ramp(1.0, 0.2, n_onset)
                pieces.append(burst)
            # Voiced nucleus.
            n_voiced = max(8, int(round(syllable.duration_s / rate * fs)))
            f0 = self._f0_contour(n_voiced, voice, profile, syllable.stress, rng)
            source = glottal_source(
                f0,
                fs,
                rng,
                jitter=profile.jitter,
                shimmer=profile.shimmer,
                tilt_db_per_octave=profile.tilt_db_per_octave,
                breathiness=profile.breathiness,
            )
            formants = vowel_formants(syllable.vowel, voice.tract_scale)
            voiced = formant_filter(source, formants, fs)
            # Attack/decay envelope: sharp attacks for anger/surprise.
            attack_frac = float(np.clip(0.18 / max(profile.attack_sharpness, 0.2), 0.02, 0.45))
            n_attack = max(1, int(n_voiced * attack_frac))
            n_decay = max(1, int(n_voiced * 0.25))
            envelope = np.ones(n_voiced)
            envelope[:n_attack] = _cached_ramp(0.0, 1.0, n_attack, power=0.7)
            envelope[-n_decay:] *= _cached_ramp(1.0, 0.1, n_decay)
            voiced = voiced * envelope * syllable.stress
            pieces.append(voiced)
            # Pause.
            if i < len(plan.pauses_s):
                n_pause = int(round(plan.pauses_s[i] * profile.pause_scale / rate * fs))
                if n_pause > 0:
                    pieces.append(np.zeros(n_pause))
        wave = np.concatenate(pieces) if pieces else np.zeros(int(0.1 * fs))
        # Level: neutral reference scaled by emotion + speaker offsets.
        rms = np.sqrt(np.mean(wave**2))
        if rms > 0:
            target_db = -20.0 + profile.energy_db + voice.loudness_db
            wave = wave * (10 ** (target_db / 20.0) / rms)
        return np.clip(wave, -1.0, 1.0)

    def render_batch(
        self,
        voices: Sequence[SpeakerVoice],
        profiles: Sequence[ProsodyProfile],
        rngs: Sequence[np.random.Generator],
        plans: Optional[Sequence[Optional[UtterancePlan]]] = None,
    ) -> List[np.ndarray]:
        """Render many utterances at once, byte-identical to :meth:`render`.

        Each utterance keeps its own generator, so per-item RNG streams
        match the serial path exactly. The win comes from restructuring
        the work: the RNG-ordered draws (onset bursts, F0 contours, the
        banked glottal source) run in a tight first phase, then *all*
        syllables across the whole batch go through the formant cascade
        as padded stacks grouped by formant targets
        (:func:`repro.speech.formants.formant_filter_batch`), and a final
        phase applies envelopes, concatenation and leveling per item.
        """
        n_items = len(voices)
        if not (len(profiles) == len(rngs) == n_items):
            raise ValueError("voices, profiles and rngs must have the same length")
        if plans is None:
            plans = [None] * n_items
        elif len(plans) != n_items:
            raise ValueError("plans must match the number of voices")
        fs = self.fs

        # Phase 1: per-item planning + glottal sources, serial per item so
        # each generator is consumed in exactly the order render() uses.
        item_pieces = []  # per item: [("arr", waveform) | ("syll", flat index)]
        glottal_works: list = []
        syll_formants: List[tuple] = []
        syll_meta: List[tuple] = []  # (n_voiced, stress, attack_sharpness)
        for voice, profile, rng, plan in zip(voices, profiles, rngs, plans):
            if plan is None:
                plan = plan_utterance(rng)
            rate = max(profile.rate_scale, 1e-3)
            pieces = []
            for i, syllable in enumerate(plan.syllables):
                n_onset = int(round(syllable.onset_noise_s / rate * fs))
                if n_onset > 0:
                    burst = rng.normal(0.0, 0.25, n_onset)
                    burst *= _cached_ramp(1.0, 0.2, n_onset)
                    pieces.append(("arr", burst))
                n_voiced = max(8, int(round(syllable.duration_s / rate * fs)))
                f0 = self._f0_contour(n_voiced, voice, profile, syllable.stress, rng)
                work = glottal_source_deferred(
                    f0,
                    fs,
                    rng,
                    jitter=profile.jitter,
                    shimmer=profile.shimmer,
                    tilt_db_per_octave=profile.tilt_db_per_octave,
                    breathiness=profile.breathiness,
                )
                pieces.append(("syll", len(glottal_works)))
                glottal_works.append(work)
                syll_formants.append(vowel_formants(syllable.vowel, voice.tract_scale))
                syll_meta.append((n_voiced, syllable.stress, profile.attack_sharpness))
                if i < len(plan.pauses_s):
                    n_pause = int(
                        round(plan.pauses_s[i] * profile.pause_scale / rate * fs)
                    )
                    if n_pause > 0:
                        pieces.append(("arr", np.zeros(n_pause)))
            item_pieces.append((pieces, profile, voice))

        # Phase 2: finish the RNG-free glottal tail (spectral tilt +
        # breathiness mix) for every syllable at once, then run one
        # formant cascade pass over the whole batch.
        syll_sources = glottal_finish_batch(glottal_works)
        filtered = (
            formant_filter_batch(syll_sources, syll_formants, fs)
            if syll_sources
            else []
        )

        # Phase 3: envelopes, concatenation, leveling — RNG-free.
        waves: List[np.ndarray] = []
        for pieces, profile, voice in item_pieces:
            arrs = []
            for kind, payload in pieces:
                if kind == "arr":
                    arrs.append(payload)
                else:
                    n_voiced, stress, attack_sharpness = syll_meta[payload]
                    attack_frac = float(
                        np.clip(0.18 / max(attack_sharpness, 0.2), 0.02, 0.45)
                    )
                    n_attack = max(1, int(n_voiced * attack_frac))
                    n_decay = max(1, int(n_voiced * 0.25))
                    envelope = np.ones(n_voiced)
                    envelope[:n_attack] = _cached_ramp(0.0, 1.0, n_attack, power=0.7)
                    envelope[-n_decay:] *= _cached_ramp(1.0, 0.1, n_decay)
                    arrs.append(filtered[payload] * envelope * stress)
            wave = np.concatenate(arrs) if arrs else np.zeros(int(0.1 * fs))
            rms = np.sqrt(np.mean(wave**2))
            if rms > 0:
                target_db = -20.0 + profile.energy_db + voice.loudness_db
                wave = wave * (10 ** (target_db / 20.0) / rms)
            waves.append(np.clip(wave, -1.0, 1.0))
        return waves
