"""Corpus and utterance abstractions.

A :class:`Corpus` is a list of :class:`UtteranceSpec` records plus the
speaker voices they reference. Waveforms are rendered lazily and
deterministically from each spec's seed, so two renders of the same spec
are identical.

Rendered waveforms are kept, read-only, in a process-wide memo bounded
by :data:`RENDER_MEMO_BYTES`: rendering a corpus holds waveform memory
up to that budget, which every corpus in the process shares. A waveform
depends only on the spec, its speaker's voice and the corpus's
``expressiveness``, ``variability`` and ``audio_fs`` — never on the
collection seed, the device or a defense — so the memo is keyed by
exactly those values and serves every sweep that plays the same
utterances again, across the fresh :class:`Corpus` objects that
``build_corpus``/``subsample`` create. Eviction is random replacement
(:mod:`repro.memo`): over repeated in-order passes on a corpus larger
than the budget it keeps a part of the corpus resident, where LRU would
evict each waveform just before the next pass asks for it. Hits and
evictions are counted as ``render.cache_hits`` and
``render.cache_evictions`` in :func:`repro.obs.metrics`. The process
pool of a collection pass sets its workers' budget to 0: they read the
memo they inherit but store nothing, since they exit with the pass.

The memo hands out the same read-only array on every hit, and that
identity is what the table-top vibration memo of
:meth:`repro.phone.VibrationChannel.transmit_batch` keys on: a waveform
served again through an equal speaker and chassis skips the drive and
the chassis transfer too, and only the ADC runs. A waveform rebuilt
after an eviction is a new array, so its vibration is computed afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.memo import ByteBudgetMemo
from repro.obs import metrics
from repro.speech.prosody import emotion_profile, perturbed_profile
from repro.speech.phonemes import plan_utterance
from repro.speech.synthesizer import SpeakerVoice, Synthesizer

__all__ = [
    "GENDER_F0_SPLIT_HZ",
    "TASKS",
    "UtteranceSpec",
    "Corpus",
    "RENDER_MEMO_BYTES",
    "resolve_task",
]

#: Canonical attack-task inventory. One collected corpus supports several
#: label extractions: ``emotion`` (EmoLeak), ``speaker-id`` and ``gender``
#: (Spearphone / EarSpy) and ``content-id`` (Kinetic Song Comprehension;
#: corpora opt in via :meth:`Corpus.content_label`).
TASKS: Tuple[str, ...] = ("emotion", "speaker-id", "gender", "content-id")

#: Female voices have base F0 above this threshold (Hz); used to derive
#: gender labels from a corpus's speaker voices.
GENDER_F0_SPLIT_HZ = 160.0

#: Byte budget of the process-wide render memo. Sized for real corpora:
#: at ~55 KB per 8 kHz utterance it holds all of TESS (2800 clips) and
#: about 60 % of CREMA-D (7442 clips); larger corpora still hit part of
#: the time (see :mod:`repro.memo`).
RENDER_MEMO_BYTES = 256 << 20

#: Rendered waveforms keyed by ``(spec, voice, expressiveness,
#: variability, audio_fs)``. Module state, so a pickled corpus never
#: carries it to a worker process.
_RENDER_MEMO = ByteBudgetMemo(RENDER_MEMO_BYTES, "render.cache_evictions")


def _remember(key, wave: np.ndarray) -> np.ndarray:
    """Make ``wave`` read-only and keep it in the render memo."""
    wave.setflags(write=False)
    _RENDER_MEMO.put(key, wave, wave.nbytes)
    return wave


def resolve_task(task: str) -> str:
    """Normalise an attack-task name (``speaker_id`` == ``speaker-id``)."""
    key = str(task).lower().strip().replace("_", "-")
    if key not in TASKS:
        raise ValueError(f"unknown task {task!r}; available: {TASKS}")
    return key


@dataclass(frozen=True)
class UtteranceSpec:
    """Metadata identifying one (lazily rendered) utterance.

    The seed fully determines the rendered waveform given the corpus's
    speaker voices and synthesis rate.
    """

    utterance_id: str
    speaker_id: str
    emotion: str
    seed: int
    mean_syllables: float = 5.0
    carrier: bool = False


@dataclass(frozen=True)
class Corpus:
    """An emotional-speech corpus: specs + speaker voices + realisation knobs.

    Attributes
    ----------
    name:
        Corpus name (``savee``, ``tess``, ``cremad``).
    emotions:
        Emotion label inventory (defines the class set / random-guess rate).
    speakers:
        Mapping of speaker id to that speaker's neutral voice.
    specs:
        The utterance records.
    expressiveness:
        How far actors push emotions from neutral (corpus production style).
    variability:
        Per-utterance realisation noise (crowd-sourced corpora are high).
    audio_fs:
        Synthesis sampling rate in Hz.
    """

    name: str
    emotions: Tuple[str, ...]
    speakers: Dict[str, SpeakerVoice]
    specs: List[UtteranceSpec]
    expressiveness: float = 1.0
    variability: float = 0.15
    audio_fs: float = 8000.0

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[UtteranceSpec]:
        return iter(self.specs)

    def validate_spec(self, spec: UtteranceSpec) -> None:
        """Reject a spec that references data this corpus does not hold.

        The one validator shared by the per-utterance and batched realise
        paths, so both reject bad specs with identical messages.
        """
        if spec.speaker_id not in self.speakers:
            raise KeyError(
                f"spec references unknown speaker {spec.speaker_id!r} "
                f"(corpus {self.name!r})"
            )
        if spec.emotion not in self.emotions:
            raise ValueError(
                f"spec emotion {spec.emotion!r} not in corpus inventory {self.emotions}"
            )

    def _memo_key(self, spec: UtteranceSpec) -> tuple:
        return (
            spec,
            self.speakers[spec.speaker_id],
            self.expressiveness,
            self.variability,
            self.audio_fs,
        )

    def _synthesis_inputs(self, spec: UtteranceSpec):
        """``(voice, profile, rng, plan)`` of one spec, seeded from it alone."""
        rng = np.random.default_rng(spec.seed)
        profile = perturbed_profile(
            emotion_profile(spec.emotion),
            rng,
            expressiveness=self.expressiveness,
            variability=self.variability,
        )
        plan = plan_utterance(
            rng, mean_syllables=spec.mean_syllables, carrier=spec.carrier
        )
        return self.speakers[spec.speaker_id], profile, rng, plan

    def render(self, spec: UtteranceSpec) -> np.ndarray:
        """Deterministically synthesise one utterance's waveform.

        The array is read-only and may be shared with other callers
        through the render memo.
        """
        self.validate_spec(spec)
        key = self._memo_key(spec)
        wave = _RENDER_MEMO.get(key)
        if wave is not None:
            metrics().count("render.cache_hits")
            return wave
        synth = Synthesizer(fs=self.audio_fs)
        return _remember(key, synth.render(*self._synthesis_inputs(spec)))

    def render_batch(self, specs: Sequence[UtteranceSpec]) -> List[np.ndarray]:
        """Batched :meth:`render`: one synthesizer pass over the memo's misses.

        Each spec gets its own generator seeded exactly as in
        :meth:`render`, so every returned waveform is byte-identical to
        the per-spec path; the batch axis only changes how the formant
        cascade work is scheduled (see ``Synthesizer.render_batch``).

        A subclass that overrides :meth:`render` without overriding this
        method renders per spec through its override, keeping the
        batched pipeline's output identical to the per-utterance path
        (and keeping the memo, which only this class's synthesis
        fills, out of the subclass's way).
        """
        if type(self).render is not Corpus.render:
            return [self.render(spec) for spec in specs]
        for spec in specs:
            self.validate_spec(spec)
        keys = [self._memo_key(spec) for spec in specs]
        waves = [_RENDER_MEMO.get(key) for key in keys]
        missing = [i for i, wave in enumerate(waves) if wave is None]
        if len(missing) < len(specs):
            metrics().count("render.cache_hits", len(specs) - len(missing))
        if missing:
            voices, profiles, rngs, plans = zip(
                *(self._synthesis_inputs(specs[i]) for i in missing)
            )
            synth = Synthesizer(fs=self.audio_fs)
            rendered = synth.render_batch(voices, profiles, rngs, plans)
            for i, wave in zip(missing, rendered):
                waves[i] = _remember(keys[i], wave)
        return waves

    def iter_rendered(self) -> Iterator[Tuple[UtteranceSpec, np.ndarray]]:
        """Yield ``(spec, waveform)`` pairs lazily."""
        for spec in self.specs:
            yield spec, self.render(spec)

    def class_counts(self) -> Dict[str, int]:
        """Number of utterances per emotion label."""
        counts = {emotion: 0 for emotion in self.emotions}
        for spec in self.specs:
            counts[spec.emotion] += 1
        return counts

    # -- per-task label extraction ------------------------------------------
    #
    # The multi-task label plane: one collected corpus can be re-labelled
    # per attack task without re-running synth→channel→detect. ``record``
    # is anything carrying ``speaker_id``/``emotion``/``utterance_id`` —
    # an :class:`UtteranceSpec` (per-utterance collection) or a
    # :class:`~repro.phone.recording.PlaybackEvent` (continuous sessions).

    def speaker_gender(self, speaker_id: str) -> str:
        """Gender label for a speaker, derived from the voice's base F0."""
        try:
            voice = self.speakers[speaker_id]
        except KeyError:
            raise KeyError(
                f"unknown speaker {speaker_id!r} (corpus {self.name!r})"
            ) from None
        return "female" if voice.base_f0_hz > GENDER_F0_SPLIT_HZ else "male"

    def content_label(self, record) -> str:
        """Content-identity label for a record (song/sentence identity).

        Speech corpora do not model content identity; the song corpus
        (:mod:`repro.datasets.songs`) overrides this.
        """
        raise ValueError(
            f"corpus {self.name!r} does not define content-id labels"
        )

    def task_label(self, record, task: str = "emotion") -> str:
        """Extract one record's label for an attack task."""
        task = resolve_task(task)
        if task == "emotion":
            return record.emotion
        if task == "speaker-id":
            return record.speaker_id
        if task == "gender":
            return self.speaker_gender(record.speaker_id)
        return self.content_label(record)

    def task_inventory(self, task: str = "emotion") -> Tuple[str, ...]:
        """The label inventory (class set) of an attack task."""
        task = resolve_task(task)
        if task == "emotion":
            return tuple(self.emotions)
        if task == "speaker-id":
            return tuple(sorted(self.speakers))
        if task == "gender":
            return tuple(sorted({self.speaker_gender(s) for s in self.speakers}))
        return tuple(sorted({self.content_label(s) for s in self.specs}))

    def subsample(
        self, per_class: int, seed: int = 0, stratify_speakers: bool = True
    ) -> "Corpus":
        """Return a stratified subsample with ``per_class`` utterances per emotion.

        Used by the benchmark harness to run the CREMA-D-scale experiments
        at tractable cost while preserving class balance.
        """
        if per_class < 1:
            raise ValueError("per_class must be >= 1")
        rng = np.random.default_rng(seed)
        chosen: List[UtteranceSpec] = []
        for emotion in self.emotions:
            pool = [s for s in self.specs if s.emotion == emotion]
            if not pool:
                continue
            take = min(per_class, len(pool))
            if stratify_speakers:
                # Round-robin across speakers before random fill for balance.
                by_speaker: Dict[str, List[UtteranceSpec]] = {}
                for s in pool:
                    by_speaker.setdefault(s.speaker_id, []).append(s)
                ordered: List[UtteranceSpec] = []
                buckets = [list(v) for v in by_speaker.values()]
                for bucket in buckets:
                    rng.shuffle(bucket)
                while buckets and len(ordered) < take:
                    for bucket in list(buckets):
                        if not bucket:
                            buckets.remove(bucket)
                            continue
                        ordered.append(bucket.pop())
                        if len(ordered) >= take:
                            break
                chosen.extend(ordered[:take])
            else:
                idx = rng.permutation(len(pool))[:take]
                chosen.extend(pool[i] for i in idx)
        return replace(self, specs=chosen)

    def filter_emotions(self, emotions: Sequence[str]) -> "Corpus":
        """Restrict the corpus to a subset of emotion labels."""
        keep = tuple(e for e in self.emotions if e in set(emotions))
        if not keep:
            raise ValueError(f"no overlap between {emotions} and {self.emotions}")
        specs = [s for s in self.specs if s.emotion in keep]
        return replace(self, emotions=keep, specs=specs)
