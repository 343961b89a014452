"""End-to-end EmoLeak attack orchestration.

Two collection procedures mirror the paper's settings:

- **Per-utterance (table-top / loudspeaker)**: each corpus utterance is
  played and its accelerometer trace analysed individually; utterances
  whose speech region the detector misses are dropped (the paper's ~90 %
  extraction rate).
- **Continuous session (handheld / ear speaker)**: the whole corpus
  subset is played as one continuous recording grouped by emotion, the
  detector runs on the full trace, and regions are labelled from the
  playback log (the paper's >=45 % extraction rate).

Both produce a :class:`FeatureDataset` (Table II features) and/or a
:class:`SpectrogramDataset` (32x32 images) ready for the classifiers.

The heavy lifting lives in :mod:`repro.attack.engine`: deterministic
per-utterance work items run as batched chunks, serial/thread/process
executors (``n_jobs``),
a single shared render→transmit→detect pass for both dataset kinds, and
the collection cache. This module keeps the stable user-facing API.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.attack.engine import (
    CollectionCache,
    CollectionResult,
    CollectionStats,
    FeatureDataset,
    SpectrogramDataset,
    _default_detector,
    collect_datasets,
)
from repro.attack.regions import RegionDetector
from repro.datasets.base import Corpus, UtteranceSpec
from repro.phone.channel import VibrationChannel

__all__ = [
    "FeatureDataset",
    "SpectrogramDataset",
    "CollectionResult",
    "CollectionStats",
    "collect_datasets",
    "collect_feature_dataset",
    "collect_spectrogram_dataset",
    "EmoLeakAttack",
]


def collect_feature_dataset(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    continuous: Optional[bool] = None,
    seed: int = 0,
    feature_highpass_hz: Optional[float] = None,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    cache: Optional[CollectionCache] = None,
    pipeline: Optional[str] = None,
    batch_chunk: Optional[int] = None,
    task: str = "emotion",
) -> FeatureDataset:
    """Run the attack's collection + feature-extraction stages.

    ``feature_highpass_hz`` applies a high-pass on the *feature path*
    before extraction — the paper's Table I ablation, which shows that
    even a 1 Hz filter destroys the raw time-domain feature information.
    The paper's actual attack never filters the feature path.

    ``n_jobs``/``executor`` select the engine's parallel collection path;
    results are identical at any worker count (see
    :mod:`repro.attack.engine`).
    """
    return collect_datasets(
        corpus,
        channel,
        specs=specs,
        detector=detector,
        continuous=continuous,
        seed=seed,
        feature_highpass_hz=feature_highpass_hz,
        n_jobs=n_jobs,
        executor=executor,
        cache=cache,
        pipeline=pipeline,
        batch_chunk=batch_chunk,
        task=task,
    ).features


def collect_spectrogram_dataset(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    continuous: Optional[bool] = None,
    size: int = 32,
    seed: int = 0,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    cache: Optional[CollectionCache] = None,
    pipeline: Optional[str] = None,
    batch_chunk: Optional[int] = None,
    task: str = "emotion",
) -> SpectrogramDataset:
    """Run the attack's collection + spectrogram-image stages."""
    return collect_datasets(
        corpus,
        channel,
        specs=specs,
        detector=detector,
        continuous=continuous,
        seed=seed,
        size=size,
        n_jobs=n_jobs,
        executor=executor,
        cache=cache,
        pipeline=pipeline,
        batch_chunk=batch_chunk,
        task=task,
    ).spectrograms


class EmoLeakAttack:
    """High-level attack object: scenario in, labelled datasets out.

    Example
    -------
    >>> from repro.datasets import build_tess
    >>> from repro.phone import VibrationChannel
    >>> corpus = build_tess(words_per_emotion=5)
    >>> channel = VibrationChannel("oneplus7t")
    >>> attack = EmoLeakAttack(channel)
    >>> features = attack.collect_features(corpus)
    >>> features.X.shape[1]
    24

    ``n_jobs``/``executor`` fan the collection out over the engine's
    worker pool; ``cache`` registers every pass in a
    :class:`~repro.attack.engine.CollectionCache` so repeated collections
    of the same scenario are free. ``pipeline``/``batch_chunk`` set the
    chunk size of the batched data plane (``per_utterance`` is chunks of
    one); results are identical at any chunk size.
    """

    def __init__(
        self,
        channel: VibrationChannel,
        detector: Optional[RegionDetector] = None,
        seed: int = 0,
        n_jobs: int = 1,
        executor: Optional[str] = None,
        cache: Optional[CollectionCache] = None,
        pipeline: Optional[str] = None,
        batch_chunk: Optional[int] = None,
        task: str = "emotion",
    ):
        self.channel = channel
        self.detector = detector or _default_detector(channel)
        self.seed = int(seed)
        self.n_jobs = int(n_jobs)
        self.executor = executor
        self.cache = cache
        self.pipeline = pipeline
        self.batch_chunk = batch_chunk
        self.task = task

    def collect_features(
        self,
        corpus: Corpus,
        specs: Optional[Sequence[UtteranceSpec]] = None,
        continuous: Optional[bool] = None,
    ) -> FeatureDataset:
        """Collect the Table II feature dataset for this scenario."""
        return collect_feature_dataset(
            corpus,
            self.channel,
            specs=specs,
            detector=self.detector,
            continuous=continuous,
            seed=self.seed,
            n_jobs=self.n_jobs,
            executor=self.executor,
            cache=self.cache,
            pipeline=self.pipeline,
            batch_chunk=self.batch_chunk,
            task=self.task,
        )

    def collect_spectrograms(
        self,
        corpus: Corpus,
        specs: Optional[Sequence[UtteranceSpec]] = None,
        continuous: Optional[bool] = None,
        size: int = 32,
    ) -> SpectrogramDataset:
        """Collect the spectrogram-image dataset for this scenario."""
        return collect_spectrogram_dataset(
            corpus,
            self.channel,
            specs=specs,
            detector=self.detector,
            continuous=continuous,
            size=size,
            seed=self.seed,
            n_jobs=self.n_jobs,
            executor=self.executor,
            cache=self.cache,
            pipeline=self.pipeline,
            batch_chunk=self.batch_chunk,
            task=self.task,
        )

    def collect_datasets(
        self,
        corpus: Corpus,
        specs: Optional[Sequence[UtteranceSpec]] = None,
        continuous: Optional[bool] = None,
        size: int = 32,
    ) -> CollectionResult:
        """Collect both datasets from one shared transmit/detect pass."""
        return collect_datasets(
            corpus,
            self.channel,
            specs=specs,
            detector=self.detector,
            continuous=continuous,
            seed=self.seed,
            size=size,
            n_jobs=self.n_jobs,
            executor=self.executor,
            cache=self.cache,
            pipeline=self.pipeline,
            batch_chunk=self.batch_chunk,
            task=self.task,
        )
