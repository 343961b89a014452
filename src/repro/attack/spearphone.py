"""Spearphone-style baseline: gender and speaker identification.

EmoLeak's closest prior work (Anand et al., "Spearphone", cited as [17])
demonstrated that loudspeaker-induced accelerometer vibration reveals
the *speaker's gender and identity*. The paper positions EmoLeak as the
first to extract *emotion* from the same channel; this module implements
the baseline task so the two attacks can be compared on an identical
substrate — and so the vibration channel can be validated against the
prior work's findings (gender separates almost perfectly; speaker ID is
easy for small speaker sets).

The baseline reuses the EmoLeak collection pipeline (same regions, same
Table II features) and relabels the data by speaker attributes, which is
exactly how Spearphone's classifier consumed its features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.engine import collect_per_utterance_products
from repro.attack.features import FEATURE_NAMES
from repro.attack.pipeline import FeatureDataset
from repro.attack.regions import RegionDetector
from repro.datasets.base import GENDER_F0_SPLIT_HZ, Corpus, UtteranceSpec
from repro.phone.channel import VibrationChannel

__all__ = ["SpearphoneBaseline", "collect_speaker_dataset"]

#: Backward-compatible alias; the split lives with the task-label plane
#: (:data:`repro.datasets.base.GENDER_F0_SPLIT_HZ`) so the baseline and
#: the engine's gender task agree by construction.
_GENDER_F0_SPLIT = GENDER_F0_SPLIT_HZ


def collect_speaker_dataset(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    seed: int = 0,
    n_jobs: int = 1,
    executor: Optional[str] = None,
) -> Tuple[FeatureDataset, np.ndarray, np.ndarray]:
    """Collect features labelled with speaker id and gender.

    Returns ``(dataset, speaker_ids, genders)`` where ``dataset.y`` holds
    the emotion labels (as usual) and the two extra arrays align with its
    rows. Every utterance is its own work item (never a continuous
    session), so every row maps back to its spec.
    """
    rows: List[np.ndarray] = []
    emotions: List[str] = []
    speaker_ids: List[str] = []
    specs = list(specs if specs is not None else corpus.specs)
    # The engine's product rows carry spec provenance, so every
    # feature row maps back to its speaker.
    products, _ = collect_per_utterance_products(
        corpus,
        channel,
        specs=specs,
        detector=detector,
        seed=seed,
        n_jobs=n_jobs,
        executor=executor,
    )
    for index, label, features, _image in products:
        if features is None:
            continue
        rows.append(features)
        emotions.append(label)
        speaker_ids.append(specs[index].speaker_id)
    X = np.vstack(rows) if rows else np.empty((0, len(FEATURE_NAMES)))
    dataset = FeatureDataset(
        X=X, y=np.array(emotions), fs=channel.accel_fs, n_played=len(specs)
    )
    genders = np.array([corpus.speaker_gender(sid) for sid in speaker_ids])
    return dataset, np.array(speaker_ids), genders


@dataclass
class SpearphoneBaseline:
    """The prior-work attack: classify speaker attributes from vibration.

    Parameters
    ----------
    channel:
        The vibration channel (Spearphone's setting is loudspeaker /
        table-top, same as EmoLeak's strongest configuration).
    seed:
        Collection seed.
    """

    channel: VibrationChannel
    seed: int = 0

    def collect(
        self, corpus: Corpus, specs: Optional[Sequence[UtteranceSpec]] = None
    ) -> Tuple[FeatureDataset, np.ndarray, np.ndarray]:
        """Collect ``(features, speaker_ids, genders)`` for a corpus."""
        return collect_speaker_dataset(
            corpus, self.channel, specs=specs, seed=self.seed
        )

    def gender_accuracy(self, corpus: Corpus, classifier, test_fraction=0.2):
        """Train/evaluate gender identification; returns accuracy."""
        from repro.ml.metrics import accuracy_score
        from repro.ml.preprocessing import clean_features, train_test_split

        dataset, _, genders = self.collect(corpus)
        X, y, mask = clean_features(dataset.X, genders)
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_fraction, self.seed
        )
        model = classifier.clone()
        model.fit(X_train, y_train)
        return accuracy_score(y_test, model.predict(X_test))

    def speaker_accuracy(self, corpus: Corpus, classifier, test_fraction=0.2):
        """Train/evaluate speaker identification; returns accuracy."""
        from repro.ml.metrics import accuracy_score
        from repro.ml.preprocessing import clean_features, train_test_split

        dataset, speaker_ids, _ = self.collect(corpus)
        X, y, mask = clean_features(dataset.X, speaker_ids)
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_fraction, self.seed
        )
        model = classifier.clone()
        model.fit(X_train, y_train)
        return accuracy_score(y_test, model.predict(X_test))
