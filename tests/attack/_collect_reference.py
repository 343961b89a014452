"""Byte-parity oracle for :mod:`repro.attack.engine`.

The one-utterance-at-a-time table-top protocol the engine ran before
every pass became batched chunks, kept verbatim — spans included — as
the reference the batched stages must reproduce byte for byte under the
float64 batch policy: render, pad with silence, transmit, apply the
defense, detect, keep the most energetic region, then the scalar
Table II features and the spectrogram image of that region. Only the
per-item ``CollectionStats`` bookkeeping and the executor fan-out were
dropped; the reference runs serially. Test-only: nothing under ``src/``
imports it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.attack.engine import CollectionResult, CollectionStats, _assemble_result
from repro.attack.features import extract_features
from repro.attack.regions import Region, RegionDetector
from repro.attack.specimages import region_spectrogram_image
from repro.datasets.base import Corpus, UtteranceSpec
from repro.obs import trace
from repro.phone.channel import Placement, VibrationChannel

#: Seconds of silence padded around each per-utterance playback so the
#: region detector sees the noise floor (matches the paper's protocol).
_UTTERANCE_PAD_S = 0.3


@dataclass
class _PassConfig:
    """Everything a worker needs to process one utterance work item."""

    corpus: Corpus
    channel: VibrationChannel
    detector: RegionDetector
    seed: int
    size: int
    feature_highpass_hz: Optional[float]
    # OS-level defense postprocess applied to every sensor trace before
    # detection. The channel stored above is already the *defended*
    # channel (defense.apply ran in collect_reference), so rate-cap
    # stages are no-ops here and the stream rate equals accel_fs.
    defense: Optional[object] = None


def _item_rng(seed: int, index: int) -> np.random.Generator:
    """The work item's own RNG: identical at any worker count."""
    return np.random.default_rng([0x454D4F, seed & 0xFFFFFFFF, index])


def _item_channel(config: _PassConfig, index: int) -> VibrationChannel:
    """A channel safe for this work item.

    Table-top transmission is stateless given an explicit RNG, so the
    shared channel can be used from any worker. Handheld transmission
    advances the motion process, so each item gets its own reseeded copy
    — which is also what makes per-utterance handheld collection
    deterministic under parallelism.
    """
    if config.channel.placement is not Placement.HANDHELD:
        return config.channel
    channel = copy.deepcopy(config.channel)
    channel.reseed(int(config.seed & 0xFFFFFF) * 1000003 + index)
    return channel


def _transmit_and_detect(config: _PassConfig, index: int, spec: UtteranceSpec):
    """Render→transmit→detect one utterance work item.

    Returns ``(trace, best_region|None)``; the region is None when the
    detector missed the utterance (the paper's dropped ~10 %).
    """
    rng = _item_rng(config.seed, index)
    corpus, detector = config.corpus, config.detector

    with trace("render"):
        audio = corpus.render(spec)

    # Pad with silence so the detector sees the noise floor.
    pad = np.zeros(int(_UTTERANCE_PAD_S * corpus.audio_fs))
    audio = np.concatenate([pad, audio, pad])

    channel = _item_channel(config, index)
    with trace("transmit"):
        signal = channel.transmit(audio, corpus.audio_fs, rng)

    if config.defense is not None:
        signal = config.defense.postprocess(signal, channel.accel_fs)

    with trace("detect"):
        regions = detector.detect(signal, channel.accel_fs)
    if not regions:
        return signal, None

    # One utterance => take the most energetic region.
    best = max(
        regions,
        key=lambda r: float(np.sum((r.slice(signal) - np.mean(r.slice(signal))) ** 2)),
    )
    return signal, best


def _run_work_item(config: _PassConfig, index: int, spec: UtteranceSpec):
    """One utterance through the full pipeline.

    Returns ``(index, label|None, features|None, image|None)``.
    """
    signal, best = _transmit_and_detect(config, index, spec)
    if best is None:
        return index, None, None, None

    with trace("product"):
        features = _feature_row(
            signal, best, config.channel.accel_fs, config.feature_highpass_hz
        )
        image = _image_product(signal, best, config.size)
    return index, spec.emotion, features, image


def _feature_row(
    signal: np.ndarray,
    region: Region,
    fs: float,
    feature_highpass_hz: Optional[float],
) -> Optional[np.ndarray]:
    """Table II feature vector for one region (None if too short)."""
    samples = region.slice(signal)
    if samples.size < 4:
        return None
    if feature_highpass_hz is not None and samples.size > 32:
        from repro.dsp.filters import highpass

        samples = highpass(samples, feature_highpass_hz, fs)
    return extract_features(samples, fs)


def _image_product(
    signal: np.ndarray, region: Region, size: int
) -> Optional[np.ndarray]:
    """Spectrogram image for one region (None if too short)."""
    if region.end - region.start < 8:
        return None
    return region_spectrogram_image(signal, region, size=size)


def collect_reference(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    seed: int = 0,
    size: int = 32,
    feature_highpass_hz: Optional[float] = None,
    defense=None,
) -> CollectionResult:
    """Both emotion-labelled datasets of a pass, one utterance at a time."""
    if defense is not None:
        channel = defense.apply(channel)
    detector = detector or RegionDetector.for_setting(channel.placement.value)
    specs = list(specs if specs is not None else corpus.specs)
    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=int(size),
        feature_highpass_hz=feature_highpass_hz,
        defense=defense,
    )
    with trace(
        "collect",
        corpus=corpus.name,
        device=channel.device.name,
        placement=channel.placement.value,
        pipeline="per_utterance",
    ):
        results = [_run_work_item(config, index, spec) for index, spec in enumerate(specs)]
    return _assemble_result(
        [(label, features, image) for _, label, features, image in results if label is not None],
        channel.accel_fs,
        len(specs),
        int(size),
        CollectionStats(n_played=len(specs)),
    )
