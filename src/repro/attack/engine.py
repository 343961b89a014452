"""Collection engine: batched stages, executors, caching.

The collection stage — render each utterance, transmit it through the
vibration channel, detect speech regions, extract the Table II features
and the 32x32 spectrogram image — dominates the cost of regenerating a
paper table. The paper's table-top protocol plays one utterance at a
time; the engine runs it as stacked chunks of utterances:

- **Deterministic work items**: every utterance gets its *own* RNG
  derived from ``(seed, item index)``, so the collected datasets are
  byte-identical at any chunk size, worker count and executor.
- **One stack of batched stages**: :func:`_detect_chunk` (render,
  transmit, detect, best region) then :func:`_products` (features and
  images) serve every table-top pass, :func:`iter_region_samples` and
  the continuous session's products. A chunk that fails re-runs its
  rows as chunks of one; ``batch_chunk=1`` plays one utterance at a
  time.
- **Executors**: chunks fan out through
  :meth:`repro.parallel.ExecutorPool.map_traced` (``serial``, ``thread``
  or ``process``).
- **Single-pass collection**: :func:`collect_datasets` produces the
  :class:`FeatureDataset` *and* the :class:`SpectrogramDataset` from one
  shared render→transmit→detect pass, instead of paying collection twice
  when a table needs both (every ``cnn_spectrogram`` row).
- **Collection cache**: :class:`CollectionCache` keys a finished pass by
  ``(corpus, device, placement, rate, seed, …)`` so a whole paper table
  performs each collection exactly once; an optional on-disk store
  persists passes across runs (see :mod:`repro.eval.io`).
- **Instrumentation**: every stage runs inside a :mod:`repro.obs` span
  (``render`` → ``transmit`` → ``detect`` → ``product``). The traced
  map captures each chunk on whatever worker runs it, and the pass
  merges the chunks under its ``collect`` span. The metrics registry is
  the one account of a pass: the
  ``renders``, ``transmits``, ``regions_detected``, ``regions_used``,
  ``n_played``, ``cache_hits`` and ``cache_misses`` counters and the
  stage timers (``python -m repro.cli --metrics`` prints them).

The continuous-session (handheld) protocol is inherently sequential —
the hand-motion process is one continuous waveform across the session —
so there the engine parallelises the utterance *rendering* and keeps the
transmit chain serial, preserving the exact numerics of
:func:`repro.phone.recording.record_session`.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.features import FEATURE_NAMES, extract_features_batch
from repro.attack.labeling import LABELING_VERSION, label_regions, match_regions
from repro.attack.regions import Region, RegionDetector
from repro.attack.specimages import region_spectrogram_images_batch
from repro.batch import UtteranceBatch, batch_dtype
from repro.datasets import base as datasets_base
from repro.datasets.base import Corpus, UtteranceSpec, resolve_task
from repro.dsp.filters import cached_butter_highpass, sosfilt_zero_phase_batch
from repro.memo import ByteBudgetMemo
from repro.obs import capture_observability, merge_worker_trace, metrics, trace
from repro.parallel import (
    EXECUTOR_NAMES, ExecutorPool, resolve_executor, results_or_raise, run_tasks,
)
from repro.phone import channel as phone_channel
from repro.phone.channel import Placement, VibrationChannel

__all__ = [
    "EXECUTOR_NAMES",
    "DEFAULT_BATCH_CHUNK",
    "FeatureDataset",
    "SpectrogramDataset",
    "CollectionResult",
    "CollectionCache",
    "COLLECTION_CACHE_BYTES",
    "collection_key",
    "collect_datasets",
    "collect_per_utterance_products",
    "iter_region_samples",
    "default_cache",
]

#: Seconds of silence padded around each per-utterance playback so the
#: region detector sees the noise floor (matches the paper's protocol).
_UTTERANCE_PAD_S = 0.3

#: Utterances per stacked batch chunk. Chunking bounds peak memory and
#: gives the process executor work units; results are identical at any
#: chunk size.
DEFAULT_BATCH_CHUNK = 32


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class FeatureDataset:
    """Extracted Table II features with labels and provenance."""

    X: np.ndarray
    y: np.ndarray
    feature_names: Tuple[str, ...] = FEATURE_NAMES
    fs: float = 0.0
    n_played: int = 0

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )

    @property
    def extraction_rate(self) -> float:
        """Fraction of played utterances that yielded a usable region."""
        return self.X.shape[0] / self.n_played if self.n_played else 0.0


@dataclass
class SpectrogramDataset:
    """Region spectrogram images with labels."""

    images: np.ndarray  # (n, size, size, 1)
    y: np.ndarray
    fs: float = 0.0
    n_played: int = 0

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"images has {self.images.shape[0]} rows but y has {self.y.shape[0]}"
            )

    @property
    def extraction_rate(self) -> float:
        return self.images.shape[0] / self.n_played if self.n_played else 0.0


@dataclass
class CollectionResult:
    """Both datasets from one shared render→transmit→detect pass."""

    features: FeatureDataset
    spectrograms: SpectrogramDataset

    def __iter__(self):
        yield self.features
        yield self.spectrograms


# ---------------------------------------------------------------------------
# Work items and the batched stages
# ---------------------------------------------------------------------------


@dataclass
class _PassConfig:
    """Everything a chunk task needs; shipped with every task."""

    corpus: Corpus
    channel: VibrationChannel
    detector: RegionDetector
    seed: int
    size: int
    feature_highpass_hz: Optional[float]
    # OS-level defense postprocess applied to every sensor trace before
    # detection. The channel stored above is already the *defended*
    # channel (defense.apply ran in collect_datasets), so rate-cap
    # stages are no-ops here and the stream rate equals accel_fs.
    defense: Optional[object] = None
    # Compute dtype of the product stage: the caller's batch policy for
    # table-top passes (read once, so every worker uses it), float64 for
    # the continuous session.
    dtype: np.dtype = np.dtype(np.float64)
    # The process that built the config; a task running in any other
    # process is a worker of the pass's own process pool.
    origin_pid: int = field(default_factory=os.getpid)


def _item_rng(seed: int, index: int) -> np.random.Generator:
    """The work item's own RNG: identical at any worker count.

    The stream of ``np.random.default_rng([0x454D4F, seed & 0xFFFFFFFF,
    index])``: a list of words below 2**32 seeds ``SeedSequence`` with
    exactly this uint32 entropy array, and passing the array skips the
    list's per-element coercion, most of the cost of a call.
    """
    entropy = np.array([0x454D4F, seed & 0xFFFFFFFF, index], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _detect_chunk(
    config: _PassConfig, items: Sequence[Tuple[int, UtteranceSpec]]
) -> Tuple[List[np.ndarray], List[Optional[Region]], int]:
    """Render, transmit and detect one stacked chunk of work items.

    Returns each row's sensor trace, its most energetic region (None
    where the detector missed the utterance — the paper's dropped
    ~10 %) and the number of regions detected in the chunk. Raises on
    any per-row pathology (NaN audio poisoning the shared detector
    statistics, a corpus that rejects a spec, …).
    """
    corpus, detector = config.corpus, config.detector
    indices = [index for index, _ in items]
    specs = [spec for _, spec in items]
    rngs = [_item_rng(config.seed, index) for index in indices]
    n = len(items)

    # Stage timers are keyed by status alone; the chunk size stays on
    # the trace.
    with trace("render", n=n, metric_labels={}):
        audios = corpus.render_batch(specs)

    # Pad with silence so the detector sees the noise floor.
    pad = int(_UTTERANCE_PAD_S * corpus.audio_fs)

    with trace("transmit", n=n, metric_labels={}):
        if config.channel.placement is Placement.HANDHELD:
            # Handheld transmission advances the motion process, so each
            # item gets its own reseeded copy — which is what makes it
            # deterministic at any chunk size and under parallelism.
            signals = []
            for index, audio, rng in zip(indices, audios, rngs):
                channel = copy.deepcopy(config.channel)
                channel.reseed(int(config.seed & 0xFFFFFF) * 1000003 + index)
                signals.append(channel.transmit(np.pad(audio, pad), corpus.audio_fs, rng))
        else:
            # Table-top transmission is stateless given each row's RNG;
            # the chunk is padded as it is stacked.
            signals = config.channel.transmit_batch(audios, corpus.audio_fs, rngs, pad=pad)

    fs = config.channel.accel_fs
    if config.defense is not None:
        # Per row: the defense sees exactly one unpadded trace at a time.
        signals = [config.defense.postprocess(signal, fs) for signal in signals]
    detect_batch = getattr(detector, "detect_batch", None)
    with trace("detect", n=n, metric_labels={}):
        if detect_batch is not None:
            regions_list = detect_batch(signals, fs)
        else:
            regions_list = [detector.detect(signal, fs) for signal in signals]

    bests = [_loudest(signal, regions) for signal, regions in zip(signals, regions_list)]
    return signals, bests, sum(len(regions) for regions in regions_list)


def _loudest(signal: np.ndarray, regions: Sequence[Region]) -> Optional[Region]:
    """The region of ``signal`` with the most AC energy (None if there is none)."""
    if len(regions) < 2:
        return regions[0] if regions else None
    return max(
        regions,
        key=lambda r: float(np.sum((r.slice(signal) - np.mean(r.slice(signal))) ** 2)),
    )


def _products(
    config: _PassConfig, signals: Sequence[np.ndarray], regions: Sequence[Region]
) -> Tuple[List[Optional[np.ndarray]], List[Optional[np.ndarray]]]:
    """Table II features and spectrogram image of each (trace, region) row.

    Computed in ``config.dtype``. A region too short for features
    (< 4 samples) or for an image (< 8 samples) gets None in that list.
    """
    fs = config.channel.accel_fs
    feat_rows, feat_pos = [], []
    for k, (signal, region) in enumerate(zip(signals, regions)):
        samples = region.slice(signal)
        if samples.size < 4:
            continue
        feat_rows.append(samples)
        feat_pos.append(k)
    if config.feature_highpass_hz is not None:
        long_rows = [j for j, samples in enumerate(feat_rows) if samples.size > 32]
        if long_rows:
            sos = cached_butter_highpass(config.feature_highpass_hz, fs, order=4)
            batch = UtteranceBatch.pack([feat_rows[j] for j in long_rows], dtype=float)
            filtered = sosfilt_zero_phase_batch(sos, batch.data, batch.lengths)
            for j, samples, size in zip(long_rows, filtered, batch.lengths):
                feat_rows[j] = samples[:size]
    features: List[Optional[np.ndarray]] = [None] * len(regions)
    if feat_rows:
        matrix = extract_features_batch(feat_rows, fs, dtype=config.dtype)
        for k, row in zip(feat_pos, matrix):
            features[k] = row
    images: List[Optional[np.ndarray]] = [None] * len(regions)
    img_pos = [k for k, region in enumerate(regions) if region.end - region.start >= 8]
    if img_pos:
        stack = region_spectrogram_images_batch(
            [signals[k] for k in img_pos],
            [regions[k] for k in img_pos],
            size=config.size,
            dtype=config.dtype,
        )
        for k, image in zip(img_pos, stack):
            images[k] = image
    return features, images


def _run_chunk(config: _PassConfig, items: Sequence[Tuple[int, UtteranceSpec]]) -> List[Tuple]:
    """One chunk through both stages: ``(index, label|None, features, image)`` rows.

    Counters are counted once the whole chunk has succeeded, so a failed
    chunk leaves only its spans behind.
    """
    signals, bests, n_detected = _detect_chunk(config, items)
    hit = [k for k, best in enumerate(bests) if best is not None]
    with trace("product", n=len(items), metric_labels={}):
        features, images = _products(
            config, [signals[k] for k in hit], [bests[k] for k in hit]
        )
    registry = metrics()
    registry.count("renders", len(items))
    registry.count("transmits", len(items))
    registry.count("regions_detected", n_detected)
    registry.count("regions_used", len(hit))
    rows: List[Tuple] = [(index, None, None, None) for index, _ in items]
    for k, feature_row, image in zip(hit, features, images):
        rows[k] = (items[k][0], items[k][1].emotion, feature_row, image)
    return rows


def _run_chunk_task(task: Tuple[_PassConfig, Sequence[Tuple[int, UtteranceSpec]]]) -> List[Tuple]:
    """Task entry point: one chunk's product rows.

    Module-level, hence picklable for the process executor. If the
    stacked chunk raises — one poisoned utterance must not take down its
    batchmates — each of its rows re-runs as a chunk of one; only the
    offending rows are dropped (counted under ``batch.rows_isolated``)
    and every healthy row keeps its byte-identical product.

    A process worker of the pass's own pool exits with the pass, so a
    waveform or vibration it stored would never be read again: it reads
    the render and vibration memos it inherited but stores nothing.
    """
    config, items = task
    if os.getpid() != config.origin_pid:
        datasets_base._RENDER_MEMO.budget_bytes = 0
        phone_channel._TRANSMIT_MEMO.budget_bytes = 0
    try:
        return _run_chunk(config, items)
    except Exception:
        metrics().count("batch.chunk_fallbacks")
    rows = []
    for item in items:
        try:
            rows.extend(_run_chunk(config, [item]))
        except Exception:
            metrics().count("batch.rows_isolated")
            rows.append((item[0], None, None, None))
    return rows


def _collect_tabletop(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    n_jobs: int,
    executor: str,
    batch_chunk: int,
) -> List[Tuple]:
    """Fan stacked chunks of utterances out over the chosen executor."""
    indexed = list(enumerate(specs))
    tasks = [
        (config, indexed[i : i + batch_chunk]) for i in range(0, len(indexed), batch_chunk)
    ]
    with ExecutorPool(n_jobs=n_jobs, executor=executor) as pool:
        chunks = results_or_raise(pool.map_traced(_run_chunk_task, tasks))
    return [row for rows in chunks for row in rows if row[1] is not None]


def _collect_continuous(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    n_jobs: int,
    executor: str,
) -> List[Tuple]:
    """One continuous recording session, labelled from the playback log.

    The transmit chain is inherently serial (the hand-motion process is
    continuous across the session), so parallelism is applied to the
    utterance rendering only; the session numerics are identical to a
    fully serial run.
    """
    from repro.phone.recording import record_session

    # Pre-render in parallel; the session then looks waveforms up.
    render_executor = "serial" if executor == "process" else executor
    with trace("render", n=len(specs), metric_labels={}):
        waves = run_tasks(
            config.corpus.render, specs, n_jobs=n_jobs, executor=render_executor
        )
    rendered: Dict[UtteranceSpec, np.ndarray] = dict(zip(specs, waves))

    with trace("transmit", continuous=True, metric_labels={}):
        session = record_session(
            config.corpus,
            config.channel,
            specs=specs,
            seed=config.seed,
            renderer=rendered.__getitem__,
        )

    session_trace = session.trace
    if config.defense is not None:
        # The whole recorded session passes through the OS boundary once;
        # the defended channel's rate already satisfies any cap, so the
        # stream rate is unchanged (see _PassConfig.defense).
        session_trace = config.defense.postprocess(session_trace, session.fs)

    with trace("detect", metric_labels={}):
        regions = config.detector.detect(session_trace, session.fs)

    matched = match_regions(regions, session.events)
    with trace("product", metric_labels={}):
        features, images = _products(
            config, [session_trace] * len(matched), [region for region, _ in matched]
        )
    registry = metrics()
    registry.count("renders", len(specs))
    # record_session transmits a leading gap, then wave+gap per utterance.
    registry.count("transmits", 1 + 2 * len(specs))
    registry.count("regions_detected", len(regions))
    registry.count("regions_used", len(matched))
    # Product rows carry the matched playback *event* (not just its
    # emotion string) so a cached pass can be re-labelled for any task —
    # the event records speaker/utterance identity too.
    return [
        (-1, event, feature_row, image)
        for (_, event), feature_row, image in zip(matched, features, images)
    ]


def _run_pass(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    continuous: bool,
    n_jobs: int,
    executor: str,
    batch_chunk: int = DEFAULT_BATCH_CHUNK,
    cache_miss: bool = False,
    **labels,
) -> List[Tuple]:
    """One collection pass under a ``collect`` span: its product rows.

    The pass records into its own registry, which is merged under the
    ``collect`` span even when the pass fails: spans and stage timers
    survive exceptions, while counters are counted only by finished
    chunks and passes, so a failed pass publishes none.
    """
    n_jobs = max(1, int(n_jobs))
    with trace("collect", executor=executor, n_jobs=n_jobs, **labels) as pass_span:
        try:
            with capture_observability() as recorded:
                if continuous:
                    products = _collect_continuous(config, specs, n_jobs, executor)
                else:
                    products = _collect_tabletop(
                        config, specs, n_jobs, executor, max(1, int(batch_chunk))
                    )
                registry = metrics()
                registry.count("n_played", len(specs))
                if cache_miss:
                    registry.count("cache_misses")
                registry.gauge("engine.n_jobs", n_jobs, executor=executor)
        finally:
            merge_worker_trace(recorded, parent=pass_span)
    return products


def collect_per_utterance_products(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    seed: int = 0,
    size: int = 32,
    feature_highpass_hz: Optional[float] = None,
    n_jobs: int = 1,
    executor: Optional[str] = None,
) -> List[Tuple[int, str, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Table-top product rows with spec provenance.

    Each product is ``(spec_index, label, features|None, image|None)``
    — the building block for consumers that need row→utterance
    alignment (e.g. the Spearphone speaker/gender baseline). Runs the
    batched stages under the active batch policy, like every table-top
    pass.
    """
    detector = detector or _default_detector(channel)
    specs = list(specs if specs is not None else corpus.specs)
    executor_name = resolve_executor(n_jobs, executor)
    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=int(size),
        feature_highpass_hz=feature_highpass_hz,
        dtype=batch_dtype(),
    )
    return _run_pass(
        config,
        specs,
        continuous=False,
        n_jobs=n_jobs,
        executor=executor_name,
        corpus=corpus.name,
        device=channel.device.name,
        placement=channel.placement.value,
        api="products",
    )


def iter_region_samples(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    continuous: Optional[bool] = None,
    seed: int = 0,
):
    """Yield ``(label, region, trace)`` triples for every usable region.

    Serial generator over the engine's deterministic work items — the
    raw-material path for consumers that need region *samples* rather
    than finished features/images (e.g. data augmentation). Table-top
    items run through the render/transmit/detect stage in chunks.
    """
    detector = detector or _default_detector(channel)
    if continuous is None:
        continuous = channel.placement is Placement.HANDHELD
    specs = list(specs if specs is not None else corpus.specs)

    if continuous:
        from repro.phone.recording import record_session

        session = record_session(corpus, channel, specs=specs, seed=seed)
        regions = detector.detect(session.trace, session.fs)
        for region, label in label_regions(regions, session.events):
            yield label, region, session.trace
        return

    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=32,
        feature_highpass_hz=None,
    )
    indexed = list(enumerate(specs))
    for start in range(0, len(indexed), DEFAULT_BATCH_CHUNK):
        items = indexed[start : start + DEFAULT_BATCH_CHUNK]
        signals, bests, _ = _detect_chunk(config, items)
        for (_, spec), signal, best in zip(items, signals, bests):
            if best is not None:
                yield spec.emotion, best, signal


# ---------------------------------------------------------------------------
# Collection cache
# ---------------------------------------------------------------------------


def collection_key(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Sequence[UtteranceSpec],
    detector: RegionDetector,
    continuous: bool,
    seed: int,
    size: int = 32,
    feature_highpass_hz: Optional[float] = None,
    batch_dtype: Optional[str] = None,
    task: str = "emotion",
    defense=None,
) -> str:
    """Stable key for one collection pass.

    Readable prefix ``corpus-device-placement-rate-seed`` plus a digest
    over everything else that changes the numerics (spec list, device
    profile, detector configuration, sensor, environment, image size,
    feature-path filter, batch-policy compute dtype). Executor choice,
    worker count and chunk size are deliberately excluded:
    they do not change the result. ``batch_dtype=None`` normalises to
    ``"float64"``, the golden policy; a float32 hot-path pass keys
    separately.

    The label ``task`` only affects which labels are attached, never the
    physics, so the default emotion task keys exactly as before this
    parameter existed — warm emotion entries (in memory and on disk)
    stay valid. Non-emotion tasks key separately, fingerprinting
    ``(task, LABELING_VERSION)`` so a labeling-policy bump invalidates
    only re-labelled entries.

    A defended pass fingerprints the whole defense stack — class and
    every constructor parameter, *including noise seeds* — so defended
    runs that differ only in an injected-noise seed never share an
    entry. ``defense=None`` keys exactly as before this parameter
    existed.
    """
    import hashlib
    import re

    task_name = resolve_task(task)
    parts = [
        corpus.name,
        corpus.audio_fs,
        corpus.expressiveness,
        corpus.variability,
        tuple(
            (s.utterance_id, s.speaker_id, s.emotion, s.seed,
             s.mean_syllables, s.carrier)
            for s in specs
        ),
        repr(channel.device),
        channel.mode.value,
        channel.placement.value,
        channel.accel_fs,
        channel.sensor,
        repr(channel.environment),
        tuple(sorted((k, v) for k, v in vars(detector).items())),
        bool(continuous),
        int(seed),
        int(size),
        feature_highpass_hz,
        str(batch_dtype) if batch_dtype is not None else "float64",
    ]
    infix = ""
    if task_name != "emotion":
        parts.append((task_name, LABELING_VERSION))
        infix = f"{task_name}-"
    if defense is not None:
        parts.append(("defense", defense.fingerprint()))
        label = re.sub(r"[^A-Za-z0-9_.+-]", "_", getattr(defense, "name", "defended"))
        infix = f"{label[:48]}-{infix}"
    digest = hashlib.sha256(repr(tuple(parts)).encode()).hexdigest()[:16]
    rate = f"{channel.accel_fs:g}"
    return (
        f"{corpus.name}-{channel.device.name}-{channel.placement.value}"
        f"-{rate}hz-s{int(seed)}-{infix}{digest}"
    )


#: Byte budget of each in-memory layer of a :class:`CollectionCache`
#: (finished passes, and product rows kept for relabelling). A
#: 2800-utterance TESS pass holds ~25 MB of features and images, so
#: each layer keeps about ten such passes before it evicts.
COLLECTION_CACHE_BYTES = 256 << 20


def _result_nbytes(result: CollectionResult) -> int:
    features, images = result.features, result.spectrograms
    return features.X.nbytes + features.y.nbytes + images.images.nbytes + images.y.nbytes


def _products_nbytes(products: Sequence[Tuple]) -> int:
    return sum(a.nbytes for row in products for a in row[2:] if a is not None)


class CollectionCache:
    """Registry of finished collection passes.

    In-memory by default; pass ``cache_dir`` to also persist each pass as
    a ``{key}.npz`` :mod:`repro.artifact` file (via :mod:`repro.eval.io`)
    that later processes — or later runs — can reload instead of
    re-collecting. :meth:`lookup` verifies the file's member hashes and
    pass key before it rebuilds the pass, so a file that is unreadable,
    altered, filed under another key's name or in an older format is a
    miss counted as ``cache.disk_corrupt``, and is rewritten when the
    pass is collected again.

    Alongside finished (already-labelled) results the cache keeps a
    memory-only *products* layer keyed by the task-independent base key:
    the raw ``(index, record, features, image)`` rows of a physical
    pass. A request for the same corpus under a different label task is
    served by re-labelling those rows — zero extra collection cost.

    Both in-memory layers are bounded by :data:`COLLECTION_CACHE_BYTES`
    (:class:`repro.memo.ByteBudgetMemo`); evictions are counted as
    ``cache.entry_evictions`` and ``cache.products_evictions``. An
    evicted pass is reloaded from disk or collected again, byte-identical.
    """

    def __init__(self, cache_dir=None):
        self._entries = ByteBudgetMemo(COLLECTION_CACHE_BYTES, "cache.entry_evictions")
        self._products = ByteBudgetMemo(
            COLLECTION_CACHE_BYTES, "cache.products_evictions"
        )
        # The artifact writer makes the directory on the first store.
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries or self._disk_path(key) is not None

    def _disk_path(self, key: str):
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.npz"
        return path if path.exists() else None

    def lookup(self, key: str) -> Optional[CollectionResult]:
        """Return the cached pass for ``key``, or None.

        An on-disk bundle that fails to load or to verify also answers
        None (a counted miss) instead of raising.
        """
        result = self._entries.get(key)
        if result is not None:
            return result
        path = self._disk_path(key)
        if path is not None:
            from repro.eval.io import load_collection

            try:
                result = load_collection(path, key=key)
            except Exception:  # noqa: BLE001 - any unreadable bundle
                # A truncated, altered, misfiled or older-format file is
                # a miss: the caller collects again and store() atomically
                # replaces it.
                metrics().count("cache.disk_corrupt")
                return None
            self._entries.put(key, result, _result_nbytes(result))
            return result
        return None

    def store(self, key: str, result: CollectionResult) -> None:
        """Register a finished pass under ``key`` (and on disk if enabled)."""
        self._entries.put(key, result, _result_nbytes(result))
        if self.cache_dir is not None:
            from repro.eval.io import save_collection

            save_collection(result, self.cache_dir / f"{key}.npz", key=key)

    def store_products(self, base_key: str, products: List, n_played: int) -> None:
        """Keep a pass's raw product rows for later re-labelling.

        Memory-only by design: rows reference live record objects
        (specs indices / playback events) that the ``.npz`` bundle
        format does not carry.
        """
        products = list(products)
        self._products.put(base_key, (products, int(n_played)), _products_nbytes(products))

    def lookup_products(self, base_key: str) -> Optional[Tuple[List, int]]:
        """Raw ``(products, n_played)`` of a finished pass, or None."""
        return self._products.get(base_key)

    def clear(self) -> None:
        """Drop every in-memory entry (on-disk bundles are kept)."""
        self._entries.clear()
        self._products.clear()
        self.hits = 0
        self.misses = 0


#: The module-default cache shared by the suite, benchmarks and CLI.
DEFAULT_CACHE = CollectionCache()


def default_cache() -> CollectionCache:
    """The shared module-level collection cache."""
    return DEFAULT_CACHE


# ---------------------------------------------------------------------------
# The one-call collection API
# ---------------------------------------------------------------------------


def _default_detector(channel: VibrationChannel) -> RegionDetector:
    return RegionDetector.for_setting(channel.placement.value)


def _task_labelled_rows(
    products: Sequence[Tuple],
    specs: Sequence[UtteranceSpec],
    corpus: Corpus,
    task: str,
) -> List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]]:
    """Attach the task's label to each product row.

    Table-top rows carry ``index >= 0`` into ``specs`` and
    an emotion-string payload; continuous rows carry ``index == -1`` and
    the matched :class:`~repro.phone.recording.PlaybackEvent` as
    payload. Either record type exposes ``speaker_id``/``emotion``, so
    :meth:`Corpus.task_label` covers both.
    """
    labelled = []
    for index, payload, features, image in products:
        if task == "emotion":
            label = payload if isinstance(payload, str) else payload.emotion
        else:
            record = specs[index] if index >= 0 else payload
            label = corpus.task_label(record, task)
        labelled.append((label, features, image))
    return labelled


def _assemble_result(
    labelled: Sequence[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]],
    fs: float,
    n_played: int,
    size: int,
) -> CollectionResult:
    """Build both datasets from labelled product rows."""
    rows = [(label, f) for label, f, _ in labelled if f is not None]
    X = np.vstack([f for _, f in rows]) if rows else np.empty((0, len(FEATURE_NAMES)))
    features = FeatureDataset(
        X=X,
        y=np.array([label for label, _ in rows]),
        fs=fs,
        n_played=n_played,
    )
    shots = [(label, img) for label, _, img in labelled if img is not None]
    stack = (
        np.stack([img for _, img in shots])[..., None]
        if shots
        else np.empty((0, size, size, 1))
    )
    spectrograms = SpectrogramDataset(
        images=stack,
        y=np.array([label for label, _ in shots]),
        fs=fs,
        n_played=n_played,
    )
    return CollectionResult(features=features, spectrograms=spectrograms)


def collect_datasets(
    corpus: Corpus,
    channel: VibrationChannel,
    specs: Optional[Sequence[UtteranceSpec]] = None,
    detector: Optional[RegionDetector] = None,
    continuous: Optional[bool] = None,
    seed: int = 0,
    size: int = 32,
    feature_highpass_hz: Optional[float] = None,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    cache: Optional[CollectionCache] = None,
    pipeline: Optional[str] = None,
    batch_chunk: Optional[int] = None,
    task: str = "emotion",
    defense=None,
) -> CollectionResult:
    """Collect the feature *and* spectrogram datasets in one shared pass.

    Parameters
    ----------
    n_jobs:
        Worker count over which the table-top protocol's chunks (and the
        rendering stage of the continuous protocol) fan out. Results are
        identical at any value.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``; None picks serial
        for ``n_jobs <= 1`` and threads otherwise.
    cache:
        Optional :class:`CollectionCache`; a hit skips the pass entirely
        and returns the registered result object.
    pipeline:
        ``None`` or ``"batched"``, the one table-top data plane; any
        other value raises. One utterance at a time is ``batch_chunk=1``.
    batch_chunk:
        Utterances per stacked chunk (default
        :data:`DEFAULT_BATCH_CHUNK`). Results are identical at any chunk
        size; the continuous (handheld session) protocol ignores it.
    task:
        Which label to attach to each collected region — one of
        :data:`repro.datasets.base.TASKS` (``emotion``, ``speaker-id``,
        ``gender``, ``content-id``). The physics of the pass is
        task-independent: with a ``cache``, a second task over the same
        corpus re-labels the cached product rows instead of re-running
        render→transmit→detect.
    defense:
        Optional :class:`repro.attack.defense.Defense` (or stack). Its
        ``apply`` reconfigures the channel before collection and its
        ``postprocess`` transforms every sensor trace before detection —
        the attacker only ever sees the defended stream. The defense
        fingerprint (parameters and seeds included) is folded into the
        cache key; relabel-from-cache still works across tasks *within*
        one defended configuration.
    """
    if pipeline not in (None, "batched"):
        raise ValueError(
            f"unknown pipeline {pipeline!r}: collection always runs batched "
            "chunks; pass batch_chunk=1 to play one utterance at a time"
        )
    if defense is not None:
        channel = defense.apply(channel)
    detector = detector or _default_detector(channel)
    if continuous is None:
        continuous = channel.placement is Placement.HANDHELD
    specs = list(specs if specs is not None else corpus.specs)
    executor_name = resolve_executor(n_jobs, executor)
    task_name = resolve_task(task)

    # Every table-top pass honours the batch policy; the continuous
    # session computes in float64.
    active_dtype = np.dtype(np.float64) if continuous else batch_dtype()

    key = base_key = None
    if cache is not None:
        base_key = collection_key(
            corpus, channel, specs, detector, continuous, seed, size,
            feature_highpass_hz, batch_dtype=str(active_dtype),
            defense=defense,
        )
        key = base_key if task_name == "emotion" else collection_key(
            corpus, channel, specs, detector, continuous, seed, size,
            feature_highpass_hz, batch_dtype=str(active_dtype), task=task_name,
            defense=defense,
        )
        hit = cache.lookup(key)
        if hit is not None:
            cache.hits += 1
            metrics().count("cache_hits")
            return hit
        # The task key missed, but a pass under another task may have
        # left its raw products behind: re-label instead of re-collect.
        cached_products = cache.lookup_products(base_key)
        if cached_products is not None:
            products, n_played = cached_products
            cache.hits += 1
            metrics().count("cache.relabel_hits")
            metrics().count("cache_hits")
            result = _assemble_result(
                _task_labelled_rows(products, specs, corpus, task_name),
                channel.accel_fs,
                n_played,
                int(size),
            )
            cache.store(key, result)
            return result
        cache.misses += 1

    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=int(size),
        feature_highpass_hz=feature_highpass_hz,
        defense=defense,
        dtype=active_dtype,
    )
    products = _run_pass(
        config,
        specs,
        continuous,
        n_jobs,
        executor_name,
        batch_chunk if batch_chunk is not None else DEFAULT_BATCH_CHUNK,
        cache_miss=cache is not None,
        corpus=corpus.name,
        device=channel.device.name,
        placement=channel.placement.value,
        pipeline="continuous" if continuous else "batched",
    )

    result = _assemble_result(
        _task_labelled_rows(products, specs, corpus, task_name),
        channel.accel_fs,
        len(specs),
        int(size),
    )
    if cache is not None and key is not None:
        cache.store_products(base_key, products, len(specs))
        cache.store(key, result)
    return result
