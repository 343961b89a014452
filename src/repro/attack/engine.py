"""Parallel collection engine: work items, executors, caching, stats.

The collection stage — render each utterance, transmit it through the
vibration channel, detect speech regions, extract the Table II features
and the 32x32 spectrogram image — dominates the cost of regenerating a
paper table, and the per-utterance (table-top) protocol is embarrassingly
parallel. This module turns that loop into an engine:

- **Deterministic work items**: every utterance gets its *own* RNG
  derived from ``(seed, item index)``, so the collected datasets are
  byte-identical at any worker count and under any executor.
- **Pluggable executors**: ``serial`` (the reference path), ``thread``
  and ``process``; selected by name or defaulted from ``n_jobs``.
- **Single-pass collection**: :func:`collect_datasets` produces the
  :class:`FeatureDataset` *and* the :class:`SpectrogramDataset` from one
  shared render→transmit→detect pass, instead of paying collection twice
  when a table needs both (every ``cnn_spectrogram`` row).
- **Collection cache**: :class:`CollectionCache` keys a finished pass by
  ``(corpus, device, placement, rate, seed, …)`` so a whole paper table
  performs each collection exactly once; an optional on-disk store
  persists passes across runs (see :mod:`repro.eval.io`).
- **Instrumentation**: every stage runs inside a :mod:`repro.obs` span
  (``render`` → ``transmit`` → ``detect`` → ``product`` under a
  ``collect`` pass span), so timings survive exceptions and land in the
  process-wide metrics registry with per-scenario labels.
  :class:`CollectionStats` remains the backward-compatible summary
  object: per-pass records are built from the span durations, and
  :func:`global_stats` is a thin view over the registry.

The continuous-session (handheld) protocol is inherently sequential —
the hand-motion process is one continuous waveform across the session —
so there the engine parallelises the utterance *rendering* and keeps the
transmit chain serial, preserving the exact numerics of
:func:`repro.phone.recording.record_session`.
"""

from __future__ import annotations

import copy
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.features import (
    FEATURE_NAMES,
    extract_features,
    extract_features_batch,
)
from repro.attack.labeling import LABELING_VERSION, label_regions, match_regions
from repro.attack.regions import Region, RegionDetector
from repro.attack.specimages import (
    region_spectrogram_image,
    region_spectrogram_images_batch,
)
from repro.batch import batch_dtype
from repro.datasets import base as datasets_base
from repro.datasets.base import Corpus, UtteranceSpec, resolve_task
from repro.dsp.filters import cached_butter_highpass, sosfilt_zero_phase
from repro.memo import ByteBudgetMemo
from repro.obs import MetricsRegistry, metrics, trace, tracer
from repro.parallel import EXECUTOR_NAMES, resolve_executor
from repro.parallel import run_tasks as _run_tasks_generic
from repro.phone.channel import Placement, VibrationChannel

__all__ = [
    "EXECUTOR_NAMES",
    "PIPELINES",
    "DEFAULT_PIPELINE",
    "DEFAULT_BATCH_CHUNK",
    "CollectionStats",
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
    "global_stats",
    "reset_global_stats",
    "run_tasks",
]

#: Seconds of silence padded around each per-utterance playback so the
#: region detector sees the noise floor (matches the paper's protocol).
_UTTERANCE_PAD_S = 0.3

#: Collection pipelines: ``batched`` stacks utterances into chunks and runs
#: each stage across the batch axis (the default; byte-identical to the
#: reference under the float64 batch policy); ``per_utterance`` is the
#: original one-utterance-at-a-time reference path.
PIPELINES: Tuple[str, ...] = ("batched", "per_utterance")
DEFAULT_PIPELINE = "batched"

#: Utterances per stacked batch chunk. Chunking bounds peak memory and
#: gives the process executor work units; results are identical at any
#: chunk size.
DEFAULT_BATCH_CHUNK = 32


def _resolve_pipeline(pipeline: Optional[str]) -> str:
    name = str(pipeline or DEFAULT_PIPELINE).replace("-", "_")
    if name not in PIPELINES:
        raise ValueError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    return name


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


@dataclass
class CollectionStats:
    """Counters and stage timers for one (or many) collection passes.

    Stage timers are *summed across workers*, so with ``n_jobs > 1`` they
    can exceed ``total_s`` (which is wall time). ``cache_hits`` counts
    whole passes served from a :class:`CollectionCache`.
    """

    renders: int = 0
    transmits: int = 0
    regions_detected: int = 0
    regions_used: int = 0
    n_played: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    render_s: float = 0.0
    transmit_s: float = 0.0
    detect_s: float = 0.0
    product_s: float = 0.0
    total_s: float = 0.0
    n_jobs: int = 1
    executor: str = "serial"

    def add(self, other: "CollectionStats") -> None:
        """Accumulate another stats record into this one (in place)."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _TIMER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        # An aggregate reports the widest pool it saw (cache-hit records
        # carry the defaults and must not mask a parallel pass).
        if other.n_jobs > self.n_jobs:
            self.n_jobs = other.n_jobs
            self.executor = other.executor

    def summary(self) -> str:
        """One-line human-readable account of the pass."""
        return (
            f"transmits={self.transmits} renders={self.renders} "
            f"regions={self.regions_used}/{self.regions_detected} "
            f"cache={self.cache_hits}h/{self.cache_misses}m "
            f"[render {self.render_s:.2f}s, transmit {self.transmit_s:.2f}s, "
            f"detect {self.detect_s:.2f}s, featurize {self.product_s:.2f}s; "
            f"wall {self.total_s:.2f}s, {self.executor} x{self.n_jobs}]"
        )

    # -- registry view ------------------------------------------------------
    def to_registry(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Express this record as observability metrics.

        Counter fields become counters, stage timers become one timer
        observation each (``total_s`` under the ``collect`` timer), and
        the worker pool becomes the high-water ``engine.n_jobs`` gauge —
        so :meth:`add` on two records agrees with
        :meth:`MetricsRegistry.merge` on their registries.
        """
        registry = registry if registry is not None else MetricsRegistry()
        for name in _COUNTER_FIELDS:
            value = getattr(self, name)
            if value:
                registry.count(name, value)
        for name, timer in _TIMER_FIELDS.items():
            value = getattr(self, name)
            if value:
                registry.observe(timer, value)
        registry.gauge("engine.n_jobs", self.n_jobs, executor=self.executor)
        return registry

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "CollectionStats":
        """Thin :class:`CollectionStats` view over a metrics registry."""
        stats = cls()
        for name in _COUNTER_FIELDS:
            setattr(stats, name, int(registry.counter_total(name)))
        for name, timer in _TIMER_FIELDS.items():
            setattr(stats, name, registry.timer_total(timer).total_s)
        pools = [
            (value, dict(labels).get("executor", "serial"))
            for (gauge, labels), value in registry.snapshot()["gauges"].items()
            if gauge == "engine.n_jobs"
        ]
        if pools:
            width, executor = max(pools, key=lambda p: (p[0], p[1]))
            stats.n_jobs = int(width)
            stats.executor = executor
        return stats


#: CollectionStats counter field -> registry counter of the same name.
_COUNTER_FIELDS: Tuple[str, ...] = (
    "renders", "transmits", "regions_detected", "regions_used",
    "n_played", "cache_hits", "cache_misses",
)

#: CollectionStats timer field -> registry/span timer name.
_TIMER_FIELDS: Dict[str, str] = {
    "render_s": "render",
    "transmit_s": "transmit",
    "detect_s": "detect",
    "product_s": "product",
    "total_s": "collect",
}


def global_stats() -> CollectionStats:
    """The process-wide collection counters.

    A view assembled from the process-wide metrics registry: counters
    come from :func:`_publish`, stage timers from the engine's spans —
    which record on exception paths too, so time spent in a failing
    pass is still accounted.
    """
    return CollectionStats.from_registry(metrics())


def reset_global_stats() -> None:
    """Zero the process-wide collection counters (the metrics registry)."""
    metrics().clear()


def _publish(stats: CollectionStats) -> None:
    """Mirror a finished pass's counters into the process-wide registry.

    Only the *counter* fields are published: stage timers already
    reached the registry through span exits (or, for process-pool runs,
    through the aggregate spans recorded by the parent), so publishing
    them again would double-count.
    """
    registry = metrics()
    for name in _COUNTER_FIELDS:
        value = getattr(stats, name)
        if value:
            registry.count(name, value)
    registry.gauge("engine.n_jobs", stats.n_jobs, executor=stats.executor)


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
    stats: Optional[CollectionStats] = field(default=None, repr=False, compare=False)

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
    stats: Optional[CollectionStats] = field(default=None, repr=False, compare=False)

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
    stats: CollectionStats

    def __iter__(self):
        yield self.features
        yield self.spectrograms


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

# Per-worker context for the process executor; installed once per worker
# via the pool initializer so the corpus/channel are pickled once, not
# once per work item.
_WORKER_CONTEXT: Optional["_PassConfig"] = None


def _init_worker(config: "_PassConfig") -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = config
    # A worker lives for one pass, so a waveform it stores is never read
    # again: it still reads what it inherited, but stores nothing.
    datasets_base._RENDER_MEMO.budget_bytes = 0


def _process_entry(index_and_spec: Tuple[int, UtteranceSpec]):
    index, spec = index_and_spec
    return _run_work_item(_WORKER_CONTEXT, index, spec)


def run_tasks(
    fn: Callable,
    items: Sequence,
    n_jobs: int = 1,
    executor: Optional[str] = None,
) -> List:
    """Run ``fn`` over ``items`` with the chosen executor, preserving order.

    Thin wrapper over :func:`repro.parallel.run_tasks` that keeps the
    engine's historical restriction: the ``process`` executor runs
    through :func:`collect_datasets` (which ships the pass config via a
    pool initializer), not through this helper.
    """
    if _resolve_executor(n_jobs, executor) == "process":
        raise ValueError(
            "the process executor runs through collect_datasets(); "
            "run_tasks() only supports 'serial' and 'thread'"
        )
    return _run_tasks_generic(fn, items, n_jobs=n_jobs, executor=executor)


#: Executor-name resolution now lives in :mod:`repro.parallel` (shared
#: with the training/evaluation engine); kept under the old name for the
#: engine's internal call sites.
_resolve_executor = resolve_executor


# ---------------------------------------------------------------------------
# Work items (per-utterance protocol)
# ---------------------------------------------------------------------------


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
    # channel (defense.apply ran in collect_datasets), so rate-cap
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

    Returns ``(trace, best_region|None, stats)``; the region is None when
    the detector missed the utterance (the paper's dropped ~10 %).
    """
    stats = CollectionStats()
    rng = _item_rng(config.seed, index)
    corpus, detector = config.corpus, config.detector

    with trace("render") as span:
        audio = corpus.render(spec)
    stats.renders += 1
    stats.render_s += span.duration_s

    # Pad with silence so the detector sees the noise floor.
    pad = np.zeros(int(_UTTERANCE_PAD_S * corpus.audio_fs))
    audio = np.concatenate([pad, audio, pad])

    channel = _item_channel(config, index)
    with trace("transmit") as span:
        signal = channel.transmit(audio, corpus.audio_fs, rng)
    stats.transmits += 1
    stats.transmit_s += span.duration_s

    if config.defense is not None:
        signal = config.defense.postprocess(signal, channel.accel_fs)

    with trace("detect") as span:
        regions = detector.detect(signal, channel.accel_fs)
    stats.detect_s += span.duration_s
    stats.regions_detected += len(regions)
    if not regions:
        return signal, None, stats

    # One utterance => take the most energetic region.
    best = max(
        regions,
        key=lambda r: float(np.sum((r.slice(signal) - np.mean(r.slice(signal))) ** 2)),
    )
    stats.regions_used += 1
    return signal, best, stats


def _run_work_item(config: _PassConfig, index: int, spec: UtteranceSpec):
    """One utterance through the full pipeline.

    Returns ``(index, label|None, features|None, image|None, stats)``.
    """
    signal, best, stats = _transmit_and_detect(config, index, spec)
    if best is None:
        return index, None, None, None, stats

    with trace("product") as span:
        features = _feature_row(
            signal, best, config.channel.accel_fs, config.feature_highpass_hz
        )
        image = _image_product(signal, best, config.size)
    stats.product_s += span.duration_s
    return index, spec.emotion, features, image, stats


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


def _collect_per_utterance(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    n_jobs: int,
    executor: str,
) -> Tuple[List, CollectionStats]:
    """Fan the per-utterance work items out over the chosen executor."""
    stats = CollectionStats(n_jobs=max(1, int(n_jobs)), executor=executor)
    indexed = list(enumerate(specs))
    ran_in_pool = executor == "process" and len(indexed) > 1 and n_jobs > 1
    if ran_in_pool:
        with ProcessPoolExecutor(
            max_workers=max(1, int(n_jobs)),
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            results = list(pool.map(_process_entry, indexed, chunksize=4))
    else:
        def run_one(pair):
            return _run_work_item(config, pair[0], pair[1])

        results = run_tasks(
            run_one,
            indexed,
            n_jobs=n_jobs,
            executor="serial" if executor == "process" else executor,
        )
    products = []
    for result in results:
        index, label, features, image, item_stats = result
        stats.add(item_stats)
        if label is not None:
            products.append((index, label, features, image))
    if ran_in_pool:
        # Worker-process spans die with their workers; reconstruct the
        # stage timings as aggregate spans so the parent's trace and
        # registry still account for them (exactly once).
        tr = tracer()
        for field_name, span_name in _TIMER_FIELDS.items():
            if span_name == "collect":
                continue
            tr.record(
                span_name,
                getattr(stats, field_name),
                aggregated="worker-sum",
                n_jobs=stats.n_jobs,
            )
    return products, stats


# ---------------------------------------------------------------------------
# Batched pipeline (stacked utterance chunks)
# ---------------------------------------------------------------------------


def _process_batch_entry(items: List[Tuple[int, UtteranceSpec]]):
    return _run_batch_chunk(_WORKER_CONTEXT, items)


def _run_batch_chunk_fast(config: _PassConfig, items: Sequence[Tuple[int, UtteranceSpec]]):
    """One stacked chunk through every batched stage.

    Raises on any per-row pathology (NaN audio poisoning the shared
    detector statistics, a corpus that rejects a spec, …);
    :func:`_run_batch_chunk` catches and degrades to per-row isolation.
    """
    stats = CollectionStats()
    corpus, detector = config.corpus, config.detector
    indices = [index for index, _ in items]
    specs = [spec for _, spec in items]
    rngs = [_item_rng(config.seed, index) for index in indices]
    n = len(items)

    render_batch = getattr(corpus, "render_batch", None)
    with trace("render", n=n) as span:
        if render_batch is not None:
            audios = render_batch(specs)
        else:
            audios = [corpus.render(spec) for spec in specs]
    stats.renders += n
    stats.render_s += span.duration_s

    # Pad with silence so the detector sees the noise floor.
    pad = np.zeros(int(_UTTERANCE_PAD_S * corpus.audio_fs))
    audios = [np.concatenate([pad, audio, pad]) for audio in audios]

    with trace("transmit", n=n) as span:
        if config.channel.placement is Placement.HANDHELD:
            # Handheld motion is stateful: per-item reseeded clones keep
            # the chunked run identical to the per-utterance reference.
            signals = [
                _item_channel(config, index).transmit(audio, corpus.audio_fs, rng)
                for index, audio, rng in zip(indices, audios, rngs)
            ]
        else:
            signals = config.channel.transmit_batch(audios, corpus.audio_fs, rngs)
    stats.transmits += n
    stats.transmit_s += span.duration_s

    fs = config.channel.accel_fs
    if config.defense is not None:
        # Per-row postprocess keeps the batched path byte-identical to
        # the per-utterance reference (the defense sees exactly the same
        # unpadded trace either way).
        signals = [config.defense.postprocess(signal, fs) for signal in signals]
    detect_batch = getattr(detector, "detect_batch", None)
    with trace("detect", n=n) as span:
        if detect_batch is not None:
            regions_list = detect_batch(signals, fs)
        else:
            regions_list = [detector.detect(signal, fs) for signal in signals]
    stats.detect_s += span.duration_s

    bests: List[Optional[Region]] = []
    for signal, regions in zip(signals, regions_list):
        stats.regions_detected += len(regions)
        if not regions:
            bests.append(None)
            continue
        best = max(
            regions,
            key=lambda r: float(
                np.sum((r.slice(signal) - np.mean(r.slice(signal))) ** 2)
            ),
        )
        stats.regions_used += 1
        bests.append(best)

    dtype = batch_dtype()
    with trace("product", n=n) as span:
        hit = [k for k in range(n) if bests[k] is not None]
        feat_rows, feat_pos = [], []
        for k in hit:
            samples = bests[k].slice(signals[k])
            if samples.size < 4:
                continue
            if config.feature_highpass_hz is not None and samples.size > 32:
                sos = cached_butter_highpass(config.feature_highpass_hz, fs, order=4)
                samples = sosfilt_zero_phase(sos, samples)
            feat_rows.append(samples)
            feat_pos.append(k)
        features_by_row: Dict[int, np.ndarray] = {}
        if feat_rows:
            matrix = extract_features_batch(feat_rows, fs, dtype=dtype)
            for row_index, k in enumerate(feat_pos):
                features_by_row[k] = matrix[row_index]
        img_pos = [k for k in hit if bests[k].end - bests[k].start >= 8]
        images_by_row: Dict[int, np.ndarray] = {}
        if img_pos:
            images = region_spectrogram_images_batch(
                [signals[k] for k in img_pos],
                [bests[k] for k in img_pos],
                size=config.size,
                dtype=dtype,
            )
            for k, image in zip(img_pos, images):
                images_by_row[k] = image
    stats.product_s += span.duration_s

    rows: List[Tuple[int, Optional[str], Optional[np.ndarray], Optional[np.ndarray]]] = [
        (index, None, None, None) for index in indices
    ]
    for k in hit:
        rows[k] = (
            indices[k],
            specs[k].emotion,
            features_by_row.get(k),
            images_by_row.get(k),
        )
    return rows, stats


def _run_batch_chunk(config: _PassConfig, items: Sequence[Tuple[int, UtteranceSpec]]):
    """One chunk through the fast path, degrading to per-row isolation.

    If the stacked fast path raises — one poisoned utterance must not
    take down its batchmates — the chunk re-runs row by row through the
    per-utterance reference path; only the offending rows are dropped
    (counted under ``batch.rows_isolated``), every healthy row keeps its
    byte-identical product.
    """
    try:
        return _run_batch_chunk_fast(config, items)
    except Exception:
        metrics().count("batch.chunk_fallbacks")
    stats = CollectionStats()
    rows = []
    for index, spec in items:
        try:
            row_index, label, features, image, item_stats = _run_work_item(
                config, index, spec
            )
        except Exception:
            metrics().count("batch.rows_isolated")
            rows.append((index, None, None, None))
            continue
        stats.add(item_stats)
        rows.append((row_index, label, features, image))
    return rows, stats


def _collect_batched(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    n_jobs: int,
    executor: str,
    batch_chunk: int,
) -> Tuple[List, CollectionStats]:
    """Fan stacked utterance chunks out over the chosen executor."""
    stats = CollectionStats(n_jobs=max(1, int(n_jobs)), executor=executor)
    indexed = list(enumerate(specs))
    chunk = max(1, int(batch_chunk))
    chunks = [indexed[i : i + chunk] for i in range(0, len(indexed), chunk)]
    ran_in_pool = executor == "process" and len(chunks) > 1 and n_jobs > 1
    if ran_in_pool:
        with ProcessPoolExecutor(
            max_workers=max(1, int(n_jobs)),
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            outs = list(pool.map(_process_batch_entry, chunks, chunksize=1))
    else:
        def run_chunk(chunk_items):
            return _run_batch_chunk(config, chunk_items)

        outs = run_tasks(
            run_chunk,
            chunks,
            n_jobs=n_jobs,
            executor="serial" if executor == "process" else executor,
        )
    products = []
    for rows, chunk_stats in outs:
        stats.add(chunk_stats)
        for index, label, features, image in rows:
            if label is not None:
                products.append((index, label, features, image))
    if ran_in_pool:
        # Worker-process spans die with their workers; reconstruct the
        # stage timings as aggregate spans (exactly once), as the
        # per-utterance pool path does.
        tr = tracer()
        for field_name, span_name in _TIMER_FIELDS.items():
            if span_name == "collect":
                continue
            tr.record(
                span_name,
                getattr(stats, field_name),
                aggregated="worker-sum",
                n_jobs=stats.n_jobs,
            )
    return products, stats


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
) -> Tuple[List[Tuple[int, str, Optional[np.ndarray], Optional[np.ndarray]]], CollectionStats]:
    """Per-utterance work items with spec provenance.

    Returns ``(products, stats)`` where each product is
    ``(spec_index, label, features|None, image|None)`` — the building
    block for consumers that need row→utterance alignment (e.g. the
    Spearphone speaker/gender baseline).
    """
    detector = detector or _default_detector(channel)
    specs = list(specs if specs is not None else corpus.specs)
    executor_name = _resolve_executor(n_jobs, executor)
    config = _PassConfig(
        corpus=corpus,
        channel=channel,
        detector=detector,
        seed=int(seed),
        size=int(size),
        feature_highpass_hz=feature_highpass_hz,
    )
    with trace(
        "collect",
        corpus=corpus.name,
        device=channel.device.name,
        placement=channel.placement.value,
        executor=executor_name,
        n_jobs=max(1, int(n_jobs)),
        api="products",
    ) as span:
        products, stats = _collect_per_utterance(
            config, specs, n_jobs, executor_name
        )
        stats.n_played = len(specs)
        stats.total_s = span.elapsed()
        _publish(stats)
    return products, stats


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
    than finished features/images (e.g. data augmentation).
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
    for index, spec in enumerate(specs):
        signal, best, _stats = _transmit_and_detect(config, index, spec)
        if best is not None:
            yield spec.emotion, best, signal


# ---------------------------------------------------------------------------
# Continuous-session protocol
# ---------------------------------------------------------------------------


def _collect_continuous(
    config: _PassConfig,
    specs: List[UtteranceSpec],
    n_jobs: int,
    executor: str,
) -> Tuple[List, CollectionStats]:
    """One continuous recording session, labelled from the playback log.

    The transmit chain is inherently serial (the hand-motion process is
    continuous across the session), so parallelism is applied to the
    utterance rendering only; the session numerics are identical to a
    fully serial run.
    """
    from repro.phone.recording import record_session

    stats = CollectionStats(n_jobs=max(1, int(n_jobs)), executor=executor)

    # Pre-render in parallel; the session then looks waveforms up.
    render_executor = "serial" if executor == "process" else executor
    with trace("render", n=len(specs), metric_labels={}) as span:
        waves = run_tasks(
            config.corpus.render, specs, n_jobs=n_jobs, executor=render_executor
        )
    rendered: Dict[UtteranceSpec, np.ndarray] = dict(zip(specs, waves))
    stats.renders += len(specs)
    stats.render_s += span.duration_s

    with trace("transmit", continuous=True, metric_labels={}) as span:
        session = record_session(
            config.corpus,
            config.channel,
            specs=specs,
            seed=config.seed,
            renderer=rendered.__getitem__,
        )
    # record_session transmits a leading gap, then wave+gap per utterance.
    stats.transmits += 1 + 2 * len(specs)
    stats.transmit_s += span.duration_s

    session_trace = session.trace
    if config.defense is not None:
        # The whole recorded session passes through the OS boundary once;
        # the defended channel's rate already satisfies any cap, so the
        # stream rate is unchanged (see _PassConfig.defense).
        session_trace = config.defense.postprocess(session_trace, session.fs)

    with trace("detect", metric_labels={}) as span:
        regions = config.detector.detect(session_trace, session.fs)
    stats.detect_s += span.duration_s
    stats.regions_detected += len(regions)

    with trace("product", metric_labels={}) as span:
        products = []
        # Product rows carry the matched playback *event* (not just its
        # emotion string) so a cached pass can be re-labelled for any
        # task — the event records speaker/utterance identity too.
        for region, event in match_regions(regions, session.events):
            stats.regions_used += 1
            features = _feature_row(
                session_trace, region, session.fs, config.feature_highpass_hz
            )
            image = _image_product(session_trace, region, config.size)
            products.append((-1, event, features, image))
    stats.product_s += span.duration_s
    return products, stats


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
    worker count, pipeline and chunk size are deliberately excluded:
    they do not change the result. ``batch_dtype=None`` normalises to
    ``"float64"`` — the golden batched pipeline is byte-identical to the
    per-utterance reference, so the two share cache entries; a float32
    hot-path pass keys separately.

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
    an ``.npz`` bundle (via :mod:`repro.eval.io`) that later processes —
    or later runs — can reload instead of re-collecting. A bundle stores
    its pass key and a sha256 of its arrays; :meth:`lookup` verifies
    both before it rebuilds the pass, so a bundle that is unreadable,
    altered, filed under another key's name or written before bundles
    were hashed is a miss counted as ``cache.disk_corrupt``, and is
    rewritten when the pass is collected again.

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
        self.cache_dir = None
        if cache_dir is not None:
            from pathlib import Path

            self.cache_dir = Path(cache_dir)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
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
                # A truncated, altered, misfiled or unhashed bundle is a
                # miss: the caller collects again and store() atomically
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

    Per-utterance/batched rows carry ``index >= 0`` into ``specs`` and
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
    stats: CollectionStats,
) -> CollectionResult:
    """Build both datasets from labelled product rows."""
    rows = [(label, f) for label, f, _ in labelled if f is not None]
    X = np.vstack([f for _, f in rows]) if rows else np.empty((0, len(FEATURE_NAMES)))
    features = FeatureDataset(
        X=X,
        y=np.array([label for label, _ in rows]),
        fs=fs,
        n_played=n_played,
        stats=stats,
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
        stats=stats,
    )
    return CollectionResult(features=features, spectrograms=spectrograms, stats=stats)


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
        Worker count for the per-utterance protocol (and the rendering
        stage of the continuous protocol). Results are identical at any
        value.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``; None picks serial
        for ``n_jobs <= 1`` and threads otherwise.
    cache:
        Optional :class:`CollectionCache`; a hit skips the pass entirely
        and returns the registered result object.
    pipeline:
        ``"batched"`` (default) stacks utterances into chunks and runs
        every stage across the batch axis; ``"per_utterance"`` is the
        one-at-a-time reference path. Under the golden float64 batch
        policy the two are byte-identical; the continuous (handheld
        session) protocol ignores this knob.
    batch_chunk:
        Utterances per stacked chunk for the batched pipeline
        (default :data:`DEFAULT_BATCH_CHUNK`). Results are identical at
        any chunk size.
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
    if defense is not None:
        channel = defense.apply(channel)
    detector = detector or _default_detector(channel)
    if continuous is None:
        continuous = channel.placement is Placement.HANDHELD
    specs = list(specs if specs is not None else corpus.specs)
    executor_name = _resolve_executor(n_jobs, executor)
    pipeline_name = _resolve_pipeline(pipeline)
    task_name = resolve_task(task)

    # Only the batched per-utterance pipeline honours the batch policy;
    # every other path computes in float64.
    active_dtype = (
        batch_dtype() if (pipeline_name == "batched" and not continuous)
        else np.dtype(np.float64)
    )

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
            _publish(CollectionStats(cache_hits=1))
            if hit.stats is not None:
                hit.stats.cache_hits += 1
            return hit
        # The task key missed, but a pass under another task may have
        # left its raw products behind: re-label instead of re-collect.
        cached_products = cache.lookup_products(base_key)
        if cached_products is not None:
            products, n_played = cached_products
            cache.hits += 1
            metrics().count("cache.relabel_hits")
            _publish(CollectionStats(cache_hits=1))
            stats = CollectionStats(n_played=n_played, cache_hits=1)
            result = _assemble_result(
                _task_labelled_rows(products, specs, corpus, task_name),
                channel.accel_fs,
                n_played,
                int(size),
                stats,
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
    )
    with trace(
        "collect",
        corpus=corpus.name,
        device=channel.device.name,
        placement=channel.placement.value,
        executor=executor_name,
        n_jobs=max(1, int(n_jobs)),
        pipeline="continuous" if continuous else pipeline_name,
    ) as pass_span:
        if continuous:
            products, stats = _collect_continuous(
                config, specs, n_jobs, executor_name
            )
        elif pipeline_name == "batched":
            products, stats = _collect_batched(
                config,
                specs,
                n_jobs,
                executor_name,
                batch_chunk if batch_chunk is not None else DEFAULT_BATCH_CHUNK,
            )
        else:
            products, stats = _collect_per_utterance(
                config, specs, n_jobs, executor_name
            )
        stats.n_played = len(specs)
        stats.cache_misses = 1 if cache is not None else 0
        stats.total_s = pass_span.elapsed()
        _publish(stats)

    result = _assemble_result(
        _task_labelled_rows(products, specs, corpus, task_name),
        channel.accel_fs,
        len(specs),
        int(size),
        stats,
    )
    if cache is not None and key is not None:
        cache.store_products(base_key, products, len(specs))
        cache.store(key, result)
    return result


def _rebuild_result(
    X: np.ndarray,
    y_features: np.ndarray,
    images: np.ndarray,
    y_images: np.ndarray,
    fs: float,
    n_played: int,
) -> CollectionResult:
    """Reassemble a CollectionResult from persisted arrays (see eval.io)."""
    stats = CollectionStats(n_played=n_played)
    features = FeatureDataset(
        X=X, y=y_features, fs=fs, n_played=n_played, stats=stats
    )
    spectrograms = SpectrogramDataset(
        images=images, y=y_images, fs=fs, n_played=n_played, stats=stats
    )
    return CollectionResult(features=features, spectrograms=spectrograms, stats=stats)
