"""Fault injection for the batched pipeline: per-row isolation.

A poisoned utterance (NaN audio) must not take down its batchmates: the
stacked fast path fails for the whole chunk, the chunk degrades to
per-row processing, the poisoned row alone is dropped, and every healthy
row keeps its byte-identical product. The books must still balance —
fallbacks and isolated rows are counted, spans carry their statuses, and
a cache in front of the pass stays coherent.
"""

import numpy as np
import pytest

from repro.attack.engine import (
    CollectionCache,
    collect_datasets,
    reset_global_stats,
)
from repro.attack.regions import RegionDetector
from repro.batch import batch_policy_scope
from repro.obs import metrics, reset_observability, tracer


class PoisonedCorpus:
    """Delegating corpus whose selected utterances render as NaN audio."""

    def __init__(self, corpus, poisoned_ids):
        self._corpus = corpus
        self._poisoned = set(poisoned_ids)

    def __getattr__(self, name):
        return getattr(self._corpus, name)

    def _poison(self, spec, audio):
        if spec.utterance_id in self._poisoned:
            bad = np.array(audio, copy=True)
            bad[:] = np.nan
            return bad
        return audio

    def render(self, spec):
        return self._poison(spec, self._corpus.render(spec))

    def render_batch(self, specs):
        return [
            self._poison(spec, audio)
            for spec, audio in zip(specs, self._corpus.render_batch(specs))
        ]


class TestRowIsolation:
    def test_poisoned_row_does_not_corrupt_batchmates(
        self, tiny_tess, loud_channel
    ):
        specs = tiny_tess.specs[:8]
        clean = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4, pipeline="batched"
        )
        poisoned_id = specs[3].utterance_id
        bad_corpus = PoisonedCorpus(tiny_tess, [poisoned_id])

        reset_observability()
        dirty = collect_datasets(
            bad_corpus, loud_channel, specs=specs, seed=4,
            pipeline="batched", batch_chunk=8,
        )

        # Exactly the poisoned row is missing; all survivors are
        # byte-identical to the clean pass.
        assert dirty.features.X.shape[0] == clean.features.X.shape[0] - 1
        keep = [i for i, s in enumerate(specs) if s.utterance_id != poisoned_id]
        # Clean pass extracted one row per spec here, in spec order.
        assert clean.features.X.shape[0] == len(specs)
        assert dirty.features.X.tobytes() == clean.features.X[keep].tobytes()
        assert dirty.spectrograms.images.tobytes() == (
            clean.spectrograms.images[keep].tobytes()
        )

        # The degradation is accounted: one chunk fell back, one row was
        # isolated.
        reg = metrics()
        assert reg.counter_total("batch.chunk_fallbacks") == 1
        assert reg.counter_total("batch.rows_isolated") == 1

    def test_degraded_chunk_keeps_the_float32_policy(self, tiny_tess, loud_channel):
        """Isolated rows re-run through the same float32 stages as the chunk."""
        specs = tiny_tess.specs[:8]
        bad_corpus = PoisonedCorpus(tiny_tess, [specs[3].utterance_id])
        keep = [i for i in range(len(specs)) if i != 3]
        with batch_policy_scope(compute_dtype="float32"):
            clean = collect_datasets(
                tiny_tess, loud_channel, specs=specs, seed=4, batch_chunk=8
            )
            reset_observability()
            dirty = collect_datasets(
                bad_corpus, loud_channel, specs=specs, seed=4, batch_chunk=8
            )
        assert metrics().counter_total("batch.rows_isolated") == 1
        assert clean.features.X.shape[0] == len(specs)
        assert dirty.features.X.dtype == np.float32
        assert dirty.spectrograms.images.dtype == np.float32
        assert dirty.features.X.tobytes() == clean.features.X[keep].tobytes()
        assert dirty.spectrograms.images.tobytes() == (
            clean.spectrograms.images[keep].tobytes()
        )

    def test_only_poisoned_chunk_degrades(self, tiny_tess, loud_channel):
        specs = tiny_tess.specs[:8]
        bad_corpus = PoisonedCorpus(tiny_tess, [specs[5].utterance_id])
        reset_observability()
        collect_datasets(
            bad_corpus, loud_channel, specs=specs, seed=4,
            pipeline="batched", batch_chunk=4,  # rows 0-3 clean, 4-7 poisoned
        )
        reg = metrics()
        assert reg.counter_total("batch.chunk_fallbacks") == 1
        assert reg.counter_total("batch.rows_isolated") == 1

    def test_spans_balanced_after_fallback(self, tiny_tess, loud_channel):
        specs = tiny_tess.specs[:6]
        bad_corpus = PoisonedCorpus(tiny_tess, [specs[0].utterance_id])
        reset_observability()
        result = collect_datasets(
            bad_corpus, loud_channel, specs=specs, seed=4,
            pipeline="batched", batch_chunk=6,
        )
        assert result.features.X.shape[0] == len(specs) - 1
        # The pass completed: the collect span closed "ok", and every
        # recorded span carries a terminal status.
        (collect_span,) = tracer().find("collect")
        assert collect_span.status == "ok"
        for name in ("render", "transmit", "detect", "product"):
            for span in tracer().find(name):
                assert span.status in ("ok", "error")
        # The failed batched attempt recorded its own detect time.
        assert metrics().timer("detect", status="error").count >= 1

    def test_counters_count_only_successful_rows(self, tiny_tess, loud_channel):
        specs = tiny_tess.specs[:6]
        bad_corpus = PoisonedCorpus(tiny_tess, [specs[2].utterance_id])
        reset_global_stats()
        result = collect_datasets(
            bad_corpus, loud_channel, specs=specs, seed=4,
            pipeline="batched", batch_chunk=6,
        )
        # The isolated row never completed transmit/detect, so per-row
        # counters reflect the survivors only; n_played still counts the
        # whole pass.
        assert result.stats.transmits == len(specs) - 1
        assert result.stats.renders == len(specs) - 1
        assert result.stats.n_played == len(specs)

    def test_cache_stays_coherent_after_fallback(self, tiny_tess, loud_channel):
        specs = tiny_tess.specs[:6]
        bad_corpus = PoisonedCorpus(tiny_tess, [specs[1].utterance_id])
        cache = CollectionCache()
        first = collect_datasets(
            bad_corpus, loud_channel, specs=specs, seed=4,
            pipeline="batched", batch_chunk=3, cache=cache,
        )
        assert cache.misses == 1
        again = collect_datasets(
            bad_corpus, loud_channel, specs=specs, seed=4,
            pipeline="batched", batch_chunk=3, cache=cache,
        )
        assert cache.hits == 1
        assert again.features.X.tobytes() == first.features.X.tobytes()


class TestNoRegions:
    def test_empty_detection_is_graceful(self, tiny_tess, loud_channel):
        # A detector that never fires: the batched pass must return
        # empty datasets with the full play count, not crash.
        detector = RegionDetector(threshold_factor=1e9, min_peak_ratio=1e9)
        specs = tiny_tess.specs[:5]
        result = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4,
            detector=detector, pipeline="batched",
        )
        assert result.features.X.shape == (0, 24)
        assert result.spectrograms.images.shape[0] == 0
        assert result.features.n_played == len(specs)
        assert result.stats.regions_used == 0
