"""Fault injection: stage timing must survive mid-pass exceptions.

PR 1's inline ``perf_counter()`` arithmetic lost every stage timing of a
pass that died mid-stage. Spans record on their exception path, so the
time a failure burned is still accounted. A detector that raises on
one utterance fails its chunk, the chunk's rows re-run as chunks of one
and only that utterance is dropped: these tests assert the books still
balance. A process worker that dies fails the whole pass, and then
nothing of it may be cached or counted.
"""

import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

import numpy as np
import pytest

from repro.attack.engine import (
    CollectionCache,
    _default_detector,
    collect_datasets,
    collection_key,
    global_stats,
)
from repro.attack.regions import RegionDetector
from repro.datasets.base import Corpus
from repro.obs import metrics, reset_observability, tracer


class ExplodingDetector:
    """Table-top detector that raises on traces of one length.

    With ``bomb_size=None`` it raises on nothing and records the length
    of every trace it sees, so a probe pass can pick one utterance's.
    """

    def __init__(self, bomb_size=None):
        self.bomb_size = bomb_size
        self.sizes = []

    def detect(self, signal, fs):
        self.sizes.append(signal.size)
        if signal.size == self.bomb_size:
            raise RuntimeError("sensor fell off the table")
        return RegionDetector.for_setting("table_top").detect(signal, fs)


SPECS, BOMB_ROW = 5, 2


def _bombed_pass(tiny_tess, loud_channel):
    """``(bombed, clean)`` passes over five utterances; row 2's detect raises."""
    specs = tiny_tess.specs[:SPECS]
    probe = ExplodingDetector()
    clean = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1, detector=probe)
    assert probe.sizes.count(probe.sizes[BOMB_ROW]) == 1  # one utterance has that length
    assert clean.features.X.shape[0] == SPECS
    reset_observability()
    bombed = collect_datasets(
        tiny_tess, loud_channel, specs=specs, seed=1,
        detector=ExplodingDetector(probe.sizes[BOMB_ROW]),
    )
    return bombed, clean


class TestExceptionAccounting:
    def test_stage_time_recorded_when_detector_raises(self, tiny_tess, loud_channel):
        _bombed_pass(tiny_tess, loud_channel)
        reg = metrics()
        # The five-row chunk ran render and transmit, then its detect
        # raised; each row then re-ran as a chunk of one.
        assert reg.timer("render", status="ok").count == 1 + SPECS
        assert reg.timer("transmit", status="ok").count == 1 + SPECS
        assert reg.timer("detect", status="error").count == 2
        assert reg.timer("detect", status="ok").count == SPECS - 1
        assert reg.timer("product", status="ok").count == SPECS - 1
        stats = global_stats()
        assert stats.render_s > 0
        assert stats.detect_s > 0

    def test_spans_carry_error_status(self, tiny_tess, loud_channel):
        _bombed_pass(tiny_tess, loud_channel)
        failed = [span for span in tracer().find("detect") if span.status == "error"]
        assert [span.labels["n"] for span in failed] == [SPECS, 1]
        assert all("RuntimeError: sensor fell off" in span.error for span in failed)
        (collect,) = tracer().find("collect")
        assert collect.status == "ok"  # the failure stayed inside its chunk

    def test_partial_pass_accounts_every_completed_item(
        self, tiny_tess, loud_channel
    ):
        """Every stage that completed closed "ok" under the pass span."""
        _bombed_pass(tiny_tess, loud_channel)
        (collect,) = tracer().find("collect")
        stages = [span for span in collect.walk() if span is not collect]
        for name in ("render", "transmit", "product"):
            spans = [span for span in stages if span.name == name]
            assert spans and all(span.status == "ok" for span in spans)
        assert len(stages) == len(list(tracer().spans())) - 1

    def test_counters_unpublished_on_failure(self, tiny_tess, loud_channel):
        """The failing row's counters are never published, its timers are."""
        bombed, _ = _bombed_pass(tiny_tess, loud_channel)
        reg = metrics()
        assert reg.counter_total("batch.chunk_fallbacks") == 1
        assert reg.counter_total("batch.rows_isolated") == 1
        stats = global_stats()
        assert stats.transmits == stats.renders == SPECS - 1
        assert stats.n_played == SPECS
        assert bombed.stats.transmits == SPECS - 1
        assert stats.transmit_s == pytest.approx(reg.timer_total("transmit").total_s)

    def test_healthy_run_unaffected_by_prior_failure(self, tiny_tess, loud_channel):
        bombed, clean = _bombed_pass(tiny_tess, loud_channel)
        keep = [row for row in range(SPECS) if row != BOMB_ROW]
        assert bombed.features.X.tobytes() == clean.features.X[keep].tobytes()
        assert bombed.spectrograms.images.tobytes() == (
            clean.spectrograms.images[keep].tobytes()
        )
        assert list(bombed.features.y) == list(clean.features.y[keep])
        again = collect_datasets(
            tiny_tess, loud_channel, specs=tiny_tess.specs[:SPECS], seed=1
        )
        assert again.features.X.tobytes() == clean.features.X.tobytes()
        assert global_stats().transmits == (SPECS - 1) + SPECS


@dataclass(frozen=True)
class DyingCorpus(Corpus):
    """A corpus whose process-pool workers die rendering one utterance."""

    fatal_id: str = ""
    parent_pid: int = 0

    def render_batch(self, specs):
        if os.getpid() != self.parent_pid and any(
            spec.utterance_id == self.fatal_id for spec in specs
        ):
            os._exit(3)
        return super().render_batch(specs)


class TestWorkerDeath:
    def test_dead_worker_fails_the_pass_and_leaves_nothing(
        self, tiny_tess, loud_channel, tmp_path
    ):
        specs = tiny_tess.specs[:8]
        clean = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=5)
        dying = DyingCorpus(
            **{f.name: getattr(tiny_tess, f.name) for f in fields(Corpus)},
            fatal_id=specs[6].utterance_id,
            parent_pid=os.getpid(),
        )
        cache = CollectionCache(cache_dir=tmp_path)
        pool_pass = dict(
            specs=specs, seed=5, cache=cache, executor="process", n_jobs=2, batch_chunk=3
        )
        reset_observability()
        with pytest.raises(BrokenProcessPool):
            collect_datasets(dying, loud_channel, **pool_pass)

        key = collection_key(
            tiny_tess, loud_channel, specs, _default_detector(loud_channel), False, 5
        )
        assert key == collection_key(
            dying, loud_channel, specs, _default_detector(loud_channel), False, 5
        )
        assert key not in cache and len(cache) == 0
        assert cache.lookup_products(key) is None
        assert list(tmp_path.iterdir()) == []
        stats = global_stats()
        for name in ("renders", "transmits", "regions_detected", "regions_used",
                     "n_played", "cache_hits", "cache_misses"):
            assert getattr(stats, name) == 0, name
        (collect,) = tracer().find("collect")
        assert collect.status == "error"

        again = collect_datasets(tiny_tess, loud_channel, **pool_pass)
        assert cache.misses == 2 and key in cache
        assert again.features.X.tobytes() == clean.features.X.tobytes()
        assert again.spectrograms.images.tobytes() == clean.spectrograms.images.tobytes()
        assert list(again.features.y) == list(clean.features.y)


class TestCrashSafeDiskCache:
    """The on-disk cache survives torn writes and corrupt bundles."""

    def test_truncated_bundle_is_a_counted_miss(self, tiny_tess, loud_channel, tmp_path):
        from repro.attack.engine import CollectionCache
        from repro.eval.io import load_collection

        reset_observability()
        specs = tiny_tess.specs[:4]
        first = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9,
            cache=CollectionCache(cache_dir=tmp_path),
        )
        (path,) = tmp_path.glob("*.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        cold = CollectionCache(cache_dir=tmp_path)
        again = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9, cache=cold
        )
        assert cold.hits == 0 and cold.misses == 1
        assert metrics().counter_total("cache.disk_corrupt") == 1
        assert again.features.X.tobytes() == first.features.X.tobytes()
        # The re-collected pass replaced the corrupt bundle.
        assert load_collection(path).features.X.tobytes() == first.features.X.tobytes()

    def test_torn_write_leaves_no_bundle(self, tiny_tess, loud_channel, tmp_path, monkeypatch):
        from repro.eval.io import save_collection

        result = collect_datasets(tiny_tess, loud_channel, specs=tiny_tess.specs[:3], seed=2)

        def torn(file, **arrays):
            if hasattr(file, "write"):
                file.write(b"PK\x03\x04 torn")
            else:
                with open(file, "wb") as handle:
                    handle.write(b"PK\x03\x04 torn")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn)
        with pytest.raises(OSError, match="disk full"):
            save_collection(result, tmp_path / "pass.npz")
        assert list(tmp_path.iterdir()) == []

    def test_bundle_filed_under_another_key_is_a_miss(self, tiny_tess, loud_channel, tmp_path):
        """A valid bundle copied over another pass's file must not be served."""
        from repro.attack.engine import CollectionCache

        reset_observability()
        specs = tiny_tess.specs[:4]
        cache = CollectionCache(cache_dir=tmp_path)
        first = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1, cache=cache)
        (path_1,) = tmp_path.glob("*.npz")
        second = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=2, cache=cache)
        (path_2,) = set(tmp_path.glob("*.npz")) - {path_1}
        assert first.features.X.tobytes() != second.features.X.tobytes()
        path_2.write_bytes(path_1.read_bytes())

        cold = CollectionCache(cache_dir=tmp_path)
        again = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=2, cache=cold)
        assert cold.hits == 0 and cold.misses == 1
        assert metrics().counter_total("cache.disk_corrupt") == 1
        assert again.features.X.tobytes() == second.features.X.tobytes()
        assert again.spectrograms.images.tobytes() == second.spectrograms.images.tobytes()

    def test_altered_but_parseable_bundle_is_a_miss(self, tiny_tess, loud_channel, tmp_path):
        from repro.attack.engine import CollectionCache
        from repro.eval.io import CorruptBundleError, load_collection

        reset_observability()
        specs = tiny_tess.specs[:4]
        first = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9,
            cache=CollectionCache(cache_dir=tmp_path),
        )
        (path,) = tmp_path.glob("*.npz")
        with np.load(path, allow_pickle=False) as bundle:
            members = {name: bundle[name] for name in bundle.files}
        members["X"] = members["X"].copy()
        members["X"][0, 0] += 1.0
        np.savez(path, **members)  # a well-formed zip whose arrays changed
        with pytest.raises(CorruptBundleError, match="sha256"):
            load_collection(path)

        cold = CollectionCache(cache_dir=tmp_path)
        again = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=9, cache=cold)
        assert cold.misses == 1
        assert metrics().counter_total("cache.disk_corrupt") == 1
        assert again.features.X.tobytes() == first.features.X.tobytes()

    def test_unhashed_legacy_bundle_is_a_miss_and_rewritten(
        self, tiny_tess, loud_channel, tmp_path
    ):
        from repro.attack.engine import CollectionCache
        from repro.eval.io import CorruptBundleError, load_collection

        reset_observability()
        specs = tiny_tess.specs[:4]
        first = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9,
            cache=CollectionCache(cache_dir=tmp_path),
        )
        (path,) = tmp_path.glob("*.npz")
        with np.load(path, allow_pickle=False) as bundle:
            legacy = {n: bundle[n] for n in bundle.files if n not in ("key", "sha256")}
        np.savez_compressed(path, **legacy)  # the format before bundles were hashed
        with pytest.raises(CorruptBundleError, match="no content hash"):
            load_collection(path)  # refused with or without a key

        cold = CollectionCache(cache_dir=tmp_path)
        again = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=9, cache=cold)
        assert cold.misses == 1
        assert metrics().counter_total("cache.disk_corrupt") == 1
        assert again.features.X.tobytes() == first.features.X.tobytes()
        with np.load(path, allow_pickle=False) as bundle:
            assert "sha256" in bundle.files

        warm = CollectionCache(cache_dir=tmp_path)
        collect_datasets(tiny_tess, loud_channel, specs=specs, seed=9, cache=warm)
        assert warm.hits == 1


class TestBoundedCacheMemory:
    """The in-memory layers of ``CollectionCache`` stay within a byte budget."""

    @staticmethod
    def _small_cache(monkeypatch, tiny_tess, loud_channel, specs):
        import repro.attack.engine as engine

        probe = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1)
        one_pass = engine._result_nbytes(probe)
        monkeypatch.setattr(engine, "COLLECTION_CACHE_BYTES", one_pass + one_pass // 2)
        return engine.CollectionCache()

    def test_evicted_pass_recollects_byte_identical(
        self, tiny_tess, loud_channel, monkeypatch
    ):
        reset_observability()
        specs = tiny_tess.specs[:4]
        cache = self._small_cache(monkeypatch, tiny_tess, loud_channel, specs)
        first = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1, cache=cache)
        reference = (first.features.X.tobytes(), first.spectrograms.images.tobytes())
        collect_datasets(tiny_tess, loud_channel, specs=specs, seed=2, cache=cache)
        assert len(cache) == 1
        assert metrics().counter_total("cache.entry_evictions") >= 1

        again = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1, cache=cache)
        assert again is not first and cache.misses == 3
        assert (again.features.X.tobytes(), again.spectrograms.images.tobytes()) == reference

    def test_evicted_products_relabel_byte_identical(
        self, tiny_tess, loud_channel, monkeypatch
    ):
        reset_observability()
        specs = tiny_tess.specs[:4]
        expected = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1, task="gender")
        cache = self._small_cache(monkeypatch, tiny_tess, loud_channel, specs)
        collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1, cache=cache)
        collect_datasets(tiny_tess, loud_channel, specs=specs, seed=2, cache=cache)
        assert metrics().counter_total("cache.products_evictions") >= 1

        relabelled = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=1, cache=cache, task="gender"
        )
        assert metrics().counter_total("cache.relabel_hits") == 0
        assert relabelled.features.X.tobytes() == expected.features.X.tobytes()
        assert list(relabelled.features.y) == list(expected.features.y)
        assert relabelled.spectrograms.images.tobytes() == expected.spectrograms.images.tobytes()
