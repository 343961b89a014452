"""Fault injection: stage timing must survive mid-pass exceptions.

PR 1's inline ``perf_counter()`` arithmetic lost every stage timing of a
pass that died mid-stage: the per-item stats object went down with the
exception and ``_publish`` never ran. Spans record on their exception
path directly into the metrics registry, so a failing pass still
accounts for the time it burned — these tests patch the detector (and
the corpus renderer) to raise and assert the books still balance.
"""

import numpy as np
import pytest

from repro.attack.engine import collect_datasets, global_stats
from repro.attack.regions import RegionDetector
from repro.obs import metrics, reset_observability, tracer


class ExplodingDetector:
    """Detector that raises after a configurable number of calls."""

    def __init__(self, fail_at: int = 0):
        self.calls = 0
        self.fail_at = fail_at

    def detect(self, signal, fs):
        self.calls += 1
        if self.calls > self.fail_at:
            raise RuntimeError("sensor fell off the table")
        return RegionDetector.for_setting("table_top").detect(signal, fs)


class TestExceptionAccounting:
    def test_stage_time_recorded_when_detector_raises(self, tiny_tess, loud_channel):
        reset_observability()
        with pytest.raises(RuntimeError, match="sensor fell off"):
            collect_datasets(
                tiny_tess,
                loud_channel,
                specs=tiny_tess.specs[:3],
                detector=ExplodingDetector(fail_at=0),
                seed=1,
                pipeline="per_utterance",
            )
        reg = metrics()
        # The render and transmit that *completed* before the failure are
        # accounted, even though the pass never published its stats.
        assert reg.timer_total("render").count == 1
        assert reg.timer_total("render").total_s > 0
        assert reg.timer_total("transmit").count == 1
        # The failing detect stage recorded its own elapsed time, tagged.
        assert reg.timer("detect", status="error").count == 1
        stats = global_stats()
        assert stats.render_s > 0
        assert stats.detect_s >= 0

    def test_spans_carry_error_status(self, tiny_tess, loud_channel):
        reset_observability()
        with pytest.raises(RuntimeError):
            collect_datasets(
                tiny_tess,
                loud_channel,
                specs=tiny_tess.specs[:3],
                detector=ExplodingDetector(fail_at=0),
                seed=1,
                pipeline="per_utterance",
            )
        (detect,) = tracer().find("detect")
        assert detect.status == "error"
        assert "RuntimeError" in detect.error
        (collect,) = tracer().find("collect")
        assert collect.status == "error"  # the failure propagates up the tree
        # The completed stages under the pass stayed "ok".
        (render,) = tracer().find("render")
        assert render.status == "ok"

    def test_partial_pass_accounts_every_completed_item(
        self, tiny_tess, loud_channel
    ):
        """Failing on item 3 keeps items 1-2 fully accounted."""
        reset_observability()
        with pytest.raises(RuntimeError):
            collect_datasets(
                tiny_tess,
                loud_channel,
                specs=tiny_tess.specs[:5],
                detector=ExplodingDetector(fail_at=2),
                seed=1,
                pipeline="per_utterance",
            )
        reg = metrics()
        assert reg.timer_total("render").count == 3
        assert reg.timer_total("detect").count == 3
        assert reg.timer("detect", status="ok").count == 2
        assert reg.timer("detect", status="error").count == 1

    def test_counters_unpublished_on_failure(self, tiny_tess, loud_channel):
        """_publish never runs for a failed pass: counters stay zero while
        timers (spans) are still accounted — the exact asymmetry the
        global view is documented to have."""
        reset_observability()
        with pytest.raises(RuntimeError):
            collect_datasets(
                tiny_tess,
                loud_channel,
                specs=tiny_tess.specs[:3],
                detector=ExplodingDetector(fail_at=0),
                seed=1,
                pipeline="per_utterance",
            )
        stats = global_stats()
        assert stats.transmits == 0  # counter path needs a finished pass
        assert stats.transmit_s > 0  # timer path survived the exception

    def test_healthy_run_unaffected_by_prior_failure(self, tiny_tess, loud_channel):
        reset_observability()
        with pytest.raises(RuntimeError):
            collect_datasets(
                tiny_tess,
                loud_channel,
                specs=tiny_tess.specs[:3],
                detector=ExplodingDetector(fail_at=0),
                seed=1,
                pipeline="per_utterance",
            )
        result = collect_datasets(
            tiny_tess,
            loud_channel,
            specs=tiny_tess.specs[:5],
            seed=1,
            pipeline="per_utterance",
        )
        assert result.features.X.shape[1] == 24
        assert np.all(np.isfinite(result.features.X))
        assert global_stats().transmits == 5


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
