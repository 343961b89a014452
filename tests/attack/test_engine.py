"""Tests for the parallel collection engine (repro.attack.engine)."""

import numpy as np
import pytest

from repro.attack.engine import (
    CollectionCache,
    _item_rng,
    _loudest,
    collect_datasets,
    collection_key,
    iter_region_samples,
)
from repro.attack.pipeline import (
    collect_feature_dataset,
    collect_spectrogram_dataset,
)
from repro.attack.regions import Region, RegionDetector
from repro.eval.io import load_collection, save_collection
from repro.eval.suite import run_table
from repro.obs import capture_observability, metrics
from repro.parallel import run_tasks


def _subset(corpus, n):
    return corpus.specs[:n]


class TestExecutors:
    def test_run_tasks_serial_thread_equal(self):
        items = list(range(20))

        def fn(i):
            return i * i

        assert run_tasks(fn, items, 1, "serial") == run_tasks(fn, items, 4, "thread")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_matches_serial(self, tiny_tess, loud_channel, executor):
        specs = _subset(tiny_tess, 8)
        serial = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=3)
        para = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=3,
            n_jobs=2, executor=executor,
        )
        assert np.array_equal(serial.features.X, para.features.X)
        assert np.array_equal(serial.features.y, para.features.y)
        assert np.array_equal(serial.spectrograms.images, para.spectrograms.images)
        assert np.array_equal(serial.spectrograms.y, para.spectrograms.y)

    def test_continuous_thread_matches_serial(self, tiny_tess, ear_channel):
        specs = _subset(tiny_tess, 6)
        serial = collect_datasets(tiny_tess, ear_channel, specs=specs, seed=2)
        para = collect_datasets(
            tiny_tess, ear_channel, specs=specs, seed=2, n_jobs=2, executor="thread"
        )
        assert np.array_equal(serial.features.X, para.features.X)
        assert np.array_equal(serial.spectrograms.images, para.spectrograms.images)

    def test_unknown_executor_rejected(self, tiny_tess, loud_channel):
        with pytest.raises(ValueError):
            collect_datasets(
                tiny_tess, loud_channel, specs=_subset(tiny_tess, 2),
                n_jobs=2, executor="rayon",
            )


class TestSharedPass:
    def test_matches_independent_collectors(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 8)
        shared = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=7)
        features = collect_feature_dataset(
            tiny_tess, loud_channel, specs=specs, seed=7
        )
        spectrograms = collect_spectrogram_dataset(
            tiny_tess, loud_channel, specs=specs, seed=7
        )
        assert np.array_equal(shared.features.X, features.X)
        assert np.array_equal(shared.features.y, features.y)
        assert np.array_equal(shared.spectrograms.images, spectrograms.images)
        assert np.array_equal(shared.spectrograms.y, spectrograms.y)

    def test_pass_recorded_in_registry(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 5)
        with capture_observability() as recorded:
            collect_datasets(tiny_tess, loud_channel, specs=specs, seed=1)
        registry = recorded.registry
        assert registry.counter_total("transmits") == 5
        assert registry.counter_total("renders") == 5
        assert registry.counter_total("n_played") == 5
        assert registry.timer_total("collect").count == 1
        assert registry.timer_total("collect").total_s > 0

    def test_iter_region_samples_labels(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 5)
        rows = list(
            iter_region_samples(
                tiny_tess, loud_channel, specs,
                RegionDetector.for_setting("table_top"), False, 1,
            )
        )
        assert 0 < len(rows) <= 5
        assert all(label in set(tiny_tess.emotions) for label, _, _ in rows)


class TestCache:
    def test_hit_returns_same_object(self, tiny_tess, loud_channel):
        cache = CollectionCache()
        specs = _subset(tiny_tess, 6)
        with capture_observability() as recorded:
            first = collect_datasets(
                tiny_tess, loud_channel, specs=specs, seed=4, cache=cache
            )
            second = collect_datasets(
                tiny_tess, loud_channel, specs=specs, seed=4, cache=cache
            )
        assert second is first
        assert cache.hits == 1 and cache.misses == 1
        assert recorded.registry.counter_total("cache_hits") == 1
        assert recorded.registry.counter_total("cache_misses") == 1
        assert len(cache) == 1

    def test_key_separates_seeds_and_devices(self, tiny_tess, loud_channel):
        specs = _subset(tiny_tess, 4)
        detector = RegionDetector.for_setting("table_top")
        k0 = collection_key(tiny_tess, loud_channel, specs, detector, False, 0)
        k1 = collection_key(tiny_tess, loud_channel, specs, detector, False, 1)
        assert k0 != k1
        assert "oneplus7t" in k0 and "-s0-" in k0

    def test_disk_roundtrip(self, tiny_tess, loud_channel, tmp_path):
        specs = _subset(tiny_tess, 5)
        warm = CollectionCache(cache_dir=tmp_path)
        first = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9, cache=warm
        )
        assert len(list(tmp_path.glob("*.npz"))) == 1
        # A fresh cache in a "new process" reloads the pass from disk.
        cold = CollectionCache(cache_dir=tmp_path)
        second = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=9, cache=cold
        )
        assert cold.hits == 1 and cold.misses == 0
        assert np.array_equal(first.features.X, second.features.X)
        assert np.array_equal(first.spectrograms.images, second.spectrograms.images)

    def test_save_load_collection(self, tiny_tess, loud_channel, tmp_path):
        result = collect_datasets(
            tiny_tess, loud_channel, specs=_subset(tiny_tess, 5), seed=6
        )
        path = tmp_path / "pass.npz"
        save_collection(result, path)
        loaded = load_collection(path)
        assert np.array_equal(result.features.X, loaded.features.X)
        assert np.array_equal(result.features.y, loaded.features.y)
        assert np.array_equal(result.spectrograms.images, loaded.spectrograms.images)
        assert loaded.features.n_played == result.features.n_played
        assert loaded.features.fs == result.features.fs


class TestStats:
    def test_one_pass_per_scenario(self):
        """run_table re-collects once per scenario, not once per classifier."""
        metrics().clear()
        suite = run_table(
            "IV",
            subsample=3,
            classifiers=("logistic", "cnn_spectrogram"),
            fast=True,
            cache=CollectionCache(),
        )
        assert len(suite.cells) == 2
        registry = metrics()
        # Table IV has one scenario (CREMA-D, 6 emotions); both classifier
        # rows must share one 18-utterance pass (3 per class x 6 emotions).
        # The two-phase run_table collects the scenario exactly once up
        # front and hands the bundle to every cell, so the second row no
        # longer needs even a cache hit.
        assert registry.counter_total("transmits") == 18
        assert registry.counter_total("cache_hits") == 0
        assert registry.counter_total("cache_misses") == 1


class TestChunkHelpers:
    @pytest.mark.parametrize("seed", [0, 7, -1, 2**40 + 3])
    @pytest.mark.parametrize("index", [0, 1, 419, 2**31 + 5])
    def test_item_rng_is_the_seed_list_stream(self, seed, index):
        ref = np.random.default_rng([0x454D4F, seed & 0xFFFFFFFF, index])
        got = _item_rng(seed, index)
        assert got.uniform(size=4).tobytes() == ref.uniform(size=4).tobytes()
        assert got.normal(size=8).tobytes() == ref.normal(size=8).tobytes()

    def test_loudest_region(self):
        signal = np.full(100, 9.8)
        signal[60:80] += np.sin(np.arange(20.0))
        quiet, loud = Region(10, 30, 100.0), Region(60, 80, 100.0)
        assert _loudest(signal, []) is None
        assert _loudest(signal, [quiet]) is quiet
        assert _loudest(signal, [quiet, loud]) is loud
        assert _loudest(signal, [loud, quiet]) is loud
