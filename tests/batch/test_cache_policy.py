"""Regression: CollectionCache keys must include the batch-policy dtype.

A float32 hot-path pass and a float64 golden pass produce different
arrays; if they shared a cache key, whichever ran first would poison the
other. ``collection_key`` folds the active compute dtype into the
digest, with ``None`` normalising to ``"float64"``. The policy applies to
every table-top pass, chunks of one included.
"""

import numpy as np

from repro.attack.engine import (
    CollectionCache,
    collect_datasets,
    collection_key,
    _default_detector,
)
from repro.batch import batch_policy_scope


class TestCollectionKeyDtype:
    def test_float64_is_the_default_key(self, tiny_tess, loud_channel):
        detector = _default_detector(loud_channel)
        specs = tiny_tess.specs[:3]
        base = collection_key(
            tiny_tess, loud_channel, specs, detector, False, 0
        )
        explicit = collection_key(
            tiny_tess, loud_channel, specs, detector, False, 0,
            batch_dtype="float64",
        )
        assert base == explicit

    def test_float32_keys_separately(self, tiny_tess, loud_channel):
        detector = _default_detector(loud_channel)
        specs = tiny_tess.specs[:3]
        golden = collection_key(
            tiny_tess, loud_channel, specs, detector, False, 0,
            batch_dtype="float64",
        )
        hot = collection_key(
            tiny_tess, loud_channel, specs, detector, False, 0,
            batch_dtype="float32",
        )
        assert golden != hot
        # Same readable prefix, different digest.
        assert golden.rsplit("-", 1)[0] == hot.rsplit("-", 1)[0]


class TestCrossPolicyCache:
    def test_policy_change_misses_and_recollects(self, tiny_tess, loud_channel):
        specs = tiny_tess.specs[:6]
        cache = CollectionCache()

        golden = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4,
            pipeline="batched", cache=cache,
        )
        assert cache.misses == 1 and cache.hits == 0
        assert golden.features.X.dtype == np.float64

        # Warm float64 cache must NOT serve the float32 policy.
        with batch_policy_scope(compute_dtype="float32"):
            hot = collect_datasets(
                tiny_tess, loud_channel, specs=specs, seed=4,
                pipeline="batched", cache=cache,
            )
        assert cache.misses == 2 and cache.hits == 0
        assert hot.features.X.dtype == np.float32
        assert hot.spectrograms.images.dtype == np.float32

        # Each policy now hits its own entry.
        again = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4,
            pipeline="batched", cache=cache,
        )
        assert cache.hits == 1
        assert again.features.X.tobytes() == golden.features.X.tobytes()
        with batch_policy_scope(compute_dtype="float32"):
            hot_again = collect_datasets(
                tiny_tess, loud_channel, specs=specs, seed=4,
                pipeline="batched", cache=cache,
            )
        assert cache.hits == 2
        assert hot_again.features.X.tobytes() == hot.features.X.tobytes()

    def test_hot_path_is_tolerance_close(self, tiny_tess, loud_channel):
        specs = tiny_tess.specs[:6]
        golden = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4, pipeline="batched"
        )
        with batch_policy_scope(compute_dtype="float32"):
            hot = collect_datasets(
                tiny_tess, loud_channel, specs=specs, seed=4, pipeline="batched"
            )
        # Same rows (region boundaries always run float64)...
        assert list(hot.features.y) == list(golden.features.y)
        assert hot.features.X.shape == golden.features.X.shape
        # ...with single-precision products close to the golden numerics.
        np.testing.assert_allclose(
            hot.features.X, golden.features.X.astype(np.float32),
            rtol=2e-3, atol=2e-3,
        )
        np.testing.assert_allclose(
            hot.spectrograms.images,
            golden.spectrograms.images.astype(np.float32),
            rtol=5e-3, atol=5e-3,
        )

    def test_per_utterance_pipeline_is_chunks_of_one(self, tiny_tess, loud_channel):
        """One utterance at a time (``batch_chunk=1``) honours the policy."""
        specs = tiny_tess.specs[:4]
        with batch_policy_scope(compute_dtype="float32"):
            ref = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=4)
            got = collect_datasets(
                tiny_tess, loud_channel, specs=specs, seed=4, batch_chunk=1
            )
        assert got.features.X.dtype == np.float32
        assert got.features.X.tobytes() == ref.features.X.tobytes()
        assert got.spectrograms.images.tobytes() == ref.spectrograms.images.tobytes()
        assert list(got.features.y) == list(ref.features.y)
