"""End-to-end parity: the batched pipeline vs the per-utterance reference.

Under the golden float64 batch policy, ``collect_datasets`` must return
datasets byte-identical to the frozen one-utterance-at-a-time reference
(``tests/attack/_collect_reference.py``), at any chunk size, under any
executor and through the ``per_utterance`` alias for chunks of one: the
batched data plane is a pure reorganisation of the work, not a
numerical variant.
"""

import numpy as np
import pytest

from repro.attack.engine import (
    DEFAULT_BATCH_CHUNK,
    DEFAULT_PIPELINE,
    PIPELINES,
    collect_datasets,
)
from repro.attack.pipeline import EmoLeakAttack
from tests.attack._collect_reference import collect_reference


def _bytes(result):
    return (
        result.features.X.tobytes(),
        result.features.y.tolist(),
        result.spectrograms.images.tobytes(),
        result.spectrograms.y.tolist(),
    )


@pytest.fixture(scope="module")
def reference(request):
    tiny_tess = request.getfixturevalue("tiny_tess")
    loud_channel = request.getfixturevalue("loud_channel")
    specs = tiny_tess.specs[:12]
    return specs, collect_reference(tiny_tess, loud_channel, specs=specs, seed=4)


class TestPipelineDispatch:
    def test_defaults(self):
        assert DEFAULT_PIPELINE == "batched"
        assert set(PIPELINES) == {"batched", "per_utterance"}
        assert DEFAULT_BATCH_CHUNK >= 1

    def test_unknown_pipeline_rejected(self, tiny_tess, loud_channel):
        with pytest.raises(ValueError, match="pipeline"):
            collect_datasets(
                tiny_tess,
                loud_channel,
                specs=tiny_tess.specs[:2],
                pipeline="vectorised",
            )

    def test_dash_alias(self, tiny_tess, loud_channel, reference):
        specs, ref = reference
        got = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4, pipeline="per-utterance"
        )
        assert _bytes(got) == _bytes(ref)


class TestBatchedParity:
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_byte_identical_at_any_chunk_size(
        self, tiny_tess, loud_channel, reference, chunk
    ):
        specs, ref = reference
        got = collect_datasets(
            tiny_tess,
            loud_channel,
            specs=specs,
            seed=4,
            pipeline="batched",
            batch_chunk=chunk,
        )
        assert _bytes(got) == _bytes(ref)

    @pytest.mark.parametrize(
        "executor,n_jobs", [("serial", 1), ("thread", 3), ("process", 2)]
    )
    def test_byte_identical_under_any_executor(
        self, tiny_tess, loud_channel, reference, executor, n_jobs
    ):
        specs, ref = reference
        got = collect_datasets(
            tiny_tess,
            loud_channel,
            specs=specs,
            seed=4,
            pipeline="batched",
            # Several chunks so the pool fans out, the last one short.
            batch_chunk=5,
            executor=executor,
            n_jobs=n_jobs,
        )
        assert _bytes(got) == _bytes(ref)

    @pytest.mark.parametrize("executor,n_jobs", [("thread", 3), ("process", 2)])
    def test_chunks_of_one_under_any_executor(
        self, tiny_tess, loud_channel, reference, executor, n_jobs
    ):
        specs, ref = reference
        got = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4,
            pipeline="per_utterance", executor=executor, n_jobs=n_jobs,
        )
        assert _bytes(got) == _bytes(ref)

    def test_default_pipeline_is_batched_and_identical(
        self, tiny_tess, loud_channel, reference
    ):
        specs, ref = reference
        got = collect_datasets(tiny_tess, loud_channel, specs=specs, seed=4)
        assert _bytes(got) == _bytes(ref)

    def test_counters_match_reference(self, tiny_tess, loud_channel, reference):
        specs, ref = reference
        one_at_a_time = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=4, pipeline="per_utterance"
        )
        got = collect_datasets(
            tiny_tess,
            loud_channel,
            specs=specs,
            seed=4,
            pipeline="batched",
            batch_chunk=5,
        )
        for field in ("renders", "transmits", "regions_detected", "regions_used",
                      "n_played"):
            assert getattr(got.stats, field) == getattr(one_at_a_time.stats, field)
        assert got.stats.renders == got.stats.transmits == ref.features.n_played
        assert got.stats.regions_used == ref.spectrograms.images.shape[0]

    def test_handheld_per_utterance_protocol(self, tiny_tess, ear_channel):
        # Handheld + continuous=False exercises the per-item channel
        # clones inside the batched transmit stage.
        specs = tiny_tess.specs[:6]
        ref = collect_reference(tiny_tess, ear_channel, specs=specs, seed=2)
        got = collect_datasets(
            tiny_tess, ear_channel, specs=specs, seed=2,
            continuous=False, pipeline="batched", batch_chunk=2,
        )
        assert _bytes(got) == _bytes(ref)

    def test_continuous_ignores_pipeline(self, tiny_tess, ear_channel):
        specs = tiny_tess.specs[:4]
        ref = collect_datasets(
            tiny_tess, ear_channel, specs=specs, seed=2, pipeline="per_utterance"
        )
        got = collect_datasets(
            tiny_tess, ear_channel, specs=specs, seed=2, pipeline="batched"
        )
        assert _bytes(got) == _bytes(ref)


class TestAttackObjectPassThrough:
    def test_pipeline_knob_reaches_engine(self, tiny_tess, loud_channel, reference):
        specs, ref = reference
        attack = EmoLeakAttack(
            loud_channel, seed=4, pipeline="batched", batch_chunk=3
        )
        features = attack.collect_features(tiny_tess, specs=specs)
        assert features.X.tobytes() == ref.features.X.tobytes()
        both = attack.collect_datasets(tiny_tess, specs=specs)
        assert _bytes(both) == _bytes(ref)
