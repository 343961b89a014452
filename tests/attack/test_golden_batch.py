"""Golden-regression tests for the batched data plane's numerics.

Extends the golden fixture family (see ``test_golden_features.py``) with
a *multi-utterance batched* variant: the committed fixture pins the full
feature matrix and image stack collected through the batched pipeline
for the fixed ``(seed 0, oneplus7t, tiny TESS)`` triple. The batched
pipeline under the golden float64 policy must reproduce the fixture
byte-for-byte across executors and chunk sizes — and must equal the
frozen per-utterance reference (``_collect_reference.py``) exactly, so
this fixture pins both at once.

Regenerate the fixture (after an *intentional* numerics change) with::

    PYTHONPATH=src python tests/attack/test_golden_batch.py --regenerate
"""

from pathlib import Path

import numpy as np
import pytest

from repro.attack.engine import collect_datasets
from repro.attack.features import FEATURE_NAMES
from repro.datasets import build_tess
from repro.phone import VibrationChannel
from tests.attack._collect_reference import collect_reference

FIXTURE = Path(__file__).parent / "fixtures" / "golden_tess_oneplus7t_seed0_batch.npz"

#: The fixed triple: corpus build arguments, device/placement, engine seed.
CORPUS_ARGS = dict(words_per_emotion=1, seed=123)
DEVICE = "oneplus7t"
SEED = 0


def _channel() -> VibrationChannel:
    return VibrationChannel(DEVICE, mode="loudspeaker", placement="table_top")


def _collect(pipeline: str, executor: str = "serial", n_jobs: int = 1,
             batch_chunk=None):
    corpus = build_tess(**CORPUS_ARGS)
    return collect_datasets(
        corpus,
        _channel(),
        seed=SEED,
        pipeline=pipeline,
        batch_chunk=batch_chunk,
        executor=executor,
        n_jobs=n_jobs,
    )


@pytest.fixture(scope="module")
def batched_result():
    return _collect("batched")


class TestGoldenBatchFixture:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), (
            f"golden fixture missing at {FIXTURE}; regenerate with "
            f"`PYTHONPATH=src python {__file__} --regenerate`"
        )

    def test_batched_matrix_matches_fixture(self, batched_result):
        with np.load(FIXTURE, allow_pickle=False) as bundle:
            assert batched_result.features.X.shape == bundle["X"].shape
            assert batched_result.features.X.tobytes() == bundle["X"].tobytes()
            assert list(batched_result.features.y) == list(bundle["y"])
            assert (
                batched_result.spectrograms.images.tobytes()
                == bundle["images"].tobytes()
            )
            assert tuple(bundle["feature_names"]) == FEATURE_NAMES

    def test_per_utterance_reference_matches_fixture(self):
        """The fixture pins the reference path too (golden = identical)."""
        ref = collect_reference(build_tess(**CORPUS_ARGS), _channel(), seed=SEED)
        with np.load(FIXTURE, allow_pickle=False) as bundle:
            assert ref.features.X.tobytes() == bundle["X"].tobytes()
            assert ref.spectrograms.images.tobytes() == bundle["images"].tobytes()


class TestBatchedStability:
    @pytest.mark.parametrize("executor,n_jobs", [("thread", 2), ("process", 2)])
    def test_byte_stable_across_executors(self, batched_result, executor, n_jobs):
        other = _collect("batched", executor=executor, n_jobs=n_jobs, batch_chunk=4)
        assert (
            other.features.X.tobytes() == batched_result.features.X.tobytes()
        )
        assert (
            other.spectrograms.images.tobytes()
            == batched_result.spectrograms.images.tobytes()
        )

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_byte_stable_across_chunk_sizes(self, batched_result, chunk):
        other = _collect("batched", batch_chunk=chunk)
        assert (
            other.features.X.tobytes() == batched_result.features.X.tobytes()
        )
        assert (
            other.spectrograms.images.tobytes()
            == batched_result.spectrograms.images.tobytes()
        )


def _regenerate() -> None:
    result = _collect("batched")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        FIXTURE,
        X=result.features.X,
        y=np.array(result.features.y),
        images=result.spectrograms.images,
        feature_names=np.array(FEATURE_NAMES),
    )
    print(
        f"wrote {FIXTURE} ({result.features.X.shape[0]} feature rows, "
        f"{result.spectrograms.images.shape[0]} images)"
    )


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
