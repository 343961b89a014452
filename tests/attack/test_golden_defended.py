"""Golden-regression test for *defended* collection numerics.

Extends the golden fixture family (``test_golden_batch.py``) to the
defense path: the committed fixture pins the feature matrix and image
stack collected through the composed ``50 Hz cap + 20 Hz low-pass``
stack for the fixed ``(seed 0, oneplus7t, tiny TESS)`` triple. The
defended pipeline must reproduce the fixture byte-for-byte across
executors, chunk sizes and against the frozen per-utterance reference
(``_collect_reference.py``) — the same
contract the undefended golden suite enforces, now with the defense's
channel transform and stream postprocess in the loop.

Regenerate the fixture (after an *intentional* numerics change) with::

    PYTHONPATH=src python tests/attack/test_golden_defended.py --regenerate
"""

from pathlib import Path

import numpy as np
import pytest

from repro.attack.engine import collect_datasets
from repro.attack.features import FEATURE_NAMES
from repro.attack.privacy_gate import DefenseConfig
from repro.datasets import build_tess
from repro.phone import VibrationChannel
from tests.attack._collect_reference import collect_reference

FIXTURE = (
    Path(__file__).parent
    / "fixtures"
    / "golden_tess_oneplus7t_seed0_cap50lpf20.npz"
)

#: The fixed triple plus the pinned defense stack.
CORPUS_ARGS = dict(words_per_emotion=1, seed=123)
DEVICE = "oneplus7t"
SEED = 0
DEFENSE_CONFIG = DefenseConfig(rate_cap_hz=50.0, lowpass_hz=20.0)


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
        defense=DEFENSE_CONFIG.build(),
    )


@pytest.fixture(scope="module")
def defended_result():
    return _collect("batched")


class TestGoldenDefendedFixture:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), (
            f"golden fixture missing at {FIXTURE}; regenerate with "
            f"`PYTHONPATH=src python {__file__} --regenerate`"
        )

    def test_defended_matrix_matches_fixture(self, defended_result):
        with np.load(FIXTURE, allow_pickle=False) as bundle:
            assert defended_result.features.X.shape == bundle["X"].shape
            assert defended_result.features.X.tobytes() == bundle["X"].tobytes()
            assert list(defended_result.features.y) == list(bundle["y"])
            assert (
                defended_result.spectrograms.images.tobytes()
                == bundle["images"].tobytes()
            )
            assert tuple(bundle["feature_names"]) == FEATURE_NAMES

    def test_defended_differs_from_undefended_golden(self, defended_result):
        """Sanity: the defense actually changed the numerics on disk."""
        undefended = (
            Path(__file__).parent
            / "fixtures"
            / "golden_tess_oneplus7t_seed0_batch.npz"
        )
        with np.load(undefended, allow_pickle=False) as bundle:
            assert (
                defended_result.features.X.tobytes() != bundle["X"].tobytes()
            )

    def test_per_utterance_reference_matches_fixture(self):
        ref = collect_reference(
            build_tess(**CORPUS_ARGS), _channel(), seed=SEED,
            defense=DEFENSE_CONFIG.build(),
        )
        with np.load(FIXTURE, allow_pickle=False) as bundle:
            assert ref.features.X.tobytes() == bundle["X"].tobytes()
            assert ref.spectrograms.images.tobytes() == bundle["images"].tobytes()


class TestDefendedStability:
    @pytest.mark.parametrize("executor,n_jobs", [("thread", 2), ("process", 2)])
    def test_byte_stable_across_executors(self, defended_result, executor, n_jobs):
        other = _collect("batched", executor=executor, n_jobs=n_jobs, batch_chunk=4)
        assert other.features.X.tobytes() == defended_result.features.X.tobytes()
        assert (
            other.spectrograms.images.tobytes()
            == defended_result.spectrograms.images.tobytes()
        )

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_byte_stable_across_chunk_sizes(self, defended_result, chunk):
        other = _collect("batched", batch_chunk=chunk)
        assert other.features.X.tobytes() == defended_result.features.X.tobytes()
        assert (
            other.spectrograms.images.tobytes()
            == defended_result.spectrograms.images.tobytes()
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
