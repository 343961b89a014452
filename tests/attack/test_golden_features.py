"""Golden-regression tests for the collection pipeline's numerics.

A committed fixture pins the 24 Table II feature values and the 32x32
spectrogram image produced for one fixed ``(seed, device, utterance)``
triple. Any change to the DSP substrate, the channel simulation, the
region detector or the feature extractor that silently shifts these
numbers fails here first — and the engine's executors must all produce
byte-identical output, so a parallel refactor can't hide behind
"roughly equal" tolerances.

Regenerate the fixture (after an *intentional* numerics change) with::

    PYTHONPATH=src python tests/attack/test_golden_features.py --regenerate
"""

from pathlib import Path

import numpy as np
import pytest

from repro.attack.engine import collect_per_utterance_products
from repro.attack.features import FEATURE_NAMES
from repro.datasets import build_tess
from repro.phone import VibrationChannel

FIXTURE = Path(__file__).parent / "fixtures" / "golden_tess_oneplus7t_seed0.npz"

#: The fixed triple: corpus build arguments, device/placement, engine seed.
CORPUS_ARGS = dict(words_per_emotion=1, seed=123)
DEVICE = "oneplus7t"
SEED = 0


def _channel() -> VibrationChannel:
    return VibrationChannel(DEVICE, mode="loudspeaker", placement="table_top")


def _collect(executor: str, n_jobs: int = 2):
    """All per-utterance products for the fixed triple, spec-aligned."""
    corpus = build_tess(**CORPUS_ARGS)
    products = collect_per_utterance_products(
        corpus,
        _channel(),
        seed=SEED,
        n_jobs=n_jobs if executor != "serial" else 1,
        executor=executor,
    )
    return corpus, products


def _golden_product(products):
    """The first utterance that yielded both a feature row and an image."""
    for index, label, features, image in products:
        if features is not None and image is not None:
            return index, label, features, image
    raise AssertionError("no utterance produced both products")


@pytest.fixture(scope="module")
def serial_products():
    return _collect("serial")


class TestGoldenFixture:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), (
            f"golden fixture missing at {FIXTURE}; regenerate with "
            f"`PYTHONPATH=src python {__file__} --regenerate`"
        )

    def test_features_match_fixture(self, serial_products):
        _, products = serial_products
        index, label, features, image = _golden_product(products)
        with np.load(FIXTURE, allow_pickle=False) as bundle:
            assert int(bundle["spec_index"]) == index
            assert str(bundle["emotion"]) == label
            assert features.shape == (len(FEATURE_NAMES),)
            np.testing.assert_allclose(
                features, bundle["features"], rtol=1e-9, atol=1e-12,
                err_msg="Table II feature values drifted from the golden fixture",
            )
            np.testing.assert_allclose(
                image, bundle["image"], rtol=1e-9, atol=1e-12,
                err_msg="spectrogram image drifted from the golden fixture",
            )

    def test_feature_names_match_fixture(self):
        with np.load(FIXTURE, allow_pickle=False) as bundle:
            assert tuple(bundle["feature_names"]) == FEATURE_NAMES


class TestExecutorStability:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_byte_stable_across_executors(self, serial_products, executor):
        """Every product must be byte-identical at any worker count."""
        _, serial = serial_products
        _, parallel = _collect(executor)
        assert len(serial) == len(parallel)
        for (i_s, l_s, f_s, img_s), (i_p, l_p, f_p, img_p) in zip(serial, parallel):
            assert i_s == i_p and l_s == l_p
            for a, b in ((f_s, f_p), (img_s, img_p)):
                if a is None or b is None:
                    assert a is None and b is None
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def _regenerate() -> None:
    corpus, products = _collect("serial")
    index, label, features, image = _golden_product(products)
    spec = corpus.specs[index]
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        FIXTURE,
        features=features,
        image=image,
        spec_index=np.int64(index),
        emotion=np.str_(label),
        utterance_id=np.str_(spec.utterance_id),
        feature_names=np.array(FEATURE_NAMES),
    )
    print(f"wrote {FIXTURE} (utterance {spec.utterance_id!r}, emotion {label!r})")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
