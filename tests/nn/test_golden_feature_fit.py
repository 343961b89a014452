"""Golden-regression guard for the feature-CNN (1-D) training numerics.

The companion of ``test_golden_fit.py`` for the paper's 1-D CNN over
the 24 Table II features. A committed JSON fixture pins the per-epoch
loss/accuracy of a small, fully deterministic ``build_feature_cnn`` fit
under float64 compute through the GEMM kernels. The fit runs through
both 1-D pooling tails: ``Dropout -> MaxPool1D(2)`` after the second
conv and ``BatchNorm -> ReLU -> Dropout -> MaxPool1D(8)`` after the
third, so any change to the 1-D pooling, dropout or rectifier numerics
fails here first.

Regenerate the fixture (after an *intentional* numerics change) with::

    PYTHONPATH=src python tests/nn/test_golden_feature_fit.py --regenerate
"""

import json
from pathlib import Path

import numpy as np

from repro.attack.models import build_feature_cnn
from repro.nn.optim import Adam
from repro.nn.policy import policy_scope

FIXTURE = Path(__file__).parent / "fixtures" / "golden_feature_fit.json"

N_CLASSES = 4
EPOCHS = 3


def _dataset():
    """Separable synthetic feature vectors: class k lifts features 6k..6k+6."""
    rng = np.random.default_rng(11)
    n = 64
    y = np.arange(n) % N_CLASSES
    X = rng.normal(size=(n, 24, 1))
    for i, k in enumerate(y):
        X[i, 6 * k : 6 * k + 6, 0] += 1.5
    return X, y


def _fit(**policy_kwargs):
    X, y = _dataset()
    with policy_scope(**policy_kwargs):
        model = build_feature_cnn(N_CLASSES, width_scale=0.25, seed=0)
        history = model.fit(
            X,
            y,
            epochs=EPOCHS,
            batch_size=16,
            optimizer=Adam(lr=1e-3),
            shuffle_seed=0,
        )
    return model, history


class TestGoldenFeatureFit:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), (
            f"golden fixture missing at {FIXTURE}; regenerate with "
            f"`PYTHONPATH=src python {__file__} --regenerate`"
        )

    def test_float64_reproduces_fixture(self):
        golden = json.loads(FIXTURE.read_text())
        _, history = _fit(compute_dtype="float64", conv_kernel="gemm")
        assert history.accuracy == golden["accuracy"], (
            "float64 feature-CNN accuracy trajectory drifted"
        )
        np.testing.assert_allclose(
            history.loss, golden["loss"], rtol=1e-9,
            err_msg="float64 feature-CNN loss trajectory drifted",
        )

    def test_reference_kernel_matches_gemm_trajectory(self):
        golden = json.loads(FIXTURE.read_text())
        _, history = _fit(compute_dtype="float64", conv_kernel="reference")
        assert history.accuracy == golden["accuracy"]
        np.testing.assert_allclose(history.loss, golden["loss"], rtol=1e-7)


def _regenerate() -> None:
    _, history = _fit(compute_dtype="float64", conv_kernel="gemm")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {
                "policy": {"compute_dtype": "float64", "conv_kernel": "gemm"},
                "epochs": EPOCHS,
                "loss": history.loss,
                "accuracy": history.accuracy,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}: loss={history.loss} accuracy={history.accuracy}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
