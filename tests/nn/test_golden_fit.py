"""Golden-regression guard for the spectrogram-CNN training numerics.

A committed JSON fixture pins the per-epoch loss/accuracy of a small,
fully deterministic spectrogram-CNN fit under the *default* policy
(float64 compute through the GEMM kernels). Any change to the layers,
loss, optimiser or training loop that shifts the default-policy
trajectory fails here first. A second test checks that the float32
policy lands within tolerance of the float64 trajectory on final
accuracy — the documented contract for ``--nn-dtype float32``.

Regenerate the fixture (after an *intentional* numerics change) with::

    PYTHONPATH=src python tests/nn/test_golden_fit.py --regenerate
"""

import json
from pathlib import Path

import numpy as np

from repro.attack.models import build_spectrogram_cnn
from repro.nn.optim import Adam
from repro.nn.policy import policy_scope

from tests.nn._kernel_offset_oracle import reference_convs

FIXTURE = Path(__file__).parent / "fixtures" / "golden_spectrogram_fit.json"

N_CLASSES = 4
EPOCHS = 2


def _dataset():
    """Separable synthetic spectrograms: class k lights rows 8k..8k+8."""
    rng = np.random.default_rng(7)
    n = 48
    y = np.arange(n) % N_CLASSES
    X = 0.25 * rng.random((n, 32, 32, 1))
    for i, k in enumerate(y):
        X[i, 8 * k : 8 * k + 8, :, 0] += 0.6
    return X, y


def _fit(**policy_kwargs):
    X, y = _dataset()
    with policy_scope(**policy_kwargs):
        model = build_spectrogram_cnn(N_CLASSES, width_scale=0.25, seed=0)
        history = model.fit(
            X - 0.5,
            y,
            epochs=EPOCHS,
            batch_size=16,
            optimizer=Adam(lr=1e-3),
            shuffle_seed=0,
        )
    return model, history


class TestGoldenDefaultPolicy:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), (
            f"golden fixture missing at {FIXTURE}; regenerate with "
            f"`PYTHONPATH=src python {__file__} --regenerate`"
        )

    def test_default_policy_reproduces_fixture(self):
        """Default (float64, GEMM) epoch losses/accuracies are pinned."""
        golden = json.loads(FIXTURE.read_text())
        _, history = _fit()  # the ambient default policy, deliberately unpinned
        assert history.accuracy == golden["accuracy"], (
            "default-policy training accuracy trajectory drifted"
        )
        np.testing.assert_allclose(
            history.loss, golden["loss"], rtol=1e-9,
            err_msg="default-policy training loss trajectory drifted",
        )

    def test_float32_policy_tracks_float64_accuracy(self):
        golden = json.loads(FIXTURE.read_text())
        _, history = _fit(compute_dtype="float32")
        assert abs(history.accuracy[-1] - golden["accuracy"][-1]) <= 0.15, (
            f"float32 final accuracy {history.accuracy[-1]:.3f} strayed from "
            f"the float64 golden {golden['accuracy'][-1]:.3f}"
        )
        np.testing.assert_allclose(history.loss, golden["loss"], rtol=0.05)

    def test_reference_kernel_matches_gemm_trajectory(self):
        """The seed's kernel-offset path (the test oracle) trains to the same numbers."""
        golden = json.loads(FIXTURE.read_text())
        with reference_convs():
            _, history = _fit()
        assert history.accuracy == golden["accuracy"]
        np.testing.assert_allclose(history.loss, golden["loss"], rtol=1e-7)


def _regenerate() -> None:
    _, history = _fit(compute_dtype="float64")
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
