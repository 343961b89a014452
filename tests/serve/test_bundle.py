"""Bundle round trips: save → load preserves predictions bitwise."""

import json

import numpy as np
import pytest

from repro.artifact import write_artifact
from repro.serve.bundle import (
    BUNDLE_FORMAT_VERSION,
    CNN_CONFIG_MEMBER,
    BundleError,
    ModelBundle,
    load_bundle,
    save_bundle,
    verify_bundle,
)

from tests.serve.conftest import make_blobs


class TestRoundTrip:
    @pytest.mark.parametrize("as_zip", [False, True], ids=["dir", "zip"])
    def test_full_bundle_round_trip(
        self, tmp_path, fitted_logistic, fitted_cnn, blob_data, as_zip
    ):
        X, _ = blob_data
        bundle = ModelBundle.create(
            "blobs", "2", classifier=fitted_logistic, cnn=fitted_cnn
        )
        path = tmp_path / ("b.zip" if as_zip else "b")
        manifest = save_bundle(bundle, path)
        assert manifest.ref == "blobs@2"
        assert manifest.format_version == BUNDLE_FORMAT_VERSION
        loaded = load_bundle(path)
        # Bitwise parity of the full pipeline, both predictors.
        assert np.array_equal(
            bundle.predict_proba_with("cnn", X),
            loaded.predict_proba_with("cnn", X),
        )
        assert np.array_equal(
            bundle.predict_proba_with("classifier", X),
            loaded.predict_proba_with("classifier", X),
        )
        assert np.array_equal(bundle.predict(X), loaded.predict(X))

    def test_classifier_only_round_trip(
        self, packed_classifier_bundle, fitted_logistic, blob_data
    ):
        X, _ = blob_data
        loaded = load_bundle(packed_classifier_bundle)
        assert loaded.cnn is None
        assert np.array_equal(
            fitted_logistic.predict_proba(X), loaded.predict_proba(X)
        )

    def test_manifest_contents(self, packed_bundle):
        manifest, members = verify_bundle(packed_bundle)
        assert manifest.labels == ["emo0", "emo1", "emo2"]
        assert len(manifest.feature_schema) == 24
        assert manifest.provenance["source"] == "tests"
        assert set(manifest.members) == {
            "classifier.json", "cnn.json", "cnn_weights.npz"
        }
        assert set(members) == set(manifest.members)
        # The manifest is valid JSON on disk with every member hashed.
        raw = json.loads((packed_bundle / "manifest.json").read_text())
        for meta in raw["members"].values():
            assert len(meta["sha256"]) == 64
            assert meta["bytes"] > 0

    def test_cnn_policy_recorded(self, packed_bundle):
        manifest, members = verify_bundle(packed_bundle)
        config_policy = json.loads(members[CNN_CONFIG_MEMBER])["policy"]
        for policy in (manifest.nn_policy, config_policy):
            assert policy["compute_dtype"] in ("float64", "float32")
            assert "conv_kernel" not in policy

    def test_bundle_recording_a_conv_kernel_still_loads(
        self, tmp_path, packed_bundle, blob_data
    ):
        """Bundles packed while the policy also named a conv kernel load as before."""
        X, _ = blob_data
        manifest, members = verify_bundle(packed_bundle)
        config = json.loads(members[CNN_CONFIG_MEMBER])
        config["policy"]["conv_kernel"] = "reference"
        members[CNN_CONFIG_MEMBER] = json.dumps(config).encode()
        manifest.nn_policy["conv_kernel"] = "reference"
        old = tmp_path / "old"
        write_artifact(old, members, lambda table: {**manifest.to_dict(), "members": table})
        loaded, fresh = load_bundle(old), load_bundle(packed_bundle)
        assert loaded.manifest.nn_policy["conv_kernel"] == "reference"
        for role in ("cnn", "classifier"):
            assert (
                loaded.predict_proba_with(role, X).tobytes()
                == fresh.predict_proba_with(role, X).tobytes()
            )


class TestCreateValidation:
    def test_empty_bundle_rejected(self):
        with pytest.raises(BundleError, match="needs a classifier"):
            ModelBundle.create("x", "1")

    def test_unfitted_part_rejected(self):
        from repro.ml.logistic import LogisticRegression

        with pytest.raises(BundleError, match="not fitted"):
            ModelBundle.create("x", "1", classifier=LogisticRegression())

    def test_label_disagreement_rejected(self, fitted_cnn):
        from repro.ml.logistic import LogisticRegression

        X, y = make_blobs(k=2, seed=5)
        other = LogisticRegression().fit(X, y)
        with pytest.raises(BundleError, match="disagree on the label map"):
            ModelBundle.create("x", "1", classifier=other, cnn=fitted_cnn)

    def test_scaler_member_round_trip(self, tmp_path, fitted_logistic, blob_data):
        from repro.ml.preprocessing import StandardScaler

        X, _ = blob_data
        scaler = StandardScaler().fit(X)
        bundle = ModelBundle.create(
            "scaled", "1", classifier=fitted_logistic, scaler=scaler
        )
        path = tmp_path / "scaled"
        save_bundle(bundle, path)
        loaded = load_bundle(path)
        assert np.array_equal(loaded.scaler.mean_, scaler.mean_)
        assert np.array_equal(loaded.scaler.std_, scaler.std_)
        assert np.array_equal(
            bundle.predict_proba(X), loaded.predict_proba(X)
        )
