"""Tests for repro.ml.persistence (pickle-free classifier serialisation)."""

import json

import numpy as np
import pytest

import repro.ml.persistence as persistence
from repro.artifact import ArtifactIntegrityError, write_artifact
from repro.ml.forest import RandomForest
from repro.ml.lmt import LogisticModelTree
from repro.ml.logistic import LogisticRegression
from repro.ml.persistence import (
    classifier_from_dict,
    classifier_to_dict,
    load_classifier,
    save_classifier,
)
from repro.ml.subspace import RandomSubspace
from repro.ml.tree import DecisionTree


def blobs(n_per_class=40, k=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(k, d))
    X = np.vstack(
        [centers[i] + 0.6 * rng.normal(size=(n_per_class, d)) for i in range(k)]
    )
    y = np.repeat([f"c{i}" for i in range(k)], n_per_class)
    return X, y


@pytest.fixture()
def data():
    return blobs()


def write_member(path, text):
    """An artifact whose ``classifier.json`` member holds ``text``."""
    write_artifact(path, {"classifier.json": text.encode()}, lambda table: {"members": table})


class TestRoundTrips:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LogisticRegression(),
            lambda: DecisionTree(max_depth=5),
            lambda: RandomForest(n_estimators=6, seed=0),
            lambda: RandomSubspace(n_estimators=4, seed=0),
        ],
        ids=["logistic", "tree", "forest", "subspace"],
    )
    def test_predictions_preserved(self, data, factory, tmp_path):
        X, y = data
        model = factory().fit(X, y)
        path = tmp_path / "model.json"
        save_classifier(model, path)
        restored = load_classifier(path)
        assert np.array_equal(model.predict(X), restored.predict(X))
        assert np.allclose(model.predict_proba(X), restored.predict_proba(X))

    def test_dict_is_json_safe(self, data):
        X, y = data
        payload = classifier_to_dict(LogisticRegression().fit(X, y))
        json.dumps(payload)  # must not raise

    def test_string_labels_survive(self, data, tmp_path):
        X, y = data
        model = DecisionTree().fit(X, y)
        save_classifier(model, tmp_path / "t.json")
        restored = load_classifier(tmp_path / "t.json")
        assert set(restored.predict(X)) <= {"c0", "c1", "c2"}


class TestIntegrity:
    @pytest.mark.parametrize("name", ["model.zip", "model"])
    def test_changed_coefficient_is_refused_before_parsing(
        self, data, tmp_path, monkeypatch, name
    ):
        X, y = data
        path = tmp_path / name
        save_classifier(LogisticRegression().fit(X, y), path)
        if path.is_dir():
            member = path / "classifier.json"
            raw = member.read_bytes()
            member.write_bytes(raw.replace(b'"coef": [[', b'"coef": [[9', 1))
        else:
            raw = path.read_bytes()
            at = raw.index(b'"coef": [[') + len(b'"coef": [[')
            path.write_bytes(raw[:at] + b"9" + raw[at + 1:])

        def bomb(payload):
            raise AssertionError("a tampered classifier reached the parser")

        monkeypatch.setattr(persistence, "classifier_from_dict", bomb)
        with pytest.raises(ArtifactIntegrityError, match="classifier.json"):
            load_classifier(path)

    def test_bare_json_file_is_not_an_artifact(self, data, tmp_path):
        X, y = data
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(classifier_to_dict(LogisticRegression().fit(X, y))))
        with pytest.raises(ArtifactIntegrityError, match=r"bare\.json"):
            load_classifier(path)

    def test_other_artifact_is_refused(self, tmp_path):
        path = tmp_path / "other.zip"
        write_artifact(path, {"weights.npy": np.zeros(3)}, lambda table: {"members": table})
        with pytest.raises(ArtifactIntegrityError, match="classifier.json"):
            load_classifier(path)


class TestSafety:
    def test_unsupported_type_rejected(self, data):
        X, y = data
        model = LogisticModelTree().fit(X, y)
        with pytest.raises(TypeError):
            classifier_to_dict(model)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            classifier_from_dict({"kind": "os.system"})

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            classifier_to_dict(LogisticRegression())


class TestErrorPathNaming:
    """Regression guard: a bad artifact names the offending *file* in the
    exception, so a corrupt member inside a serving bundle is
    identifiable from the error alone."""

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        write_member(path, "{not json")
        with pytest.raises(ValueError, match=r"broken\.json.*not valid classifier JSON"):
            load_classifier(path)

    def test_non_object_payload_names_file(self, tmp_path):
        path = tmp_path / "list.json"
        write_member(path, "[1, 2, 3]")
        with pytest.raises(ValueError, match=r"list\.json.*expected a classifier JSON object"):
            load_classifier(path)

    def test_unknown_kind_names_file(self, tmp_path):
        path = tmp_path / "hostile.json"
        write_member(path, json.dumps({"kind": "os.system"}))
        with pytest.raises(ValueError, match=r"hostile\.json.*unknown classifier kind"):
            load_classifier(path)

    def test_missing_fields_name_file(self, tmp_path, data):
        X, y = data
        payload = classifier_to_dict(LogisticRegression().fit(X, y))
        del payload["coef"]
        path = tmp_path / "truncated.json"
        write_member(path, json.dumps(payload))
        with pytest.raises(ValueError, match=r"truncated\.json"):
            load_classifier(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_classifier(tmp_path / "nowhere.json")
