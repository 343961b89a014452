"""Tests for repro.eval.io (ARFF/CSV/npz/JSON interchange)."""

import json

import numpy as np
import pytest

from repro.artifact import ArtifactIntegrityError
from repro.attack.pipeline import FeatureDataset, SpectrogramDataset
from repro.eval.experiment import run_feature_experiment
from repro.eval.io import (
    load_spectrograms,
    result_to_json,
    save_spectrograms,
    to_arff,
    to_csv,
)


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 24))
    X[1, 3] = np.nan
    y = np.array(["angry", "sad"] * 3)
    return FeatureDataset(X=X, y=y)


class TestARFF:
    def test_structure(self, dataset):
        text = to_arff(dataset)
        assert text.startswith("@RELATION emoleak")
        assert text.count("@ATTRIBUTE") == 25  # 24 features + class
        assert "@ATTRIBUTE emotion {angry,sad}" in text
        assert "@DATA" in text

    def test_row_count(self, dataset):
        data_lines = to_arff(dataset).split("@DATA\n")[1].strip().splitlines()
        assert len(data_lines) == 6

    def test_nan_becomes_missing(self, dataset):
        text = to_arff(dataset)
        assert "?" in text

    def test_empty_rejected(self):
        empty = FeatureDataset(X=np.empty((0, 24)), y=np.array([]))
        with pytest.raises(ValueError):
            to_arff(empty)


class TestCSV:
    def test_header_and_rows(self, dataset):
        lines = to_csv(dataset).strip().splitlines()
        assert lines[0].startswith("min,max,mean")
        assert lines[0].endswith(",emotion")
        assert len(lines) == 7

    def test_nan_becomes_blank(self, dataset):
        lines = to_csv(dataset).strip().splitlines()
        assert ",," in lines[2]  # the NaN cell


class TestSpectrogramBundle:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        original = SpectrogramDataset(
            images=rng.uniform(size=(5, 32, 32, 1)),
            y=np.array(["angry", "sad", "fear", "happy", "neutral"]),
            fs=420.0,
            n_played=6,
        )
        path = tmp_path / "specs.npz"
        save_spectrograms(original, path)
        loaded = load_spectrograms(path)
        assert np.allclose(loaded.images, original.images)
        assert list(loaded.y) == list(original.y)
        assert loaded.fs == 420.0
        assert loaded.n_played == 6
        loaded.images[0, 0, 0, 0] = -1.0  # loaded arrays are writable

        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # inside the images member
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            load_spectrograms(path)

    def test_empty_rejected(self, tmp_path):
        empty = SpectrogramDataset(images=np.empty((0, 32, 32, 1)), y=np.array([]))
        with pytest.raises(ValueError):
            save_spectrograms(empty, tmp_path / "x.npz")


class TestResultJSON:
    def test_serialises_real_result(self, tess_features):
        result = run_feature_experiment(tess_features, "logistic", seed=0)
        payload = json.loads(result_to_json(result))
        assert payload["classifier"] == "logistic"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert len(payload["confusion"]) == payload["n_classes"]
        assert payload["random_guess"] == pytest.approx(1 / 7, abs=1e-6)

    def test_history_included_when_present(self, tess_features):
        result = run_feature_experiment(tess_features, "cnn", seed=0, fast=True)
        payload = json.loads(result_to_json(result))
        assert "history" in payload
        assert len(payload["history"]["loss"]) > 0
