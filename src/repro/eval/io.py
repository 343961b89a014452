"""Dataset and result persistence.

The paper's tooling exported time/frequency features to Weka ``.arff``
files (Section IV-D1), CSV for the feature CNN (IV-D2), and packed the
train/test spectrograms into HDF5 (IV-C1). This module reproduces that
interchange surface with dependency-free equivalents: ARFF and CSV text
writers for :class:`~repro.attack.pipeline.FeatureDataset`, JSON for
experiment results, and hashed array files standing in for HDF5.

Spectrogram datasets and collection passes (the on-disk leg of the
engine's :class:`~repro.attack.engine.CollectionCache`) are
:mod:`repro.artifact` containers: a zip, conventionally named ``.npz``,
holding one ``.npy`` member per array and a ``manifest.json`` with each
member's sha256 (plus the pass key for a collection). They are written
atomically and verified member by member before any array is parsed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.artifact import ArtifactIntegrityError, read_artifact, write_artifact
from repro.attack.engine import CollectionResult
from repro.attack.pipeline import FeatureDataset, SpectrogramDataset
from repro.eval.experiment import ExperimentResult

__all__ = [
    "to_arff",
    "to_csv",
    "save_spectrograms",
    "load_spectrograms",
    "save_collection",
    "load_collection",
    "result_to_json",
]

_PathLike = Union[str, Path]


def to_arff(dataset: FeatureDataset, relation: str = "emoleak") -> str:
    """Render a feature dataset as Weka ARFF text.

    NaN entries become ARFF missing values (``?``), matching how the
    paper's cleaning step treated invalid entries before Weka.
    """
    if dataset.X.shape[0] == 0:
        raise ValueError("cannot export an empty dataset")
    classes = sorted(set(str(label) for label in dataset.y))
    lines = [f"@RELATION {relation}", ""]
    for name in dataset.feature_names:
        lines.append(f"@ATTRIBUTE {name} NUMERIC")
    lines.append(f"@ATTRIBUTE emotion {{{','.join(classes)}}}")
    lines.append("")
    lines.append("@DATA")
    for row, label in zip(dataset.X, dataset.y):
        cells = ["?" if not np.isfinite(v) else f"{v:.10g}" for v in row]
        cells.append(str(label))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def to_csv(dataset: FeatureDataset) -> str:
    """Render a feature dataset as CSV with a header row."""
    if dataset.X.shape[0] == 0:
        raise ValueError("cannot export an empty dataset")
    lines = [",".join(list(dataset.feature_names) + ["emotion"])]
    for row, label in zip(dataset.X, dataset.y):
        cells = ["" if not np.isfinite(v) else f"{v:.10g}" for v in row]
        cells.append(str(label))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_spectrograms(dataset: SpectrogramDataset, path: _PathLike) -> None:
    """Persist a spectrogram dataset as a hashed ``.npz`` artifact."""
    if dataset.images.shape[0] == 0:
        raise ValueError("cannot export an empty dataset")
    arrays = {
        "images.npy": dataset.images,
        "labels.npy": np.asarray(dataset.y, dtype=str),
        "fs.npy": np.array([dataset.fs]),
        "n_played.npy": np.array([dataset.n_played]),
    }
    write_artifact(path, arrays, lambda table: {"members": table})


def load_spectrograms(path: _PathLike) -> SpectrogramDataset:
    """Load a spectrogram dataset saved by :func:`save_spectrograms`.

    A file that fails verification raises
    :class:`~repro.artifact.ArtifactIntegrityError`.
    """
    _, arrays = read_artifact(path)
    return SpectrogramDataset(
        images=arrays["images.npy"],
        y=arrays["labels.npy"],
        fs=float(arrays["fs.npy"][0]),
        n_played=int(arrays["n_played.npy"][0]),
    )


def save_collection(
    result: CollectionResult, path: _PathLike, key: Optional[str] = None
) -> None:
    """Persist one collection pass (both datasets) as a hashed artifact.

    The on-disk leg of the engine's :class:`CollectionCache`: a pass
    saved here can be reloaded by a later process instead of re-running
    render→transmit→detect. The pass ``key`` (empty when None) sits in
    the manifest, which :func:`load_collection` checks.
    """
    arrays = {
        "X.npy": result.features.X,
        "y_features.npy": np.asarray(result.features.y, dtype=str),
        "images.npy": result.spectrograms.images,
        "y_images.npy": np.asarray(result.spectrograms.y, dtype=str),
        "fs.npy": np.array([result.features.fs]),
        "n_played.npy": np.array([result.features.n_played]),
    }
    write_artifact(path, arrays, lambda table: {"key": key or "", "members": table})


def load_collection(path: _PathLike, key: Optional[str] = None) -> CollectionResult:
    """Load a collection pass saved by :func:`save_collection`.

    Every member is verified before the pass is rebuilt, and with ``key``
    the pass must also have been saved under that key. A file that fails
    either check, or that is not a verified artifact at all (such as the
    key+sha256 ``np.savez`` files written before this container), raises
    :class:`~repro.artifact.ArtifactIntegrityError`.
    """
    manifest, arrays = read_artifact(path)
    if key is not None and manifest.get("key") != key:
        raise ArtifactIntegrityError(
            f"{path}: pass was saved for key {manifest.get('key')!r}, not {key!r}"
        )
    fs, n_played = float(arrays["fs.npy"][0]), int(arrays["n_played.npy"][0])
    return CollectionResult(
        features=FeatureDataset(
            X=arrays["X.npy"], y=arrays["y_features.npy"], fs=fs, n_played=n_played
        ),
        spectrograms=SpectrogramDataset(
            images=arrays["images.npy"], y=arrays["y_images.npy"], fs=fs, n_played=n_played
        ),
    )


def result_to_json(result: ExperimentResult) -> str:
    """Serialise an experiment result (metrics + confusion) to JSON."""
    payload = {
        "classifier": result.classifier,
        "accuracy": result.accuracy,
        "random_guess": result.random_guess,
        "gain_over_chance": result.gain_over_chance,
        "n_train": result.n_train,
        "n_test": result.n_test,
        "n_classes": result.n_classes,
        "extraction_rate": result.extraction_rate,
        "labels": [str(label) for label in result.labels],
        "confusion": result.confusion.tolist(),
    }
    if result.history is not None:
        payload["history"] = result.history.as_dict()
    return json.dumps(payload, indent=2)
