"""Dataset and result persistence.

The paper's tooling exported time/frequency features to Weka ``.arff``
files (Section IV-D1), CSV for the feature CNN (IV-D2), and packed the
train/test spectrograms into HDF5 (IV-C1). This module reproduces that
interchange surface with dependency-free equivalents: ARFF and CSV text
writers for :class:`~repro.attack.pipeline.FeatureDataset`, ``.npz``
bundles for :class:`~repro.attack.pipeline.SpectrogramDataset` (numpy's
portable container standing in for HDF5), and JSON for experiment
results.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Union

import numpy as np

from repro.attack.engine import CollectionResult, _rebuild_result
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
    """Persist a spectrogram dataset as a compressed ``.npz`` bundle."""
    if dataset.images.shape[0] == 0:
        raise ValueError("cannot export an empty dataset")
    np.savez_compressed(
        Path(path),
        images=dataset.images,
        labels=np.asarray(dataset.y, dtype=str),
        fs=np.array([dataset.fs]),
        n_played=np.array([dataset.n_played]),
    )


def load_spectrograms(path: _PathLike) -> SpectrogramDataset:
    """Load a spectrogram dataset saved by :func:`save_spectrograms`."""
    with np.load(Path(path), allow_pickle=False) as bundle:
        return SpectrogramDataset(
            images=bundle["images"],
            y=bundle["labels"],
            fs=float(bundle["fs"][0]),
            n_played=int(bundle["n_played"][0]),
        )


def save_collection(result: CollectionResult, path: _PathLike) -> None:
    """Persist one collection pass (both datasets) as an ``.npz`` bundle.

    The on-disk leg of the engine's :class:`CollectionCache`: a pass
    saved here can be reloaded by a later process instead of re-running
    render→transmit→detect. The write is atomic: the bundle is written
    to a temporary file beside ``path`` and renamed over it only once
    complete, so a crash mid-write never leaves a truncated bundle under
    the final name.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):  # np.savez's naming rule
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            np.savez_compressed(
                handle,
                X=result.features.X,
                y_features=np.asarray(result.features.y, dtype=str),
                images=result.spectrograms.images,
                y_images=np.asarray(result.spectrograms.y, dtype=str),
                fs=np.array([result.features.fs]),
                n_played=np.array([result.features.n_played]),
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_collection(path: _PathLike) -> CollectionResult:
    """Load a collection pass saved by :func:`save_collection`."""
    with np.load(Path(path), allow_pickle=False) as bundle:
        return _rebuild_result(
            X=bundle["X"],
            y_features=bundle["y_features"],
            images=bundle["images"],
            y_images=bundle["y_images"],
            fs=float(bundle["fs"][0]),
            n_played=int(bundle["n_played"][0]),
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
