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

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

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
    "CorruptBundleError",
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


class CorruptBundleError(ValueError):
    """A collection bundle that fails its content-hash or key check."""


#: Array members of a collection bundle, in the order they are hashed.
_COLLECTION_ARRAYS = ("X", "y_features", "images", "y_images", "fs", "n_played")


def _collection_sha256(arrays: Dict[str, np.ndarray]) -> str:
    """sha256 over every array's name, dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in _COLLECTION_ARRAYS:
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.data)
    return digest.hexdigest()


def save_collection(
    result: CollectionResult, path: _PathLike, key: Optional[str] = None
) -> None:
    """Persist one collection pass (both datasets) as an ``.npz`` bundle.

    The on-disk leg of the engine's :class:`CollectionCache`: a pass
    saved here can be reloaded by a later process instead of re-running
    render→transmit→detect. The bundle is stored uncompressed (deflate
    saved 7 % of the bytes at 24× the write time) and carries the pass
    ``key`` (empty when None) and a sha256 of its arrays, which
    :func:`load_collection` verifies. The write is atomic: the bundle is
    written to a temporary file beside ``path`` and renamed over it only
    once complete, so a crash mid-write never leaves a truncated bundle
    under the final name.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):  # np.savez's naming rule
        path = path.with_name(path.name + ".npz")
    arrays = {
        "X": result.features.X,
        "y_features": np.asarray(result.features.y, dtype=str),
        "images": result.spectrograms.images,
        "y_images": np.asarray(result.spectrograms.y, dtype=str),
        "fs": np.array([result.features.fs]),
        "n_played": np.array([result.features.n_played]),
    }
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            np.savez(
                handle,
                key=np.array(key or ""),
                sha256=np.array(_collection_sha256(arrays)),
                **arrays,
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_collection(path: _PathLike, key: Optional[str] = None) -> CollectionResult:
    """Load a collection pass saved by :func:`save_collection`.

    The arrays are checked against the bundle's sha256 before the pass
    is rebuilt, and with ``key`` the bundle must also have been saved
    under that key. A bundle that fails either check, or that carries no
    hash (written before bundles were hashed), raises
    :class:`CorruptBundleError`.
    """
    with np.load(Path(path), allow_pickle=False) as bundle:
        arrays = {name: bundle[name] for name in _COLLECTION_ARRAYS}
        stored_sha = str(bundle["sha256"]) if "sha256" in bundle.files else None
        stored_key = str(bundle["key"]) if "key" in bundle.files else None
    if stored_sha is None:
        raise CorruptBundleError(f"{path}: bundle carries no content hash")
    if _collection_sha256(arrays) != stored_sha:
        raise CorruptBundleError(f"{path}: arrays do not match the bundle's sha256")
    if key is not None and stored_key != key:
        raise CorruptBundleError(
            f"{path}: bundle was saved for key {stored_key!r}, not {key!r}"
        )
    return _rebuild_result(
        X=arrays["X"],
        y_features=arrays["y_features"],
        images=arrays["images"],
        y_images=arrays["y_images"],
        fs=float(arrays["fs"][0]),
        n_played=int(arrays["n_played"][0]),
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
