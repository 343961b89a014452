"""Classifier persistence without pickle.

The attacker's workflow (train offline on attacker-device recordings,
deploy the model against victims) needs trained classifiers to move
between processes. Pickle is unsafe for untrusted artifacts, so the
classifiers serialise to explicit JSON documents: logistic regression as
weight matrices, trees as nested node dicts, ensembles as member lists.

``save_classifier`` / ``load_classifier`` store that document as the one
member of a verified :mod:`repro.artifact` container, so a changed byte
is refused before it is parsed, and dispatch on a ``kind`` tag that
refuses unknown kinds, so a hand-built artifact cannot instantiate
arbitrary classes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.artifact import ArtifactIntegrityError, read_artifact, write_artifact
from repro.ml.forest import RandomForest
from repro.ml.logistic import LogisticRegression
from repro.ml.preprocessing import StandardScaler
from repro.ml.subspace import RandomSubspace
from repro.ml.tree import DecisionTree, _Node

__all__ = ["save_classifier", "load_classifier", "classifier_to_dict",
           "classifier_from_dict", "scaler_to_dict", "scaler_from_dict",
           "PERSISTABLE_KINDS"]

_PathLike = Union[str, Path]

#: The one member of a classifier artifact.
_MEMBER = "classifier.json"


def _node_to_dict(node: _Node) -> dict:
    if node.is_leaf:
        return {"proba": node.proba.tolist()}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(payload: dict) -> _Node:
    if "proba" in payload:
        return _Node(proba=np.asarray(payload["proba"], dtype=float))
    return _Node(
        feature=int(payload["feature"]),
        threshold=float(payload["threshold"]),
        left=_node_from_dict(payload["left"]),
        right=_node_from_dict(payload["right"]),
    )


def _tree_to_dict(tree: DecisionTree) -> dict:
    tree._check_fitted()
    return {
        "kind": "decision_tree",
        "classes": tree.classes_.tolist(),
        "root": _node_to_dict(tree.root_),
        "params": {
            "max_depth": tree.max_depth,
            "min_samples_split": tree.min_samples_split,
            "min_samples_leaf": tree.min_samples_leaf,
            "criterion": tree.criterion,
            "max_features": tree.max_features,
            "rng_seed": tree.rng_seed,
        },
    }


def _tree_from_dict(payload: dict) -> DecisionTree:
    tree = DecisionTree(**payload["params"])
    tree.classes_ = np.asarray(payload["classes"])
    tree.root_ = _node_from_dict(payload["root"])
    return tree


def _logistic_to_dict(model: LogisticRegression) -> dict:
    model._check_fitted()
    return {
        "kind": "logistic",
        "classes": model.classes_.tolist(),
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_.tolist(),
        "scaler_mean": model._scaler.mean_.tolist(),
        "scaler_std": model._scaler.std_.tolist(),
        "params": {
            "ridge": model.ridge,
            "max_iter": model.max_iter,
            "lr": model.lr,
            "tol": model.tol,
        },
    }


def _logistic_from_dict(payload: dict) -> LogisticRegression:
    model = LogisticRegression(**payload["params"])
    model.classes_ = np.asarray(payload["classes"])
    model.coef_ = np.asarray(payload["coef"], dtype=float)
    model.intercept_ = np.asarray(payload["intercept"], dtype=float)
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(payload["scaler_mean"], dtype=float)
    scaler.std_ = np.asarray(payload["scaler_std"], dtype=float)
    model._scaler = scaler
    return model


def _forest_to_dict(model: RandomForest) -> dict:
    model._check_fitted()
    return {
        "kind": "random_forest",
        "classes": model.classes_.tolist(),
        "trees": [_tree_to_dict(tree) for tree in model.trees_],
        "params": {
            "n_estimators": model.n_estimators,
            "max_depth": model.max_depth,
            "max_features": model.max_features,
            "min_samples_leaf": model.min_samples_leaf,
            "seed": model.seed,
        },
    }


def _forest_from_dict(payload: dict) -> RandomForest:
    model = RandomForest(**payload["params"])
    model.classes_ = np.asarray(payload["classes"])
    model.trees_ = [_tree_from_dict(t) for t in payload["trees"]]
    return model


def _subspace_to_dict(model: RandomSubspace) -> dict:
    model._check_fitted()
    return {
        "kind": "random_subspace",
        "classes": model.classes_.tolist(),
        "members": [
            {"features": features.tolist(), "tree": _tree_to_dict(tree)}
            for features, tree in model.members_
        ],
        "params": {
            "n_estimators": model.n_estimators,
            "subspace_fraction": model.subspace_fraction,
            "base_max_depth": model.base_max_depth,
            "seed": model.seed,
        },
    }


def _subspace_from_dict(payload: dict) -> RandomSubspace:
    model = RandomSubspace(**payload["params"])
    model.classes_ = np.asarray(payload["classes"])
    model.members_ = [
        (np.asarray(m["features"], dtype=int), _tree_from_dict(m["tree"]))
        for m in payload["members"]
    ]
    return model


_SERIALISERS = {
    LogisticRegression: _logistic_to_dict,
    DecisionTree: _tree_to_dict,
    RandomForest: _forest_to_dict,
    RandomSubspace: _subspace_to_dict,
}

_DESERIALISERS = {
    "logistic": _logistic_from_dict,
    "decision_tree": _tree_from_dict,
    "random_forest": _forest_from_dict,
    "random_subspace": _subspace_from_dict,
}

#: Every ``kind`` tag the dispatch table accepts.
PERSISTABLE_KINDS: Tuple[str, ...] = tuple(sorted(_DESERIALISERS))


def scaler_to_dict(scaler: StandardScaler) -> dict:
    """Serialise a fitted :class:`StandardScaler` to a JSON-safe dict.

    Zero-variance columns survive exactly: ``fit`` already clamps their
    stored ``std_`` to 1.0, and that clamped value is what round-trips.
    """
    if scaler.mean_ is None or scaler.std_ is None:
        raise RuntimeError("StandardScaler is not fitted")
    return {
        "kind": "standard_scaler",
        "mean": scaler.mean_.tolist(),
        "std": scaler.std_.tolist(),
    }


def scaler_from_dict(payload: dict) -> StandardScaler:
    """Rebuild a :class:`StandardScaler` from :func:`scaler_to_dict` output."""
    kind = payload.get("kind")
    if kind != "standard_scaler":
        raise ValueError(f"expected kind 'standard_scaler', got {kind!r}")
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(payload["mean"], dtype=float)
    scaler.std_ = np.asarray(payload["std"], dtype=float)
    return scaler


def classifier_to_dict(model) -> dict:
    """Serialise a supported fitted classifier to a JSON-safe dict."""
    serialiser = _SERIALISERS.get(type(model))
    if serialiser is None:
        raise TypeError(
            f"cannot serialise {type(model).__name__}; supported: "
            f"{sorted(c.__name__ for c in _SERIALISERS)}"
        )
    return serialiser(model)


def classifier_from_dict(payload: dict):
    """Rebuild a classifier from :func:`classifier_to_dict` output."""
    kind = payload.get("kind")
    deserialiser = _DESERIALISERS.get(kind)
    if deserialiser is None:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return deserialiser(payload)


def save_classifier(model, path: _PathLike) -> None:
    """Write a fitted classifier as a verified artifact (see
    :mod:`repro.artifact`): one hashed ``classifier.json`` member in a
    ``.zip`` (for a ``.zip``/``.npz`` path) or a directory, atomically."""
    member = json.dumps(classifier_to_dict(model)).encode()
    write_artifact(path, {_MEMBER: member}, lambda table: {"members": table})


def load_classifier(path: _PathLike):
    """Load a classifier written by :func:`save_classifier`.

    A changed byte raises :class:`~repro.artifact.ArtifactIntegrityError`
    before anything is parsed. Malformed or unrecognised artifacts raise
    a :class:`ValueError` naming the offending file, so a bad member
    inside a model bundle is identifiable from the exception alone.
    """
    path = Path(path)
    _, members = read_artifact(path)
    if _MEMBER not in members:
        raise ArtifactIntegrityError(f"{path}: artifact has no {_MEMBER} member")
    try:
        payload = json.loads(members[_MEMBER])
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ValueError(f"{path}: not valid classifier JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path}: expected a classifier JSON object, got "
            f"{type(payload).__name__}"
        )
    try:
        return classifier_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
