"""Stratified k-fold cross-validation with a parallel fold engine.

The paper evaluates the Weka classifiers with an 80/20 split and 10-fold
cross-validation (Section IV-D1); the ear-speaker confusion matrix of
Fig. 6b is explicitly 10-fold.

Folds are independent, so — mirroring the collection engine — they fan
out over the shared executor contract of :mod:`repro.parallel`:
``serial`` (the reference path), ``thread`` and ``process`` produce
*identical* per-fold results at any worker count, because each fold's
model is a fresh clone with a deterministic per-fold seed that depends
only on the fold index. The folds run through
:meth:`repro.parallel.ExecutorPool.map_traced` on every executor, serial
included: each fold's ``fold`` → ``train``/``evaluate`` spans are
captured and re-parented under the caller's open span, so the trace
nests identically in all three modes, and a failing fold raises only
after every fold's spans have been merged.
"""

from __future__ import annotations

import warnings
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.ml.base import Classifier
from repro.ml.metrics import accuracy_score, confusion_matrix
from repro.obs import trace, tracer
from repro.parallel import ExecutorPool, results_or_raise

__all__ = ["StratifiedKFold", "cross_val_score", "cross_val_confusion"]


class StratifiedKFold:
    """Yield (train_idx, test_idx) pairs with per-class balance.

    When the class counts are too small to populate every fold (e.g. a
    two-member class under ``n_splits=10``), the empty folds are skipped
    with a :class:`RuntimeWarning` — or, with ``strict=True``, a
    :class:`ValueError` — instead of silently yielding fewer folds.
    """

    def __init__(
        self,
        n_splits: int = 10,
        seed: int = 0,
        shuffle: bool = True,
        strict: bool = False,
    ):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = int(n_splits)
        self.seed = int(seed)
        self.shuffle = bool(shuffle)
        self.strict = bool(strict)

    def split(self, y) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        y = np.asarray(y)
        n = y.shape[0]
        if n < self.n_splits:
            raise ValueError(f"cannot make {self.n_splits} folds from {n} samples")
        rng = np.random.default_rng(self.seed)
        fold_of = np.empty(n, dtype=int)
        for label in np.unique(y):
            members = np.flatnonzero(y == label)
            if self.shuffle:
                rng.shuffle(members)
            for pos, idx in enumerate(members):
                fold_of[idx] = pos % self.n_splits
        occupancy = np.bincount(fold_of, minlength=self.n_splits)
        n_empty = int(np.sum(occupancy == 0))
        if n_empty:
            message = (
                f"StratifiedKFold: only {self.n_splits - n_empty} of "
                f"{self.n_splits} folds can be populated from the class "
                f"sizes at hand; the largest class has "
                f"{int(np.max(np.bincount(fold_of)))} members"
            )
            if self.strict:
                raise ValueError(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        for fold in range(self.n_splits):
            test_mask = fold_of == fold
            if not test_mask.any():
                continue
            yield np.flatnonzero(~test_mask), np.flatnonzero(test_mask)


# ---------------------------------------------------------------------------
# Fold engine
# ---------------------------------------------------------------------------


def _clone_for_fold(classifier: Classifier, fold: int, seed: int) -> Classifier:
    """A fresh unfitted clone with a deterministic per-fold seed.

    Classifiers that carry a ``seed``/``rng_seed`` parameter get a value
    derived only from ``(their seed, the crossval seed, fold)``, so the
    per-fold models are decorrelated yet byte-identical under any
    executor and worker count.
    """
    model = classifier.clone()
    for attr in ("seed", "rng_seed"):
        if hasattr(model, attr):
            base = int(getattr(model, attr))
            setattr(model, attr, (base * 1000003 + seed * 7919 + fold) & 0x7FFFFFFF)
    return model


def _run_fold(task) -> np.ndarray:
    """One fold's task (module-level, hence picklable): train a fold
    clone and return its held-out predictions (traced)."""
    classifier, X, y, train_idx, test_idx, fold, seed = task
    with trace("fold", fold=fold, metric_labels={}):
        model = _clone_for_fold(classifier, fold, seed)
        with trace("train", metric_labels={"context": "crossval"}):
            model.fit(X[train_idx], y[train_idx])
        with trace("evaluate", metric_labels={"context": "crossval"}):
            return model.predict(X[test_idx])


def _cross_val_folds(
    classifier: Classifier,
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int,
    seed: int,
    n_jobs: int,
    executor: Optional[str],
    pool: Optional[ExecutorPool],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Run every fold and return ``[(test_idx, predictions), ...]``.

    The folds go through :meth:`ExecutorPool.map_traced` on every
    executor: each fold's spans are re-parented under the caller's
    current span and its metrics merged, then the first fold error (if
    any) is raised once the trace is complete.
    """
    folds = list(StratifiedKFold(n_splits, seed).split(y))
    owns_pool = pool is None
    if pool is None:
        pool = ExecutorPool(n_jobs=n_jobs, executor=executor)
    try:
        tasks = [
            (classifier, X, y, train_idx, test_idx, fold, seed)
            for fold, (train_idx, test_idx) in enumerate(folds)
        ]
        outcomes = pool.map_traced(_run_fold, tasks, parent=tracer().current())
        predictions = results_or_raise(outcomes)
        return [(test_idx, p) for (_, test_idx), p in zip(folds, predictions)]
    finally:
        if owns_pool:
            pool.close()


def cross_val_score(
    classifier: Classifier,
    X,
    y,
    n_splits: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    pool: Optional[ExecutorPool] = None,
) -> List[float]:
    """Per-fold accuracies of a fresh clone of ``classifier``.

    ``n_jobs``/``executor`` fan the folds out over the shared executor
    contract (see :mod:`repro.parallel`); fold scores are identical at
    any worker count. Pass an existing :class:`ExecutorPool` as ``pool``
    to reuse its workers across several cross-validations.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    results = _cross_val_folds(
        classifier, X, y, n_splits, seed, n_jobs, executor, pool
    )
    return [
        accuracy_score(y[test_idx], predictions)
        for test_idx, predictions in results
    ]


def cross_val_confusion(
    classifier: Classifier,
    X,
    y,
    n_splits: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    pool: Optional[ExecutorPool] = None,
):
    """Pooled out-of-fold confusion matrix (the paper's Fig. 6b protocol).

    Returns ``(matrix, labels, accuracy)`` where the matrix pools every
    fold's held-out predictions. Parallelises exactly like
    :func:`cross_val_score`.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    predictions = np.empty(y.shape, dtype=y.dtype)
    results = _cross_val_folds(
        classifier, X, y, n_splits, seed, n_jobs, executor, pool
    )
    for test_idx, fold_predictions in results:
        predictions[test_idx] = fold_predictions
    matrix, labels = confusion_matrix(y, predictions, labels=np.unique(y))
    return matrix, labels, accuracy_score(y, predictions)
