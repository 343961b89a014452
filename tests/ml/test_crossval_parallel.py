"""Parallel fold-engine tests: executor identity, spans, pool reuse.

The contract under test (mirroring the collection engine): ``serial``,
``thread`` and ``process`` executors produce *identical* per-fold
results at any worker count, worker spans re-parent under the
dispatcher, and the trace stays balanced even when a fold raises.
"""

import numpy as np
import pytest

from repro.ml.crossval import StratifiedKFold, cross_val_confusion, cross_val_score
from repro.ml.forest import RandomForest
from repro.ml.logistic import LogisticRegression
from repro.obs import reset_observability, trace, tracer
from repro.parallel import ExecutorPool


def blobs(n_per_class=30, k=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 4.0, size=(k, 4))
    X = np.vstack(
        [centers[i] + 0.5 * rng.normal(size=(n_per_class, 4)) for i in range(k)]
    )
    y = np.repeat([f"c{i}" for i in range(k)], n_per_class)
    return X, y


SENTINEL = 777.25


class SentinelClassifier(LogisticRegression):
    """Raises when the sentinel-marked sample is held out of training.

    Module-level so the instance pickles for the process executor; with
    the sentinel placed in fold 3's test split, exactly that fold fails.
    """

    def fit(self, X, y):
        if not np.any(np.asarray(X) == SENTINEL):
            raise RuntimeError("sentinel sample held out")
        return super().fit(X, y)


@pytest.fixture(autouse=True)
def _fresh_observability():
    reset_observability()
    yield
    reset_observability()


class TestExecutorIdentity:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_scores_identical_logistic(self, executor):
        X, y = blobs()
        serial = cross_val_score(LogisticRegression(), X, y, n_splits=5)
        parallel = cross_val_score(
            LogisticRegression(), X, y, n_splits=5, n_jobs=2, executor=executor
        )
        assert parallel == serial

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_scores_identical_seeded_forest(self, executor):
        """Per-fold clone seeding must not depend on execution order."""
        X, y = blobs()
        clf = RandomForest(n_estimators=5, max_depth=4, seed=3)
        serial = cross_val_score(clf, X, y, n_splits=4)
        parallel = cross_val_score(
            clf, X, y, n_splits=4, n_jobs=3, executor=executor
        )
        assert parallel == serial

    def test_confusion_identical(self):
        X, y = blobs()
        m_serial, l_serial, a_serial = cross_val_confusion(
            LogisticRegression(), X, y, n_splits=5
        )
        m_par, l_par, a_par = cross_val_confusion(
            LogisticRegression(), X, y, n_splits=5, n_jobs=4, executor="thread"
        )
        np.testing.assert_array_equal(m_par, m_serial)
        assert list(l_par) == list(l_serial)
        assert a_par == a_serial

    def test_worker_count_irrelevant(self):
        X, y = blobs()
        results = [
            cross_val_score(
                LogisticRegression(), X, y, n_splits=5, n_jobs=n, executor="thread"
            )
            for n in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]


class TestWorkerSpans:
    def test_fold_spans_reparent_under_caller(self):
        X, y = blobs()
        with trace("experiment") as root:
            cross_val_score(
                LogisticRegression(), X, y, n_splits=5, n_jobs=2, executor="thread"
            )
        folds = [s for s in root.walk() if s.name == "fold"]
        assert sorted(s.labels["fold"] for s in folds) == [0, 1, 2, 3, 4]
        for span in folds:
            assert span.parent_id == root.span_id
            assert [c.name for c in span.children] == ["train", "evaluate"]

    def test_serial_and_parallel_trace_shapes_match(self):
        X, y = blobs()
        shapes = []
        for kwargs in ({}, {"n_jobs": 2, "executor": "thread"}):
            reset_observability()
            with trace("experiment") as root:
                cross_val_score(
                    LogisticRegression(), X, y, n_splits=4, **kwargs
                )
            shapes.append(sorted((s.name, s.status) for s in root.walk()))
        assert shapes[0] == shapes[1]

    def test_exception_in_fold_keeps_trace_balanced(self):
        """Fold 3 raising must not lose the other folds' spans."""
        _assert_fold_3_fails_after_every_fold_span(n_jobs=2, executor="thread")

    def test_serial_fold_error_raises_after_every_fold_span(self):
        """Serial runs every fold before raising, like the pools do."""
        _assert_fold_3_fails_after_every_fold_span()


def _assert_fold_3_fails_after_every_fold_span(**kwargs):
    X, y = blobs()
    folds = list(StratifiedKFold(5, seed=0).split(y))
    sentinel_row = folds[3][1][0]  # lands in fold 3's test split
    X = X.copy()
    X[sentinel_row, 0] = SENTINEL

    with pytest.raises(RuntimeError, match="sentinel sample held out"):
        with trace("experiment") as root:
            cross_val_score(SentinelClassifier(), X, y, n_splits=5, **kwargs)
    fold_spans = {
        s.labels["fold"]: s for s in root.walk() if s.name == "fold"
    }
    assert sorted(fold_spans) == [0, 1, 2, 3, 4]  # all shipped back
    assert fold_spans[3].status == "error"
    assert "sentinel" in fold_spans[3].error
    for fold, span in fold_spans.items():
        if fold != 3:
            assert span.status == "ok"
    # every span closed: durations recorded, nothing left open
    for span in root.walk():
        assert span._t0 is None
    assert tracer().current() is None


class TestPoolReuse:
    def test_one_pool_many_crossvals(self):
        X, y = blobs()
        serial = cross_val_score(LogisticRegression(), X, y, n_splits=5)
        with ExecutorPool(n_jobs=2, executor="thread") as pool:
            first = cross_val_score(LogisticRegression(), X, y, n_splits=5, pool=pool)
            second = cross_val_score(LogisticRegression(), X, y, n_splits=5, pool=pool)
            assert pool.map_calls == 2
            assert pool.tasks_run == 10
        assert first == serial
        assert second == serial

    def test_borrowed_pool_left_open(self):
        X, y = blobs()
        pool = ExecutorPool(n_jobs=2, executor="thread")
        try:
            cross_val_score(LogisticRegression(), X, y, n_splits=4, pool=pool)
            assert pool.started  # crossval did not tear the borrowed pool down
        finally:
            pool.close()
        assert not pool.started
