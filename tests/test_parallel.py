"""The shared executor pool of :mod:`repro.parallel`."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs import metrics, reset_observability, trace, tracer
from repro.parallel import ExecutorPool, _cores, blas_threads, results_or_raise

EXECUTORS = ["serial", "thread", "process"]


def _square_or_die(x):
    if x < 0:
        os._exit(7)  # the worker process dies without a word
    return x * x


def _traced_square(x):
    """A task with one span and one counter; ``x == 3`` fails."""
    with trace("task", x=x, metric_labels={}):
        if x == 3:
            raise ValueError("three is not allowed")
        metrics().count("tasks_done")
        return x * x


def _blas_threads(_):
    return blas_threads()


def _pool(executor):
    return ExecutorPool(n_jobs=1 if executor == "serial" else 2, executor=executor)


@pytest.fixture()
def fresh_observability():
    reset_observability()
    yield
    reset_observability()


class TestBrokenPool:
    def test_next_map_after_a_worker_death_starts_a_fresh_pool(self):
        with ExecutorPool(n_jobs=2, executor="process") as pool:
            with pytest.raises(BrokenProcessPool):
                pool.map(_square_or_die, [1, -1, 2, 3])
            assert pool.map(_square_or_die, range(4)) == [0, 1, 4, 9]
            assert pool.map(_square_or_die, range(5, 7)) == [25, 36]


class TestBlasBudget:
    def test_process_workers_share_the_cores_and_serial_keeps_the_default(self):
        default = blas_threads()
        if default is None:
            pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
        with ExecutorPool(n_jobs=2, executor="process") as pool:
            assert pool.map(_blas_threads, range(4)) == [max(1, _cores() // 2)] * 4
        assert ExecutorPool(n_jobs=1).map(_blas_threads, range(2)) == [default] * 2
        assert blas_threads() == default


@pytest.mark.usefixtures("fresh_observability")
@pytest.mark.parametrize("executor", EXECUTORS)
class TestMapTraced:
    def test_results_come_back_in_item_order(self, executor):
        items = [5, 1, 4, 2, 0, 6]
        with _pool(executor) as pool:
            outcomes = pool.map_traced(_traced_square, items)
        assert outcomes == [(x * x, None) for x in items]
        assert results_or_raise(outcomes) == [x * x for x in items]

    def test_spans_reparent_under_parent(self, executor):
        with _pool(executor) as pool:
            with trace("dispatch") as root:
                pool.map_traced(_traced_square, [4, 0, 2], parent=root)
        assert [(s.name, s.labels["x"]) for s in root.children] == [
            ("task", 4), ("task", 0), ("task", 2)
        ]
        assert all(s.parent_id == root.span_id for s in root.children)
        assert [s.name for s in tracer().roots()] == ["dispatch"]

    def test_no_parent_merges_as_roots(self, executor):
        with _pool(executor) as pool:
            pool.map_traced(_traced_square, [1, 2])
        assert [(s.name, s.parent_id) for s in tracer().roots()] == [
            ("task", None), ("task", None)
        ]

    def test_exception_comes_back_as_a_value(self, executor):
        with _pool(executor) as pool:
            with trace("dispatch") as root:
                outcomes = pool.map_traced(_traced_square, [1, 3, 4], parent=root)
        assert outcomes[0] == (1, None) and outcomes[2] == (16, None)
        result, error = outcomes[1]
        assert result is None
        assert isinstance(error, ValueError) and "three" in str(error)
        # The failing task's span and the others' spans and counters merged.
        assert [s.status for s in root.children] == ["ok", "error", "ok"]
        assert "three" in root.children[1].error
        assert metrics().counter_total("tasks_done") == 2
        with pytest.raises(ValueError, match="three"):
            results_or_raise(outcomes)

    def test_counters_merge_exactly_once(self, executor):
        items = [0, 1, 2, 4, 5, 6, 7]
        with _pool(executor) as pool:
            pool.map_traced(_traced_square, items)
            pool.map_traced(_traced_square, items[:2])
            assert pool.map_calls == 2 and pool.tasks_run == len(items) + 2
        assert metrics().counter_total("tasks_done") == len(items) + 2
        assert metrics().timer("task", status="ok").count == len(items) + 2
