"""Shared executor infrastructure for the collection *and* training engines.

PR 1's collection engine established the executor contract — ``serial``
(the reference path), ``thread`` and ``process``, selected by name or
defaulted from ``n_jobs``, with results byte-identical at any worker
count. This module hoists that contract out of
:mod:`repro.attack.engine` so the training/evaluation layers
(:mod:`repro.ml.crossval`, :mod:`repro.eval.suite`) can reuse it, and
adds :class:`ExecutorPool`: a *persistent* pool that a table run creates
once and every cell reuses, instead of paying pool start-up per cell.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "EXECUTOR_NAMES",
    "ExecutorPool",
    "resolve_executor",
    "run_tasks",
]

EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "thread", "process")


def resolve_executor(n_jobs: int, executor: Optional[str]) -> str:
    """Canonical executor name for an ``(n_jobs, executor)`` request.

    ``executor=None`` selects ``serial`` for ``n_jobs <= 1`` and
    ``thread`` otherwise.
    """
    if executor is None:
        return "serial" if n_jobs <= 1 else "thread"
    key = str(executor).lower().strip()
    if key not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {executor!r}; available: {EXECUTOR_NAMES}"
        )
    return key


class ExecutorPool:
    """A reusable worker pool with the engine's executor semantics.

    The underlying :class:`concurrent.futures` pool is created lazily on
    the first parallel :meth:`map` and *kept alive* across calls — the
    point of the class: one table run shares a single pool across all of
    its cells (and their cross-validation folds) rather than spinning a
    fresh pool per cell. Use as a context manager, or call
    :meth:`close` explicitly; the serial pool needs no cleanup.

    ``map_calls`` / ``tasks_run`` count usage so tests (and the
    benchmark harness) can assert the pool really was shared.
    """

    def __init__(self, n_jobs: int = 1, executor: Optional[str] = None):
        self.n_jobs = max(1, int(n_jobs))
        self.executor = resolve_executor(n_jobs, executor)
        self._pool: Optional[Executor] = None
        self.map_calls = 0
        self.tasks_run = 0

    # -- lifecycle ----------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            if self.executor == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.n_jobs)
            else:  # process
                self._pool = ProcessPoolExecutor(max_workers=self.n_jobs)
        return self._pool

    @property
    def is_parallel(self) -> bool:
        return self.executor != "serial" and self.n_jobs > 1

    @property
    def started(self) -> bool:
        """Whether the underlying worker pool has been created."""
        return self._pool is not None

    def close(self) -> None:
        """Shut the underlying pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ----------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> List:
        """Run ``fn`` over ``items``, preserving order.

        Serial (or single-item) inputs run inline on the calling thread;
        otherwise work goes through the persistent pool. For the
        ``process`` executor ``fn`` and every item must be picklable.
        A worker process that dies breaks the whole pool: the map raises
        :class:`BrokenProcessPool` and the next map starts a fresh pool.
        """
        items = list(items)
        self.map_calls += 1
        self.tasks_run += len(items)
        if not self.is_parallel or len(items) <= 1:
            return [fn(item) for item in items]
        try:
            return list(self._ensure_pool().map(fn, items))
        except BrokenProcessPool:
            self.close()
            raise


def run_tasks(
    fn: Callable,
    items: Sequence,
    n_jobs: int = 1,
    executor: Optional[str] = None,
) -> List:
    """One-shot :meth:`ExecutorPool.map` (pool torn down afterwards)."""
    with ExecutorPool(n_jobs=n_jobs, executor=executor) as pool:
        return pool.map(fn, items)
