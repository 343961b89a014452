"""Shared executor infrastructure for the collection *and* training engines.

PR 1's collection engine established the executor contract — ``serial``
(the reference path), ``thread`` and ``process``, selected by name or
defaulted from ``n_jobs``, with results byte-identical at any worker
count. This module hoists that contract out of
:mod:`repro.attack.engine` so the training/evaluation layers
(:mod:`repro.ml.crossval`, :mod:`repro.eval.suite`) can reuse it, and
adds :class:`ExecutorPool`: a *persistent* pool that a table run creates
once and every cell reuses, instead of paying pool start-up per cell.
It also owns how worker observability travels home: see
:meth:`ExecutorPool.map_traced`, the one traced fan-out. And it owns
the CPU budget: each process worker runs numpy's OpenBLAS on
``max(1, cores // n_jobs)`` threads, so ``n_jobs`` workers that each
start a full-width BLAS pool do not oversubscribe the machine.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import Span, capture_observability, merge_worker_trace

__all__ = [
    "EXECUTOR_NAMES",
    "ExecutorPool",
    "blas_threads",
    "resolve_executor",
    "results_or_raise",
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

    :meth:`map_traced` is the traced fan-out every engine uses;
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
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_jobs,
                    initializer=_set_blas_threads,
                    initargs=(max(1, _cores() // self.n_jobs),),
                )
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

    def map_traced(self, fn: Callable, items: Sequence, parent: Optional[Span] = None) -> List:
        """:meth:`map` with each ``fn(item)`` under its own
        :func:`~repro.obs.capture_observability`, on every executor.

        An exception from ``fn`` comes back as a value. Every capture is
        merged under ``parent`` (None: as new roots) in submission order,
        so spans and metrics arrive once and the same on all executors,
        also when tasks fail. Returns ``[(result, error), ...]`` in item
        order (see :func:`results_or_raise`).
        """
        outcomes = self.map(partial(_call_captured, fn), items)
        for _, _, capture in outcomes:
            merge_worker_trace(capture, parent=parent)
        return [(result, error) for result, error, _ in outcomes]


def _cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS."""
    import numpy

    package = os.path.dirname(numpy.__file__)
    for pattern in (
        os.path.join(os.path.dirname(package), "numpy.libs", "libscipy_openblas*"),
        os.path.join(package, ".dylibs", "libscipy_openblas*"),
    ):
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            if hasattr(lib, "scipy_openblas_set_num_threads64_"):
                lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
                lib.scipy_openblas_set_num_threads64_.restype = None
                lib.scipy_openblas_get_num_threads64_.argtypes = []
                lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
                return lib
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count (None without numpy's OpenBLAS)."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def _set_blas_threads(n: int) -> None:
    """Process-worker initializer: run this worker's OpenBLAS on ``n`` threads."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(n)


def _call_captured(fn: Callable, item):
    """``(result, error, capture)`` of ``fn(item)``; picklable with ``fn``."""
    result = error = None
    with capture_observability() as capture:
        try:
            result = fn(item)
        except Exception as exc:
            error = exc
    return result, error, capture


def results_or_raise(outcomes: Sequence[Tuple]) -> List:
    """The results of a :meth:`ExecutorPool.map_traced`, or its first error."""
    for _, error in outcomes:
        if error is not None:
            raise error
    return [result for result, _ in outcomes]


def run_tasks(
    fn: Callable,
    items: Sequence,
    n_jobs: int = 1,
    executor: Optional[str] = None,
) -> List:
    """One-shot, untraced :meth:`ExecutorPool.map` (pool torn down afterwards)."""
    with ExecutorPool(n_jobs=n_jobs, executor=executor) as pool:
        return pool.map(fn, items)
