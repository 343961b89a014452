"""Process-wide observability runtime: the default tracer and registry.

Every layer of the pipeline (engine, eval suite, training loop,
cross-validation) emits spans through :func:`trace` and counters
through :func:`metrics`. The CLI's ``--trace-out`` / ``--metrics``
flags export exactly this state at the end of a run; tests reset it
with :func:`reset_observability`.

Worker capture
--------------

Spans nest through a per-thread stack, so a span opened on a worker
thread (or in a worker process) cannot land under the span that
dispatched the work. :func:`capture_observability` solves this for both
executors the same way: it redirects the *current thread's*
:func:`trace`/:func:`metrics` into a private tracer and registry, the
worker ships the finished :class:`WorkerTrace` back as a plain (and
picklable) value, and the dispatcher folds it into the process-wide
state with :func:`merge_worker_trace` — spans re-parented under the
dispatching span, metrics merged with their original labels.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "metrics",
    "tracer",
    "trace",
    "reset_observability",
    "WorkerTrace",
    "capture_observability",
    "merge_worker_trace",
]

#: Root spans the process tracer keeps: a server records one per batch
#: for as long as it runs, so the process keeps a ring of recent ones.
PROCESS_MAX_ROOTS = 1024

_REGISTRY = MetricsRegistry()
_TRACER = Tracer(registry=_REGISTRY, max_roots=PROCESS_MAX_ROOTS)

#: Per-thread override installed by :func:`capture_observability`.
_ACTIVE = threading.local()


def metrics() -> MetricsRegistry:
    """The current thread's metrics registry (process-wide by default)."""
    override = getattr(_ACTIVE, "registry", None)
    return override if override is not None else _REGISTRY


def tracer() -> Tracer:
    """The current thread's tracer (process-wide by default)."""
    override = getattr(_ACTIVE, "tracer", None)
    return override if override is not None else _TRACER


@contextmanager
def trace(name: str, metric_labels: Optional[Dict[str, Any]] = None, **labels):
    """Open a span on the current tracer (see :meth:`Tracer.span`)."""
    with tracer().span(name, metric_labels=metric_labels, **labels) as span:
        yield span


@dataclass
class WorkerTrace:
    """One worker's finished spans and metrics, ready to ship back.

    Picklable (spans carry only plain values, the registry re-creates
    its lock), so it crosses process boundaries intact.
    """

    roots: List[Span] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


@contextmanager
def capture_observability():
    """Capture this thread's spans/metrics into a private :class:`WorkerTrace`.

    Inside the block, :func:`trace` and :func:`metrics` on *this thread*
    hit a fresh tracer and registry; on exit the yielded
    :class:`WorkerTrace` holds the finished root spans and the filled
    registry (even when the block raises — close your spans with the
    usual ``with trace(...)`` nesting and they are preserved on the
    error path too). Re-entrant: a capture inside a capture restores the
    outer one on exit.
    """
    capture = WorkerTrace()
    local_tracer = Tracer(registry=capture.registry)
    previous = (
        getattr(_ACTIVE, "tracer", None),
        getattr(_ACTIVE, "registry", None),
    )
    _ACTIVE.tracer, _ACTIVE.registry = local_tracer, capture.registry
    try:
        yield capture
    finally:
        _ACTIVE.tracer, _ACTIVE.registry = previous
        capture.roots = local_tracer.roots()


def merge_worker_trace(capture: WorkerTrace, parent: Optional[Span] = None) -> None:
    """Fold a worker's :class:`WorkerTrace` into the current state.

    Spans are adopted (fresh ids) under ``parent`` — or as new roots —
    on the current tracer; the worker registry merges into the current
    registry, so timer observations keep the exact labels the worker
    recorded them with and are counted exactly once.
    """
    metrics().merge(capture.registry)
    tr = tracer()
    for root in capture.roots:
        tr.adopt(root, parent=parent)


def reset_observability() -> None:
    """Clear the process-wide trace and metrics (for tests and the CLI)."""
    _TRACER.clear()
    _REGISTRY.clear()
