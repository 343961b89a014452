"""Span-based tracer: nested, exception-safe timing with JSONL export.

A :class:`Span` times one named stage of work; spans nest through a
per-thread stack, so ``trace("cell")`` around a classifier run contains
the ``train`` and ``evaluate`` spans it caused, and an exception inside
a span still records its elapsed time (with ``status="error"``) before
propagating. Finished spans feed their duration into a bound
:class:`~repro.obs.metrics.MetricsRegistry` as a labelled timer, which
is how the per-stage metrics table and the trace stay consistent.

Export formats:

- :meth:`Tracer.export_jsonl` — one JSON object per span (flat records
  with ``span_id``/``parent_id``), machine-readable;
- :meth:`Tracer.render_tree` — a human summary that groups sibling
  spans by name (``render x14  total 0.52s``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "Tracer"]

_SPAN_IDS = itertools.count(1)


@dataclass
class Span:
    """One timed, named, labelled stage of work."""

    name: str
    labels: Dict[str, Any] = field(default_factory=dict)
    span_id: int = 0
    parent_id: Optional[int] = None
    start_wall: float = 0.0
    duration_s: float = 0.0
    status: str = "ok"
    error: Optional[str] = None
    children: List["Span"] = field(default_factory=list)
    _t0: Optional[float] = field(default=None, repr=False, compare=False)

    def elapsed(self) -> float:
        """Seconds since the span opened (final duration once closed)."""
        if self._t0 is not None:
            return time.perf_counter() - self._t0
        return self.duration_s

    def walk(self) -> Iterator["Span"]:
        """This span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_record(self) -> Dict[str, Any]:
        """The span's flat JSONL record (children linked by parent_id)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "labels": {k: _jsonable(v) for k, v in self.labels.items()},
            "start": self.start_wall,
            "duration_s": self.duration_s,
            "status": self.status,
            "error": self.error,
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Collects spans; one per-thread stack provides the nesting.

    Parameters
    ----------
    registry:
        Optional :class:`MetricsRegistry`; every finished span records a
        timer observation named after the span (label ``status`` plus
        the span's own metric labels).
    max_roots:
        ``None`` keeps every finished top-level span (each with its
        subtree), as a worker capture must until it is merged. A number
        keeps a ring of that many recent roots, so a long-lived process's
        per-batch spans hold bounded memory: older roots are dropped and
        counted in :attr:`dropped_roots`, and timer observations are
        recorded either way.
    """

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, max_roots: Optional[int] = None
    ):
        if max_roots is not None and max_roots < 1:
            raise ValueError(f"max_roots must be positive, got {max_roots}")
        self.registry = registry
        self._lock = threading.Lock()
        self._roots: Deque[Span] = deque(maxlen=max_roots)
        self.dropped_roots = 0
        self._local = threading.local()

    # -- span lifecycle -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, metric_labels: Optional[Dict[str, Any]] = None, **labels):
        """Open a span; exception-safe (errors still record elapsed time).

        ``metric_labels`` overrides the labels attached to the registry
        timer (pass ``{}`` to keep high-cardinality labels — fold/epoch
        indices — out of the metrics while keeping them on the trace).
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name=str(name),
            labels=dict(labels),
            span_id=next(_SPAN_IDS),
            parent_id=parent.span_id if parent else None,
            start_wall=time.time(),
        )
        span._t0 = time.perf_counter()
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.duration_s = time.perf_counter() - span._t0
            span._t0 = None
            stack.pop()
            self._attach(span, parent)
            self._observe(span, metric_labels)

    def record(
        self,
        name: str,
        duration_s: float,
        metric_labels: Optional[Dict[str, Any]] = None,
        **labels,
    ) -> Span:
        """Register an externally timed, already-finished span.

        Attached under the innermost open span of the calling thread —
        the hook for callers that measure a stage themselves (e.g. the
        per-epoch training callback).
        """
        parent = self.current()
        span = Span(
            name=str(name),
            labels=dict(labels),
            span_id=next(_SPAN_IDS),
            parent_id=parent.span_id if parent else None,
            start_wall=time.time() - float(duration_s),
            duration_s=float(duration_s),
        )
        self._attach(span, parent)
        self._observe(span, metric_labels)
        return span

    def adopt(self, span: Span, parent: Optional[Span] = None) -> Span:
        """Attach an externally finished span *tree* (e.g. from a worker).

        Worker threads and processes record their spans on private
        tracers (see :func:`repro.obs.runtime.capture_observability`);
        adopting re-parents the finished tree under ``parent`` (or as a
        new root) with fresh span ids, so ids minted by a worker process
        cannot collide with local ones. Timer observations are *not*
        re-recorded — merge the worker's registry instead, which keeps
        the original metric labels intact.
        """
        self._reid(span, parent.span_id if parent is not None else None)
        self._attach(span, parent)
        return span

    def _reid(self, span: Span, parent_id: Optional[int]) -> None:
        span.span_id = next(_SPAN_IDS)
        span.parent_id = parent_id
        for child in span.children:
            self._reid(child, span.span_id)

    def _attach(self, span: Span, parent: Optional[Span]) -> None:
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                if len(self._roots) == self._roots.maxlen:
                    self.dropped_roots += 1
                self._roots.append(span)

    def _observe(self, span: Span, metric_labels: Optional[Dict[str, Any]]) -> None:
        if self.registry is None:
            return
        labels = dict(span.labels if metric_labels is None else metric_labels)
        labels["status"] = span.status
        self.registry.observe(span.name, span.duration_s, **labels)

    # -- inspection ---------------------------------------------------------
    def roots(self) -> List[Span]:
        """Snapshot of the finished top-level spans."""
        with self._lock:
            return list(self._roots)

    def spans(self) -> Iterator[Span]:
        """Every finished span, depth-first from each root."""
        for root in self.roots():
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        """Every finished span with this name."""
        return [s for s in self.spans() if s.name == name]

    def span_names(self) -> List[str]:
        return sorted({s.name for s in self.spans()})

    def clear(self) -> None:
        """Drop finished spans (open spans on any thread are unaffected)."""
        with self._lock:
            self._roots.clear()
            self.dropped_roots = 0

    # -- export -------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The whole trace as JSON Lines (one flat record per span)."""
        return "\n".join(json.dumps(s.to_record()) for s in self.spans())

    def export_jsonl(self, path) -> int:
        """Write the trace to ``path``; returns the number of spans."""
        records = self.to_jsonl()
        with open(path, "w") as fh:
            if records:
                fh.write(records + "\n")
        return records.count("\n") + 1 if records else 0

    def render_tree(self, max_depth: int = 6) -> str:
        """Human summary: sibling spans grouped by name at each level."""
        lines: List[str] = []
        self._render_level(self.roots(), 0, max_depth, lines)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def _render_level(
        self, spans: List[Span], depth: int, max_depth: int, lines: List[str]
    ) -> None:
        if not spans or depth >= max_depth:
            return
        groups: Dict[str, List[Span]] = {}
        for span in spans:
            groups.setdefault(span.name, []).append(span)
        indent = "  " * depth
        for name, members in groups.items():
            total = sum(s.duration_s for s in members)
            errors = sum(1 for s in members if s.status != "ok")
            if len(members) == 1:
                span = members[0]
                extra = "".join(f" {k}={v}" for k, v in span.labels.items())
                line = f"{indent}{name}{extra}  {span.duration_s:.3f}s"
            else:
                longest = max(s.duration_s for s in members)
                line = (
                    f"{indent}{name} x{len(members)}  total {total:.3f}s  "
                    f"max {longest:.3f}s"
                )
            if errors:
                line += f"  [{errors} error{'s' if errors > 1 else ''}]"
            lines.append(line)
            children = [c for s in members for c in s.children]
            self._render_level(children, depth + 1, max_depth, lines)
