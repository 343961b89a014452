"""In-memory span recorder for the traced benchmark run.

The traced run wraps public functions of the program at run time (no
file under ``src/`` is edited) so that every call records one span:
name, start, end, parent span and the operation it belongs to. Spans
stay in memory until the run ends, then :meth:`Recorder.dump` writes
them out as JSON lines and :func:`layer_table` derives each layer's
busy time, self time and call count from them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Recorder", "layer_table"]


class Recorder:
    """Collects spans from any thread; wrappers are installed and undone here."""

    def __init__(self):
        # (id, name, start, end, parent, op, attrs); list.append is atomic.
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, op=None, **attrs):
        """Record one span around the ``with`` body, nested under the caller's."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if op is None and parent is not None:
            op = parent[1]
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, op, attrs)
            )

    def record(self, name, start, end, op=None, **attrs):
        """Add a span measured elsewhere (e.g. across threads); it has no parent."""
        self.spans.append((next(self._ids), name, start, end, None, op, attrs))

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement`` until :meth:`unwrap_all`.

        Setting the attribute on a subclass shadows an inherited method
        for that class only, so each layer class gets its own name.
        """
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr, name, attrs_of=None):
        """Patch ``owner.attr`` so that every call records one span.

        ``name`` is a string or a callable of the call's arguments giving
        the span name; ``attrs_of(args, kwargs)`` may add span attributes.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            extra = attrs_of(args, kwargs) if attrs_of else {}
            with self.span(label, **extra):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def unwrap_all(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, **attrs,
                }) + "\n")


def layer_table(spans):
    """Per span name: ``calls``, ``busy_s`` (sum of durations) and ``self_s``.

    A span's self time is its duration minus the time its child spans
    cover. Also returns ``leaf_s``, the total duration of spans that
    have a parent but no children, and ``root_s``, the total duration of
    spans without a parent (the operations' steps).
    """
    child_s = defaultdict(float)
    has_child = set()
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
            has_child.add(parent)
    table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    leaf_s = root_s = 0.0
    for span_id, name, start, end, parent, _, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += (end - start) - child_s[span_id]
        if parent is None:
            root_s += end - start
        elif span_id not in has_child:
            leaf_s += end - start
    return dict(table), leaf_s, root_s
