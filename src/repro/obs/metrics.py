"""Labelled metrics registry: counters, gauges and timers.

One :class:`MetricsRegistry` accumulates every measurement of a run.
Metrics are keyed by ``(name, labels)`` so the same instrument can be
sliced per scenario, per executor, per classifier — the question PR 1's
single process-global counter object could not answer.

Merge semantics are chosen so that :meth:`MetricsRegistry.merge` forms a
commutative monoid (associative, commutative, empty registry as
identity), which is what makes the registry safe to combine across
threads and worker processes in any order:

- **counters** add,
- **timers** add totals, counts and histogram bucket counts, and take
  the max of maxima,
- **gauges** take the maximum (high-water merge).

Every timer keeps a fixed log-spaced histogram (:data:`HIST_RATIO`
apart, a fixed number of buckets whatever the traffic), so
:meth:`TimerStat.quantile` answers p50/p99 of a live server's latencies
within one bucket ratio without retaining any per-request record.

Instances are picklable (the lock is dropped and re-created), so a
process-pool worker can fill a private registry and ship it back to the
parent for merging.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["HIST_RATIO", "MetricKey", "MetricsRegistry", "TimerStat", "metric_key"]

#: Canonical metric key: ``(name, sorted (label, value) pairs)``.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def metric_key(name: str, labels: Dict[str, Any]) -> MetricKey:
    """Canonicalise ``(name, labels)`` into a hashable registry key."""
    return (str(name), tuple(sorted((str(k), str(v)) for k, v in labels.items())))


#: Histogram layout shared by every timer. Bucket 0 holds observations
#: below ``_HIST_LOW`` (zero included); bucket ``i`` in ``1..N`` holds
#: ``[LOW * R**(i-1), LOW * R**i)``; the last bucket holds everything at
#: or above ``LOW * R**N`` (about 12.7 days for seconds).
_HIST_LOW = 1e-6
_HIST_PER_OCTAVE = 8
_HIST_OCTAVES = 40
_HIST_BUCKETS = _HIST_PER_OCTAVE * _HIST_OCTAVES + 2
_HIST_TOP = _HIST_LOW * 2.0**_HIST_OCTAVES
#: Ratio between neighbouring bucket edges; bounds a quantile's relative error.
HIST_RATIO = 2.0 ** (1.0 / _HIST_PER_OCTAVE)


def _bucket(value: float) -> int:
    if not value >= _HIST_LOW:  # NaN lands here too
        return 0
    if value >= _HIST_TOP:
        return _HIST_BUCKETS - 1
    index = int(math.log2(value / _HIST_LOW) * _HIST_PER_OCTAVE) + 1
    return min(index, _HIST_BUCKETS - 2)


@dataclass
class TimerStat:
    """Aggregate of one timer's observations, with a fixed-size histogram."""

    total_s: float = 0.0
    count: int = 0
    max_s: float = 0.0
    buckets: List[int] = field(default_factory=lambda: [0] * _HIST_BUCKETS)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.total_s += seconds
        self.count += 1
        if seconds > self.max_s:
            self.max_s = seconds
        self.buckets[_bucket(seconds)] += 1

    def merge(self, other: "TimerStat") -> None:
        self.total_s += other.total_s
        self.count += other.count
        if other.max_s > self.max_s:
            self.max_s = other.max_s
        self.buckets = [a + b for a, b in zip(self.buckets, other.buckets)]

    def copy(self) -> "TimerStat":
        return TimerStat(self.total_s, self.count, self.max_s, list(self.buckets))

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the observations, read off the histogram.

        Within a factor of :data:`HIST_RATIO` of the exact order
        statistic (the ``ceil(q * count)``-th smallest observation) for
        observations of at least 1 µs; smaller ones read as 0. Never
        above ``max_s``; 0 when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                break
        if index == 0:
            return 0.0
        if index == _HIST_BUCKETS - 1:
            return self.max_s
        middle = _HIST_LOW * HIST_RATIO ** (index - 0.5)
        return min(middle, self.max_s)


class MetricsRegistry:
    """Thread-safe store of labelled counters, gauges and timers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._timers: Dict[MetricKey, TimerStat] = {}

    # -- pickling (process-pool workers ship registries back) ---------------
    def __getstate__(self):
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {k: v.copy() for k, v in self._timers.items()},
            }

    def __setstate__(self, state):
        self._lock = threading.Lock()
        self._counters = dict(state["counters"])
        self._gauges = dict(state["gauges"])
        self._timers = {k: v.copy() for k, v in state["timers"].items()}

    # -- instruments --------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` to the counter ``name`` for this label set."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Record a gauge level (merge keeps the high-water mark)."""
        key = metric_key(name, labels)
        with self._lock:
            current = self._gauges.get(key)
            if current is None or value > current:
                self._gauges[key] = value

    def observe(self, name: str, seconds: float, **labels) -> None:
        """Record one timer observation of ``seconds``."""
        self.observe_many(name, (seconds,), **labels)

    def observe_many(self, name: str, values: Iterable[float], **labels) -> None:
        """Record one timer observation per entry of ``values`` (one key, one lock)."""
        key = metric_key(name, labels)
        with self._lock:
            stat = self._timers.get(key)
            if stat is None:
                stat = self._timers[key] = TimerStat()
            for seconds in values:
                stat.observe(seconds)

    # -- accessors ----------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        """The counter's value for one exact label set (0 if absent)."""
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """The counter summed over every label set."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def counter_group(self, name: str, label: str) -> Dict[str, float]:
        """The counter summed per value of one label (e.g. per tenant).

        Label sets that do not carry ``label`` are ignored, so
        ``counter_group("frontend.requests", "tenant")`` answers exactly
        the multi-tenant question: how much did each tenant submit?
        """
        grouped: Dict[str, float] = {}
        with self._lock:
            for (n, labels), value in self._counters.items():
                if n != name:
                    continue
                for k, v in labels:
                    if k == label:
                        grouped[v] = grouped.get(v, 0) + value
                        break
        return grouped

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        """The gauge level for one exact label set (None if absent)."""
        with self._lock:
            return self._gauges.get(metric_key(name, labels))

    def gauge_max(self, name: str) -> Optional[float]:
        """The highest level of the gauge across every label set."""
        with self._lock:
            values = [v for (n, _), v in self._gauges.items() if n == name]
        return max(values) if values else None

    def timer(self, name: str, **labels) -> TimerStat:
        """The timer aggregate for one exact label set (empty if absent)."""
        with self._lock:
            stat = self._timers.get(metric_key(name, labels))
            return stat.copy() if stat is not None else TimerStat()

    def timer_total(self, name: str) -> TimerStat:
        """The timer aggregated over every label set."""
        merged = TimerStat()
        with self._lock:
            for (n, _), stat in self._timers.items():
                if n == name:
                    merged.merge(stat)
        return merged

    def timer_names(self) -> List[str]:
        with self._lock:
            return sorted({n for n, _ in self._timers})

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges) + len(self._timers)

    def is_empty(self) -> bool:
        return len(self) == 0

    # -- combination --------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place (and return self).

        Associative and commutative, with the empty registry as identity
        — registries filled concurrently can be combined in any order.
        """
        snapshot = other.snapshot()
        with self._lock:
            for key, value in snapshot["counters"].items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in snapshot["gauges"].items():
                current = self._gauges.get(key)
                if current is None or value > current:
                    self._gauges[key] = value
            for key, stat in snapshot["timers"].items():
                mine = self._timers.get(key)
                if mine is None:
                    self._timers[key] = stat.copy()
                else:
                    mine.merge(stat)
        return self

    def copy(self) -> "MetricsRegistry":
        clone = MetricsRegistry()
        return clone.merge(self)

    def snapshot(self) -> Dict[str, Dict]:
        """Point-in-time copy of every metric (plain dicts)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {k: v.copy() for k, v in self._timers.items()},
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    # -- rendering ----------------------------------------------------------
    def _rows(self) -> Iterator[Tuple[str, str, str]]:
        snap = self.snapshot()
        for (name, labels), stat in sorted(
            snap["timers"].items(), key=lambda kv: -kv[1].total_s
        ):
            yield (
                _format_name(name, labels),
                "timer",
                f"n={stat.count} total={stat.total_s:.3f}s "
                f"mean={stat.mean_s * 1e3:.1f}ms p50={stat.quantile(0.5) * 1e3:.1f}ms "
                f"p99={stat.quantile(0.99) * 1e3:.1f}ms max={stat.max_s * 1e3:.1f}ms",
            )
        for (name, labels), value in sorted(snap["counters"].items()):
            yield (_format_name(name, labels), "counter", f"{value:g}")
        for (name, labels), value in sorted(snap["gauges"].items()):
            yield (_format_name(name, labels), "gauge", f"{value:g}")

    def render_table(self) -> str:
        """Human-readable per-stage table (timers first, by total time)."""
        rows = list(self._rows())
        if not rows:
            return "(no metrics recorded)"
        width = max(len(r[0]) for r in rows)
        lines = [f"{'metric':<{width}}  {'kind':<7}  value"]
        lines.extend(f"{n:<{width}}  {k:<7}  {v}" for n, k, v in rows)
        return "\n".join(lines)


def _format_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"
