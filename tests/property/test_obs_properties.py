"""Property-based tests (hypothesis) for the observability layer.

The registry's merge must be a commutative monoid — that is what makes
combining per-worker registries safe in any order. Values are generated
as integer-valued floats so additions are exact and the algebraic laws
can be asserted with ``==``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, TimerStat, Tracer
from repro.obs.metrics import HIST_RATIO

# -- registry generation ----------------------------------------------------

_NAMES = st.sampled_from(["alpha", "beta", "gamma"])
_LABELS = st.sampled_from([{}, {"k": "1"}, {"k": "2"}, {"k": "1", "j": "x"}])
_VALUES = st.integers(min_value=0, max_value=1000).map(float)

_OPS = st.lists(
    st.tuples(st.sampled_from(["count", "observe", "gauge"]), _NAMES, _LABELS, _VALUES),
    max_size=25,
)


def _build(ops) -> MetricsRegistry:
    reg = MetricsRegistry()
    for kind, name, labels, value in ops:
        getattr(reg, kind)(name, value, **labels)
    return reg


registries = _OPS.map(_build)


class TestMergeMonoid:
    @given(registries, registries)
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, a, b):
        assert a.copy().merge(b).snapshot() == b.copy().merge(a).snapshot()

    @given(registries, registries, registries)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        left = a.copy().merge(b).merge(c)
        right = a.copy().merge(b.copy().merge(c))
        assert left.snapshot() == right.snapshot()

    @given(registries)
    @settings(max_examples=50, deadline=None)
    def test_identity(self, a):
        before = a.snapshot()
        assert a.copy().merge(MetricsRegistry()).snapshot() == before
        assert MetricsRegistry().merge(a).snapshot() == before

    @given(registries)
    @settings(max_examples=50, deadline=None)
    def test_timer_totals_nonnegative(self, a):
        snap = a.snapshot()
        for stat in snap["timers"].values():
            assert stat.total_s >= 0
            assert stat.count >= 0
            assert stat.max_s >= 0
            assert stat.total_s >= stat.max_s


    @given(registries, registries)
    @settings(max_examples=50, deadline=None)
    def test_histogram_buckets_add_under_merge(self, a, b):
        merged = a.copy().merge(b).snapshot()["timers"]
        left, right = a.snapshot()["timers"], b.snapshot()["timers"]
        for key, stat in merged.items():
            empty = TimerStat()
            expected = [
                x + y
                for x, y in zip(left.get(key, empty).buckets, right.get(key, empty).buckets)
            ]
            assert stat.buckets == expected
            assert sum(stat.buckets) == stat.count


# -- timer histogram quantiles ----------------------------------------------

_LATENCIES = st.lists(
    st.floats(min_value=1e-6, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)
_QUANTILES = st.sampled_from([0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0])


class TestTimerQuantiles:
    @given(_LATENCIES, _QUANTILES)
    @settings(max_examples=100, deadline=None)
    def test_relative_error_bounded_by_bucket_ratio(self, values, q):
        stat = TimerStat()
        for value in values:
            stat.observe(value)
        exact = sorted(values)[max(1, math.ceil(q * len(values))) - 1]
        estimate = stat.quantile(q)
        assert exact / HIST_RATIO <= estimate * (1 + 1e-9)
        assert estimate <= exact * HIST_RATIO * (1 + 1e-9)
        assert estimate <= stat.max_s

    @given(_LATENCIES, _LATENCIES, _QUANTILES)
    @settings(max_examples=50, deadline=None)
    def test_merged_quantile_equals_pooled_quantile(self, a, b, q):
        """Merging two timers reads exactly like one timer fed both streams."""
        left, right, pooled = TimerStat(), TimerStat(), TimerStat()
        for value in a:
            left.observe(value)
            pooled.observe(value)
        for value in b:
            right.observe(value)
            pooled.observe(value)
        left.merge(right)
        assert left.buckets == pooled.buckets
        assert left.quantile(q) == pooled.quantile(q)

    @given(_LATENCIES)
    @settings(max_examples=50, deadline=None)
    def test_quantiles_are_monotone(self, values):
        stat = TimerStat()
        for value in values:
            stat.observe(value)
        reads = [stat.quantile(q) for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)]
        assert reads == sorted(reads)


class TestSpanTimerBounds:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_parent_span_at_least_max_child(self, depth, width):
        """A span strictly encloses its children, so its duration (and
        therefore its registry timer total) is >= any child's."""
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)

        def nest(level: int) -> None:
            if level >= depth:
                return
            for _ in range(width):
                with tracer.span(f"level{level + 1}"):
                    nest(level + 1)

        with tracer.span("level0"):
            nest(0)

        for span in tracer.spans():
            assert span.duration_s >= 0
            for child in span.children:
                assert span.duration_s >= child.duration_s
            name = span.name
            assert reg.timer_total(name).total_s >= span.duration_s or np.isclose(
                reg.timer_total(name).total_s, span.duration_s
            )
