"""Property-based tests (hypothesis) for the observability layer.

The registry's merge must be a commutative monoid — that is what makes
combining per-worker registries safe in any order — and the engine's
:class:`CollectionStats` must be a faithful view of the same algebra.
Values are generated as integer-valued floats so additions are exact
and the algebraic laws can be asserted with ``==``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.engine import _COUNTER_FIELDS, _TIMER_FIELDS, CollectionStats
from repro.obs import MetricsRegistry, Tracer

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


# -- CollectionStats <-> registry agreement ---------------------------------

_COUNTS = st.integers(min_value=0, max_value=500)
_SECONDS = st.integers(min_value=0, max_value=1000).map(float)

stats_records = st.builds(
    CollectionStats,
    renders=_COUNTS,
    transmits=_COUNTS,
    regions_detected=_COUNTS,
    regions_used=_COUNTS,
    n_played=_COUNTS,
    cache_hits=_COUNTS,
    cache_misses=_COUNTS,
    render_s=_SECONDS,
    transmit_s=_SECONDS,
    detect_s=_SECONDS,
    product_s=_SECONDS,
    total_s=_SECONDS,
    n_jobs=st.integers(min_value=1, max_value=16),
    executor=st.sampled_from(["serial", "thread", "process"]),
)

_NUMERIC_FIELDS = (
    "renders", "transmits", "regions_detected", "regions_used", "n_played",
    "cache_hits", "cache_misses",
    "render_s", "transmit_s", "detect_s", "product_s", "total_s",
)


def _recorded(stats: CollectionStats) -> MetricsRegistry:
    """The registry of a pass that recorded exactly ``stats``."""
    registry = MetricsRegistry()
    for name in _COUNTER_FIELDS:
        if getattr(stats, name):
            registry.count(name, getattr(stats, name))
    for name, timer in _TIMER_FIELDS.items():
        if getattr(stats, name):
            registry.observe(timer, getattr(stats, name), status="ok")
    registry.gauge("engine.n_jobs", stats.n_jobs, executor=stats.executor)
    return registry


class TestStatsRegistryAgreement:
    @given(stats_records, stats_records)
    @settings(max_examples=50, deadline=None)
    def test_merged_registries_sum_fieldwise(self, a, b):
        view = CollectionStats.from_registry(_recorded(a).merge(_recorded(b)))

        for field in _NUMERIC_FIELDS:
            assert getattr(view, field) == getattr(a, field) + getattr(b, field), field
        # The pool reads as the widest one either pass ran.
        assert view.n_jobs == max(a.n_jobs, b.n_jobs)
        if a.n_jobs != b.n_jobs:
            assert view.executor == (a if a.n_jobs > b.n_jobs else b).executor

    @given(stats_records)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_through_registry(self, stats):
        view = CollectionStats.from_registry(_recorded(stats))
        for field in _NUMERIC_FIELDS:
            assert getattr(view, field) == getattr(stats, field), field
        assert view.n_jobs == stats.n_jobs
        assert view.executor == stats.executor
