"""Unit tests for the labelled metrics registry."""

import pickle

import pytest

from repro.obs import MetricsRegistry, TimerStat, metric_key


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.count("hits")
        reg.count("hits", 4)
        assert reg.counter_value("hits") == 5

    def test_counter_labels_are_separate_series(self):
        reg = MetricsRegistry()
        reg.count("hits", 1, scenario="a")
        reg.count("hits", 2, scenario="b")
        assert reg.counter_value("hits", scenario="a") == 1
        assert reg.counter_value("hits", scenario="b") == 2
        assert reg.counter_value("hits") == 0  # unlabelled series untouched
        assert reg.counter_total("hits") == 3

    def test_gauge_keeps_high_water_mark(self):
        reg = MetricsRegistry()
        reg.gauge("pool", 4)
        reg.gauge("pool", 2)
        assert reg.gauge_value("pool") == 4
        assert reg.gauge_max("pool") == 4
        assert reg.gauge_value("missing") is None

    def test_timer_aggregates(self):
        reg = MetricsRegistry()
        reg.observe("stage", 0.5)
        reg.observe("stage", 1.5)
        stat = reg.timer("stage")
        assert stat.count == 2
        assert stat.total_s == pytest.approx(2.0)
        assert stat.max_s == pytest.approx(1.5)
        assert stat.mean_s == pytest.approx(1.0)

    def test_timer_total_sums_across_labels(self):
        reg = MetricsRegistry()
        reg.observe("stage", 1.0, status="ok")
        reg.observe("stage", 2.0, status="error")
        merged = reg.timer_total("stage")
        assert merged.count == 2
        assert merged.total_s == pytest.approx(3.0)

    def test_timer_quantiles_from_fixed_buckets(self):
        stat = TimerStat()
        assert stat.quantile(0.5) == 0.0  # nothing observed yet
        for ms in range(1, 101):
            stat.observe(ms / 1e3)
        assert stat.quantile(0.5) == pytest.approx(0.050, rel=0.05)
        assert stat.quantile(0.99) == pytest.approx(0.099, rel=0.05)
        assert stat.quantile(1.0) <= stat.max_s == pytest.approx(0.1)
        assert sum(stat.buckets) == stat.count == 100
        with pytest.raises(ValueError):
            stat.quantile(1.5)

    def test_overflow_bucket_reads_the_max(self):
        stat = TimerStat()
        stat.observe(1e9)
        assert stat.quantile(1.0) == 1e9

    def test_timer_memory_is_fixed(self):
        stat = TimerStat()
        size = len(stat.buckets)
        for value in (0.0, 1e-9, float("nan"), 1e-3, 1.0, 1e9):
            stat.observe(value)
        assert len(stat.buckets) == size
        assert stat.buckets[0] == 3  # below the lowest edge: zero and NaN too
        assert stat.buckets[-1] == 1  # beyond the highest edge
        stat.observe(float("inf"))
        assert stat.buckets[-1] == 2
        assert sum(stat.buckets) == stat.count == 7

    def test_observe_many_matches_observe(self):
        one, many = MetricsRegistry(), MetricsRegistry()
        for value in (0.25, 0.5, 2.0):
            one.observe("stage", value, status="ok")
        many.observe_many("stage", [0.25, 0.5, 2.0], status="ok")
        assert one.snapshot() == many.snapshot()

    def test_metric_key_canonicalises_label_order(self):
        assert metric_key("m", {"a": 1, "b": 2}) == metric_key("m", {"b": 2, "a": 1})


class TestMerge:
    def test_merge_returns_self_and_accumulates(self):
        a = MetricsRegistry()
        a.count("hits", 1)
        b = MetricsRegistry()
        b.count("hits", 2)
        b.observe("stage", 1.0)
        b.gauge("pool", 3)
        assert a.merge(b) is a
        assert a.counter_value("hits") == 3
        assert a.timer("stage").count == 1
        assert a.gauge_value("pool") == 3

    def test_merge_identity(self):
        a = MetricsRegistry()
        a.count("hits", 7, scenario="x")
        a.observe("stage", 0.25)
        before = a.snapshot()
        a.merge(MetricsRegistry())
        assert a.snapshot() == before

    def test_copy_is_independent(self):
        a = MetricsRegistry()
        a.count("hits", 1)
        clone = a.copy()
        clone.count("hits", 10)
        assert a.counter_value("hits") == 1
        assert clone.counter_value("hits") == 11

    def test_clear_and_len(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.count("a")
        reg.gauge("b", 1)
        reg.observe("c", 0.1)
        assert len(reg) == 3
        reg.clear()
        assert reg.is_empty()


class TestPickling:
    def test_roundtrip_preserves_metrics(self):
        reg = MetricsRegistry()
        reg.count("hits", 3, scenario="x")
        reg.observe("stage", 0.5)
        reg.gauge("pool", 2)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.snapshot() == reg.snapshot()
        # The rebuilt lock still works.
        clone.count("hits", 1, scenario="x")
        assert clone.counter_value("hits", scenario="x") == 4


class TestRendering:
    def test_render_table_lists_all_kinds(self):
        reg = MetricsRegistry()
        reg.count("transmits", 5)
        reg.observe("render", 0.25, status="ok")
        reg.gauge("engine.n_jobs", 4, executor="thread")
        table = reg.render_table()
        assert "transmits" in table
        assert "render{status=ok}" in table
        assert "engine.n_jobs{executor=thread}" in table
        assert "timer" in table and "counter" in table and "gauge" in table

    def test_render_table_empty(self):
        assert "no metrics" in MetricsRegistry().render_table()

    def test_timerstat_copy(self):
        stat = TimerStat(1.0, 2, 0.75)
        clone = stat.copy()
        clone.observe(5.0)
        assert stat.count == 2 and clone.count == 3
