"""Unit tests for the span tracer."""

import json
import time

import pytest

from repro.obs import MetricsRegistry, Tracer


def make_tracer():
    reg = MetricsRegistry()
    return Tracer(registry=reg), reg


class TestSpans:
    def test_nesting_and_durations(self):
        tracer, _ = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.002)
        roots = tracer.roots()
        assert [s.name for s in roots] == ["outer"]
        assert roots[0].children[0].name == "inner"
        assert outer.duration_s >= inner.duration_s > 0
        assert inner.parent_id == outer.span_id

    def test_exception_still_records_span(self):
        tracer, reg = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                time.sleep(0.001)
                raise RuntimeError("boom")
        (span,) = tracer.find("doomed")
        assert span.status == "error"
        assert "RuntimeError: boom" in span.error
        assert span.duration_s > 0
        stat = reg.timer("doomed", status="error")
        assert stat.count == 1 and stat.total_s > 0

    def test_exception_unwinds_stack(self):
        tracer, _ = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("x")
        assert tracer.current() is None
        (outer,) = tracer.find("outer")
        assert outer.status == "error"
        assert outer.children[0].status == "error"

    def test_registry_observation_uses_labels(self):
        tracer, reg = make_tracer()
        with tracer.span("stage", scenario="a"):
            pass
        assert reg.timer("stage", scenario="a", status="ok").count == 1

    def test_metric_labels_override(self):
        tracer, reg = make_tracer()
        with tracer.span("fold", fold=3, metric_labels={}):
            pass
        (span,) = tracer.find("fold")
        assert span.labels == {"fold": 3}  # trace keeps the label...
        assert reg.timer("fold", status="ok").count == 1  # ...metrics drop it

    def test_record_attaches_under_open_span(self):
        tracer, reg = make_tracer()
        with tracer.span("train"):
            tracer.record("train_epoch", 0.01, epoch=0, metric_labels={})
        (train,) = tracer.find("train")
        assert [c.name for c in train.children] == ["train_epoch"]
        assert reg.timer("train_epoch", status="ok").total_s == pytest.approx(0.01)

    def test_elapsed_while_open(self):
        tracer, _ = make_tracer()
        with tracer.span("open") as span:
            time.sleep(0.002)
            live = span.elapsed()
            assert live > 0
        assert span.elapsed() == span.duration_s >= live


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer, _ = make_tracer()
        with tracer.span("outer", scenario="x"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        n_spans = tracer.export_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert n_spans == len(records) == 2
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["labels"] == {"scenario": "x"}
        assert all(r["status"] == "ok" for r in records)

    def test_export_empty_trace(self, tmp_path):
        tracer, _ = make_tracer()
        path = tmp_path / "empty.jsonl"
        assert tracer.export_jsonl(path) == 0
        assert path.read_text() == ""

    def test_render_tree_groups_siblings(self):
        tracer, _ = make_tracer()
        with tracer.span("collect"):
            for _ in range(3):
                with tracer.span("render"):
                    pass
        tree = tracer.render_tree()
        assert "collect" in tree
        assert "render x3" in tree

    def test_render_tree_marks_errors(self):
        tracer, _ = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("x")
        assert "[1 error]" in tracer.render_tree()

    def test_clear_drops_finished_spans(self):
        tracer, _ = make_tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.roots() == []
        assert tracer.render_tree() == "(no spans recorded)"


class TestRootRing:
    def test_keeps_most_recent_roots_and_counts_dropped(self):
        tracer = Tracer(registry=MetricsRegistry(), max_roots=3)
        for i in range(5):
            with tracer.span("root", i=i):
                with tracer.span("child"):
                    pass
        assert [s.labels["i"] for s in tracer.roots()] == [2, 3, 4]
        assert tracer.dropped_roots == 2
        assert len(list(tracer.spans())) == 6
        # Timers see every span, kept or dropped.
        assert tracer.registry.timer_total("root").count == 5
        tracer.clear()
        assert tracer.roots() == [] and tracer.dropped_roots == 0

    def test_unbounded_by_default_and_rejects_empty_ring(self):
        tracer = Tracer()
        for _ in range(2000):
            with tracer.span("unit"):
                pass
        assert len(tracer.roots()) == 2000 and tracer.dropped_roots == 0
        with pytest.raises(ValueError):
            Tracer(max_roots=0)
