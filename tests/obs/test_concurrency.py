"""Concurrency guarantees: no lost increments, no double publishes."""

import threading

import pytest

from repro.attack.engine import collect_datasets
from repro.obs import MetricsRegistry, Tracer, metrics, reset_observability, tracer

N_THREADS = 8
N_OPS = 2500


class TestRegistryUnderContention:
    def test_no_lost_counter_increments(self):
        reg = MetricsRegistry()
        barrier = threading.Barrier(N_THREADS)

        def hammer(worker: int) -> None:
            barrier.wait()
            for _ in range(N_OPS):
                reg.count("hits")
                reg.count("hits", 1, worker=worker)
                reg.observe("stage", 0.001)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == N_THREADS * N_OPS
        assert reg.counter_total("hits") == 2 * N_THREADS * N_OPS
        stat = reg.timer("stage")
        assert stat.count == N_THREADS * N_OPS
        assert stat.total_s == pytest.approx(N_THREADS * N_OPS * 0.001)

    def test_concurrent_merges_lose_nothing(self):
        target = MetricsRegistry()
        sources = []
        for i in range(N_THREADS):
            reg = MetricsRegistry()
            reg.count("hits", N_OPS)
            reg.observe("stage", 0.5, worker=i)
            sources.append(reg)
        threads = [
            threading.Thread(target=target.merge, args=(reg,)) for reg in sources
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.counter_value("hits") == N_THREADS * N_OPS
        assert target.timer_total("stage").count == N_THREADS

    def test_tracer_spans_from_many_threads(self):
        tracer = Tracer(registry=MetricsRegistry())
        barrier = threading.Barrier(N_THREADS)

        def work() -> None:
            barrier.wait()
            for _ in range(50):
                with tracer.span("unit"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every span is a root (each thread has its own empty stack) and
        # none may be lost.
        assert len(tracer.roots()) == N_THREADS * 50
        assert tracer.registry.timer("unit", status="ok").count == N_THREADS * 50


class TestPublishOnce:
    """Regression guards for ``_publish``: one pass, one publication."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_pass_publishes_worker_stats_exactly_once(
        self, tiny_tess, loud_channel, executor
    ):
        specs = tiny_tess.specs[:8]
        reset_observability()
        result = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=3, batch_chunk=3,
            n_jobs=2 if executor != "serial" else 1, executor=executor,
        )
        registry = metrics()
        # Exactly the pass's own counts — a double publish would double them.
        assert registry.counter_total("transmits") == len(specs)
        assert registry.counter_total("renders") == len(specs)
        assert registry.counter_total("n_played") == len(specs)
        assert registry.counter_total("regions_used") == result.spectrograms.images.shape[0]
        # Stage time reached the registry exactly once too (every chunk's
        # captured spans and timers are merged once, from any executor):
        # one observation per chunk span, summing to the spans' time.
        (collect,) = tracer().find("collect")
        for stage in ("render", "transmit"):
            spans = [span for span in collect.walk() if span.name == stage]
            assert len(spans) == 3
            assert registry.timer_total(stage).count == len(spans)
            assert registry.timer_total(stage).total_s == pytest.approx(
                sum(span.duration_s for span in spans)
            )
