"""Concurrency guarantees: no lost increments, no double publishes."""

import threading

import pytest

from repro.attack.engine import collect_datasets, global_stats, reset_global_stats
from repro.obs import MetricsRegistry, Tracer

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
        reset_global_stats()
        result = collect_datasets(
            tiny_tess, loud_channel, specs=specs, seed=3,
            n_jobs=2 if executor != "serial" else 1, executor=executor,
        )
        stats = global_stats()
        # Exactly the pass's own counts — a double publish would double them.
        assert stats.transmits == len(specs)
        assert stats.renders == len(specs)
        assert stats.n_played == len(specs)
        assert stats.regions_used == result.stats.regions_used
        # Stage time reached the registry exactly once too (every chunk's
        # captured spans and timers are merged once, from any executor).
        assert stats.render_s == pytest.approx(result.stats.render_s)
        assert stats.transmit_s == pytest.approx(result.stats.transmit_s)
