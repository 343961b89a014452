"""Concurrency hammer: many submitter threads against one server.

Follows tests/obs/test_concurrency.py — barrier-synchronised threads,
then assert nothing was lost, duplicated, or answered twice.
"""

import threading

import numpy as np
import pytest

from repro.obs import metrics, reset_observability, tracer
from repro.parallel import ExecutorPool
from repro.serve.bundle import load_bundle
from repro.serve.registry import ModelRegistry
from repro.serve.server import InferenceServer, ServerOverloaded

from tests.serve.conftest import make_blobs

N_THREADS = 8
N_PER_THREAD = 25


@pytest.fixture()
def hammer_setup(packed_bundle, packed_classifier_bundle):
    registry = ModelRegistry()
    registry.register(packed_bundle)
    registry.register(packed_classifier_bundle)
    X, _ = make_blobs(n_per_class=80, seed=21)
    return registry, X


class TestHammer:
    def test_every_request_answered_exactly_once(
        self, hammer_setup, packed_bundle
    ):
        """N threads, mixed feature/window requests, two models: every
        request is answered exactly once and feature-request answers are
        identical to serial in-memory inference."""
        reset_observability()
        registry, X = hammer_setup
        bundle = load_bundle(packed_bundle)
        expected = bundle.predict_proba(X)
        barrier = threading.Barrier(N_THREADS)
        results = [None] * N_THREADS
        errors = []
        rng_windows = np.random.default_rng(3)
        windows = [rng_windows.normal(size=128) for _ in range(N_THREADS)]

        server = InferenceServer(
            registry, model="blobs", max_batch=16, max_linger_s=0.002,
            max_queue=1024,
            pool=ExecutorPool(n_jobs=2, executor="thread"),
        ).start()

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                futures = []
                for i in range(N_PER_THREAD):
                    row_idx = (worker * N_PER_THREAD + i) % len(X)
                    if i % 5 == 4:
                        # A sprinkle of raw-window and fallback-model work.
                        futures.append(
                            ("window", None,
                             server.submit_window(windows[worker], fs=500.0)),
                        )
                        futures.append(
                            ("clf", row_idx,
                             server.submit_features(
                                 X[row_idx], model="blobs-clf")),
                        )
                    futures.append(
                        ("features", row_idx,
                         server.submit_features(X[row_idx])),
                    )
                results[worker] = [
                    (kind, idx, f.result(timeout=60.0))
                    for kind, idx, f in futures
                ]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()

        assert errors == []
        flat = [entry for per_thread in results for entry in per_thread]
        n_submitted = len(flat)
        # Exactly-once: one answer per submitted request, ids unique.
        assert server.requests_accepted == n_submitted
        assert server.requests_answered == n_submitted
        ids = [r.request_id for _, _, r in flat]
        assert len(set(ids)) == n_submitted
        assert all(r.ok for _, _, r in flat)
        # Batched answers match serial in-memory inference (labels
        # exactly; probas to within BLAS batch-shape noise).
        for kind, idx, r in flat:
            if kind == "features":
                assert r.label == bundle.labels[int(np.argmax(expected[idx]))]
                np.testing.assert_allclose(
                    r.proba, expected[idx], rtol=1e-9, atol=1e-12
                )
                assert r.model == "blobs"
            elif kind == "clf":
                assert r.model == "blobs-clf"
        # The books balance across every thread and batch.
        assert metrics().timer_total("serve.request").count == n_submitted
        assert sum(
            metrics().timer("serve.request", status="ok", model=model).count
            for model in ("blobs", "blobs-clf")
        ) == n_submitted
        assert metrics().counter_value(
            "serve.responses", status="ok"
        ) == n_submitted
        batch_spans = tracer().find("serve.batch")
        assert sum(s.labels["n"] for s in batch_spans) == n_submitted

    def test_hammer_with_overload_never_loses_an_answer(self, hammer_setup):
        """Under a queue small enough to overload, every *accepted*
        request is still answered exactly once."""
        reset_observability()
        registry, X = hammer_setup
        barrier = threading.Barrier(N_THREADS)
        answered = [0] * N_THREADS
        rejected = [0] * N_THREADS
        errors = []

        server = InferenceServer(
            registry, model="blobs-clf", max_batch=4, max_linger_s=0.0,
            max_queue=8,
        ).start()

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                futures = []
                for i in range(N_PER_THREAD):
                    try:
                        futures.append(
                            server.submit_features(X[(worker + i) % len(X)])
                        )
                    except ServerOverloaded:
                        rejected[worker] += 1
                for f in futures:
                    r = f.result(timeout=60.0)
                    assert r.ok, r.error
                    answered[worker] += 1
            except Exception as exc:  # noqa: BLE001
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()

        assert errors == []
        total = N_THREADS * N_PER_THREAD
        assert sum(answered) + sum(rejected) == total
        assert server.requests_accepted == sum(answered)
        assert server.requests_answered == sum(answered)
        assert metrics().counter_value(
            "serve.responses", status="ok"
        ) == sum(answered)

    def test_hot_swap_under_load(self, hammer_setup, tmp_path, fitted_logistic):
        """Swapping the default version mid-burst never drops a request;
        each answer comes from one of the two versions, never neither."""
        from repro.serve.bundle import ModelBundle, save_bundle

        registry, X = hammer_setup
        v2 = ModelBundle.create("blobs-clf", "2", classifier=fitted_logistic)
        path = tmp_path / "clf-2"
        save_bundle(v2, path)
        registry.register(path)
        registry.set_default("blobs-clf", "1")

        stop_swapping = threading.Event()

        def swapper() -> None:
            flip = False
            while not stop_swapping.is_set():
                registry.set_default("blobs-clf", "2" if flip else "1")
                flip = not flip

        swap_thread = threading.Thread(target=swapper)
        swap_thread.start()
        try:
            with InferenceServer(
                registry, model="blobs-clf", max_batch=8, max_linger_s=0.001
            ) as server:
                futures = [
                    server.submit_features(X[i % len(X)]) for i in range(100)
                ]
                results = [f.result(timeout=60.0) for f in futures]
        finally:
            stop_swapping.set()
            swap_thread.join()
        assert len(results) == 100
        assert all(r.ok for r in results)
