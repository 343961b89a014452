"""InferenceServer behaviour: batching transparency, timeouts,
backpressure, graceful degrade and fault isolation
(mirrors tests/attack/test_engine_faults.py for the serving layer).
"""

import threading

import numpy as np
import pytest

from repro.obs import metrics, reset_observability, tracer
from repro.parallel import ExecutorPool
from repro.serve.bundle import load_bundle
from repro.serve.registry import ModelRegistry
from repro.serve.server import (
    InferenceServer,
    ServeError,
    ServeFuture,
    ServeResult,
    ServerOverloaded,
    ServerStopped,
    serve_burst,
)

from tests.serve.conftest import make_blobs


@pytest.fixture()
def registry(packed_bundle):
    reg = ModelRegistry()
    reg.register(packed_bundle)
    return reg


@pytest.fixture()
def clf_registry(packed_classifier_bundle):
    reg = ModelRegistry()
    reg.register(packed_classifier_bundle)
    return reg


class TestBatchingTransparency:
    def test_batched_equals_serial_128_burst(self, registry, packed_bundle):
        """A 128-request burst served batched answers identically to
        serial single-request inference (the acceptance criterion):
        labels are exactly equal; probabilities agree to within BLAS
        batch-shape noise (different batch sizes take different matmul
        blocking paths, so the last ULP can differ)."""
        reset_observability()
        X, _ = make_blobs(n_per_class=43, seed=9)
        rows = list(X[:128])
        bundle = load_bundle(packed_bundle)
        expected = bundle.predict_proba(np.vstack(rows))

        with InferenceServer(
            registry, model="blobs", max_batch=32, max_linger_s=0.005
        ) as server:
            batched = serve_burst(server, rows)
        with InferenceServer(
            registry, model="blobs", max_batch=1, max_linger_s=0.0
        ) as server:
            serial = [server.predict(row) for row in rows]

        assert len(batched) == 128
        assert all(r.ok for r in batched)
        assert all(r.ok for r in serial)
        assert [b.label for b in batched] == [s.label for s in serial]
        for i, (b, s) in enumerate(zip(batched, serial)):
            np.testing.assert_allclose(b.proba, s.proba, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                b.proba, expected[i], rtol=1e-9, atol=1e-12
            )
            assert b.used == "cnn"

    def test_batches_actually_form(self, registry):
        X, _ = make_blobs(n_per_class=20, seed=3)
        with InferenceServer(
            registry, model="blobs", max_batch=16, max_linger_s=0.05
        ) as server:
            results = serve_burst(server, list(X[:48]))
            assert all(r.ok for r in results)
            # 48 requests cannot need 48 batches when they linger.
            assert server.batches_run < 48

    def test_window_requests_match_offline_pipeline(self, registry, packed_bundle):
        from repro.attack.features import extract_features

        rng = np.random.default_rng(0)
        fs = 500.0
        windows = [rng.normal(size=256) for _ in range(6)]
        bundle = load_bundle(packed_bundle)
        rows = np.vstack(
            [np.nan_to_num(extract_features(w, fs), nan=0.0) for w in windows]
        )
        expected = bundle.predict_proba(rows)
        with InferenceServer(registry, model="blobs") as server:
            futures = [server.submit_window(w, fs) for w in windows]
            results = [f.result(timeout=30.0) for f in futures]
        assert all(r.ok for r in results)
        for i, r in enumerate(results):
            np.testing.assert_allclose(
                r.proba, expected[i], rtol=1e-9, atol=1e-12
            )

    def test_mixed_models_in_one_batch(self, packed_bundle, packed_classifier_bundle):
        reg = ModelRegistry()
        reg.register(packed_bundle)
        reg.register(packed_classifier_bundle)
        X, _ = make_blobs(n_per_class=4, seed=2)
        with InferenceServer(
            reg, max_batch=32, max_linger_s=0.05,
            pool=ExecutorPool(n_jobs=2, executor="thread"),
        ) as server:
            futures = [
                server.submit_features(
                    row, model="blobs" if i % 2 else "blobs-clf"
                )
                for i, row in enumerate(X)
            ]
            results = [f.result(timeout=30.0) for f in futures]
        assert all(r.ok for r in results)
        assert {r.model for r in results} == {"blobs", "blobs-clf"}


class TestValidationAndLifecycle:
    def test_submit_before_start_raises(self, registry):
        server = InferenceServer(registry, model="blobs")
        with pytest.raises(ServerStopped):
            server.submit_features(np.zeros(24))

    def test_submit_after_stop_raises(self, registry):
        server = InferenceServer(registry, model="blobs").start()
        server.stop()
        with pytest.raises(ServerStopped):
            server.submit_features(np.zeros(24))

    def test_no_default_model_raises(self, registry):
        with InferenceServer(registry) as server:
            with pytest.raises(ServeError, match="no model"):
                server.submit_features(np.zeros(24))

    def test_bad_payload_shapes_rejected_at_submit(self, registry):
        with InferenceServer(registry, model="blobs") as server:
            with pytest.raises(ValueError, match="1-D feature vector"):
                server.submit_features(np.zeros((2, 24)))
            with pytest.raises(ValueError, match=">= 4 samples"):
                server.submit_window(np.zeros(2), fs=500.0)
            with pytest.raises(ValueError, match="fs must be positive"):
                server.submit_window(np.zeros(64), fs=0.0)

    def test_process_pool_rejected(self, registry):
        pool = ExecutorPool(n_jobs=2, executor="process")
        try:
            with pytest.raises(ValueError, match="serial or thread"):
                InferenceServer(registry, pool=pool)
        finally:
            pool.close()

    def test_constructor_validation(self, registry):
        with pytest.raises(ValueError):
            InferenceServer(registry, max_batch=0)
        with pytest.raises(ValueError):
            InferenceServer(registry, max_linger_s=-1)
        with pytest.raises(ValueError):
            InferenceServer(registry, max_queue=0)


class TestErrorValues:
    """Failures come back as ServeResult values; the server stays up."""

    def test_unknown_model_is_error_value(self, registry):
        with InferenceServer(registry, model="blobs") as server:
            bad = server.submit_features(np.zeros(24), model="nope").result(10.0)
            assert bad.status == "error"
            assert "unknown bundle" in bad.error
            # The server keeps serving afterwards.
            X, _ = make_blobs(n_per_class=1)
            assert server.predict(X[0]).ok

    def test_wrong_feature_width_is_error_value(self, registry):
        with InferenceServer(registry, model="blobs") as server:
            bad = server.submit_features(np.zeros(7)).result(10.0)
            assert bad.status == "error"
            assert "7 entries" in bad.error
            X, _ = make_blobs(n_per_class=1)
            good = server.predict(X[0])
            assert good.ok

    def test_expired_deadline_is_timeout_value(self, registry):
        reset_observability()
        with InferenceServer(registry, model="blobs") as server:
            result = server.submit_features(
                np.zeros(24), timeout_s=0.0
            ).result(10.0)
        assert result.status == "timeout"
        assert result.ok is False
        assert "deadline" in result.error
        assert metrics().counter_total("serve.timeouts") == 1

    def test_backpressure_rejects_when_full(self, clf_registry):
        """A full bounded queue rejects immediately instead of buffering."""
        reset_observability()
        release = threading.Event()
        bundle = clf_registry.get("blobs-clf")
        original = bundle.classifier.predict_proba

        def blocked(X):
            release.wait(timeout=30.0)
            return original(X)

        bundle.classifier.predict_proba = blocked
        X, _ = make_blobs(n_per_class=4)
        server = InferenceServer(
            clf_registry, model="blobs-clf", max_batch=1,
            max_linger_s=0.0, max_queue=2,
        ).start()
        try:
            futures = [server.submit_features(X[0])]  # occupies the batcher
            attempts = 0
            # Fill the queue behind the blocked batch.
            while attempts < 50:
                try:
                    futures.append(server.submit_features(X[0]))
                except ServerOverloaded:
                    break
                attempts += 1
            else:
                pytest.fail("queue never filled")
            assert metrics().counter_value(
                "serve.rejected", reason="overloaded"
            ) >= 1
            release.set()
            results = [f.result(timeout=30.0) for f in futures]
            assert all(r.ok for r in results)  # accepted work still served
        finally:
            release.set()
            server.stop()
            bundle.classifier.predict_proba = original


class TestGracefulDegrade:
    def test_cnn_fault_degrades_to_classifier(self, registry, packed_bundle):
        """A faulting CNN answers through the fallback feature classifier."""
        reset_observability()
        bundle = registry.get("blobs")
        expected = None

        def bomb(X):
            raise RuntimeError("conv kernel fell over")

        original = bundle.cnn.predict_proba
        bundle.cnn.predict_proba = bomb
        try:
            X, _ = make_blobs(n_per_class=4, seed=11)
            in_memory = load_bundle(packed_bundle)
            expected = in_memory.predict_proba_with("classifier", X)
            with InferenceServer(
                registry, model="blobs", max_batch=16, max_linger_s=0.02
            ) as server:
                results = serve_burst(server, list(X))
        finally:
            bundle.cnn.predict_proba = original
        assert all(r.ok for r in results)
        assert all(r.used == "classifier" for r in results)
        for i, r in enumerate(results):
            np.testing.assert_allclose(
                r.proba, expected[i], rtol=1e-9, atol=1e-12
            )
        assert metrics().counter_total("serve.fallbacks") == len(results)

    def test_poison_request_isolated_mid_batch(self, clf_registry):
        """One poison request gets an error value; its batchmates answer,
        and the server stays up (exactly-once, no crash)."""
        reset_observability()
        bundle = clf_registry.get("blobs-clf")
        original = bundle.classifier.predict_proba

        def fragile(X):
            if np.any(np.abs(X) > 1e6):
                raise RuntimeError("activation overflow")
            return original(X)

        bundle.classifier.predict_proba = fragile
        try:
            X, _ = make_blobs(n_per_class=4, seed=13)
            rows = list(X[:7])
            rows.insert(3, np.full(24, 1e9))  # the poison request
            with InferenceServer(
                clf_registry, model="blobs-clf", max_batch=8, max_linger_s=0.05
            ) as server:
                results = serve_burst(server, rows)
                # Server is still healthy for the next request.
                assert server.predict(X[0]).ok
        finally:
            bundle.classifier.predict_proba = original
        assert len(results) == 8
        assert results[3].status == "error"
        assert "activation overflow" in results[3].error
        good = [r for i, r in enumerate(results) if i != 3]
        assert all(r.ok for r in good)
        assert metrics().counter_total("serve.row_isolation") >= 1

    def test_internal_batch_failure_answers_everyone(self, clf_registry):
        """Even a bug in batch assembly answers every future (error value)."""
        server = InferenceServer(clf_registry, model="blobs-clf")

        def explode(batch):
            raise RuntimeError("scheduler bug")

        server._run_batch = explode
        server.start()
        try:
            result = server.submit_features(np.zeros(24)).result(10.0)
        finally:
            server.stop()
        assert result.status == "error"
        assert "internal batch failure" in result.error


class TestObservability:
    def test_traces_and_counters_balance(self, registry):
        """Every request leaves exactly one serve.request timer
        observation and one serve.responses count; batch spans cover
        every request."""
        reset_observability()
        X, _ = make_blobs(n_per_class=8, seed=4)
        rows = list(X)
        with InferenceServer(
            registry, model="blobs", max_batch=8, max_linger_s=0.02
        ) as server:
            results = serve_burst(server, rows)
            accepted = server.requests_accepted
            answered = server.requests_answered
        assert all(r.ok for r in results)
        assert accepted == answered == len(rows)
        reg = metrics()
        assert reg.timer("serve.request", status="ok", model="blobs").count == len(rows)
        assert reg.timer_total("serve.request").count == len(rows)
        batch_spans = tracer().find("serve.batch")
        assert sum(s.labels["n"] for s in batch_spans) == len(rows)
        assert reg.counter_value("serve.responses", status="ok") == len(rows)
        assert reg.counter_total("serve.requests") == len(rows)
        assert reg.counter_total("serve.batches") == len(batch_spans)

    def test_span_retention_is_bounded(self, clf_registry):
        """10k requests leave as many spans as 5k did: the tracer keeps a
        ring of recent batches and counts the batches it let go."""
        reset_observability()
        X, _ = make_blobs(n_per_class=4, seed=5)
        rows = [X[i % len(X)] for i in range(250)]
        spans_at = {}
        with InferenceServer(
            clf_registry, model="blobs-clf", max_batch=1, max_linger_s=0.0
        ) as server:
            for done in range(250, 10_001, 250):
                assert all(r.ok for r in serve_burst(server, rows))
                if done in (5_000, 10_000):
                    spans_at[done] = sum(1 for _ in tracer().spans())
            batches = server.batches_run
        assert batches == 10_000
        assert spans_at[5_000] == spans_at[10_000] > 0
        kept = len(tracer().roots())
        assert tracer().dropped_roots == batches - kept > 0
        assert metrics().timer_total("serve.request").count == 10_000

    def test_failed_requests_balance_too(self, registry):
        reset_observability()
        with InferenceServer(registry, model="blobs") as server:
            server.submit_features(np.zeros(24), model="nope").result(10.0)
            server.submit_features(np.zeros(3)).result(10.0)
        reg = metrics()
        assert reg.timer("serve.request", status="error", model="nope").count == 1
        assert reg.timer("serve.request", status="error", model="blobs").count == 1
        assert reg.timer_total("serve.request").count == 2
        assert reg.counter_value("serve.responses", status="error") == 2

    def test_error_latency_filed_under_its_status(self, registry):
        """An unknown model's answer is timed under status="error", not "ok"."""
        reset_observability()
        with InferenceServer(registry, model="blobs") as server:
            result = server.submit_features(np.zeros(24), model="nope").result(10.0)
        assert result.status == "error"
        reg = metrics()
        assert reg.timer("serve.request", status="error", model="nope").count == 1
        assert reg.timer("serve.request", status="ok", model="nope").count == 0
        assert reg.counter_value(
            "serve.version.responses", model="nope", status="error"
        ) == 1

    def test_raising_done_callback_still_balances_the_books(self, clf_registry):
        """A done-callback that raises mid-group neither strands its
        group-mates nor gets them answered (and counted) a second time."""
        reset_observability()
        X, _ = make_blobs(n_per_class=2, seed=9)
        rows = list(X[:4])

        def explode(result):
            raise RuntimeError("callback bug")

        with InferenceServer(
            clf_registry, model="blobs-clf", max_batch=8, max_linger_s=0.2
        ) as server:
            futures = [server.submit_features(row) for row in rows]
            futures[1].add_done_callback(explode)
            results = [f.result(10.0) for f in futures]
            answered = server.requests_answered
        assert [r.status for r in results] == ["ok"] * len(rows)
        assert answered == len(rows)
        reg = metrics()
        assert reg.counter_value("serve.responses", status="ok") == len(rows)
        assert reg.counter_total("serve.responses") == len(rows)
        assert reg.counter_total("serve.version.responses") == len(rows)
        assert reg.timer_total("serve.request").count == len(rows)


def _result(request_id: int) -> ServeResult:
    return ServeResult(request_id=request_id, status="ok", model="m", label="a")


class TestServeFuture:
    def test_result_after_resolution_needs_no_event(self):
        future = ServeFuture(1)
        assert not future.done()
        result = _result(1)
        future._resolve(result)
        assert future.done()
        assert future.result() is result
        assert future.result(timeout=0.0) is result
        assert future._event is None  # nobody ever blocked

    def test_result_before_resolution_blocks_until_answered(self):
        future = ServeFuture(2)
        result = _result(2)
        timer = threading.Timer(0.05, future._resolve, args=(result,))
        timer.start()
        try:
            assert future.result(timeout=10.0) is result
        finally:
            timer.join()
        assert future.done()

    def test_wait_timeout_raises_and_a_later_answer_still_lands(self):
        future = ServeFuture(3)
        with pytest.raises(ServeError, match="not answered within"):
            future.result(timeout=0.01)
        result = _result(3)
        future._resolve(result)
        assert future.result(timeout=0.0) is result

    def test_callbacks_fire_exactly_once(self):
        future = ServeFuture(4)
        seen = []
        future.add_done_callback(seen.append)
        future.add_done_callback(seen.append)
        result = _result(4)
        future._resolve(result)
        assert seen == [result, result]
        future.add_done_callback(seen.append)  # already done: runs at once
        assert seen == [result, result, result]
        with pytest.raises(AssertionError, match="resolved twice"):
            future._resolve(_result(4))
        assert len(seen) == 3

    def test_resolve_racing_the_first_result_call(self):
        """Resolution and the first blocking result() race from two
        threads; the waiter must never miss the answer."""
        for i in range(300):
            future = ServeFuture(i)
            result = _result(i)
            start = threading.Barrier(2)
            got = []

            def wait():
                start.wait()
                got.append(future.result(timeout=10.0))

            waiter = threading.Thread(target=wait)
            waiter.start()
            start.wait()
            future._resolve(result)
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            assert got == [result]
