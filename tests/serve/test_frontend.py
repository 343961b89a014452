"""Network front-end: e2e round trips, shedding, isolation, drain."""

from __future__ import annotations

import asyncio
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.obs import metrics, reset_observability, tracer
from repro.parallel import ExecutorPool
from repro.serve import (
    AsyncFrontendClient,
    FrontendClient,
    InferenceServer,
    ModelRegistry,
    ServingFrontend,
    TenantConfig,
)
from repro.serve.frontend import _Connection, _PendingRequest
from repro.serve.protocol import FrameDecoder, encode_message
from repro.serve.server import ServeResult

from tests.serve.conftest import make_blobs


@pytest.fixture()
def clf_registry(packed_classifier_bundle):
    registry = ModelRegistry()
    registry.register(packed_classifier_bundle)
    registry.get("blobs-clf")
    return registry


@pytest.fixture()
def served(clf_registry):
    """A started server + frontend with generous tenant defaults."""
    with InferenceServer(
        clf_registry, model="blobs-clf", max_batch=16, max_linger_s=0.001
    ) as server:
        with ServingFrontend(
            server,
            default_tenant=TenantConfig("default", rate=float("inf"), burst=64.0),
        ) as frontend:
            yield server, frontend


def run_async(coro):
    return asyncio.run(coro)


class TestRoundTrips:
    def test_sync_client_predicts(self, served):
        _, frontend = served
        X, _ = make_blobs(n_per_class=2)
        with FrontendClient("127.0.0.1", frontend.port, tenant="phone-1") as client:
            response = client.predict(X[0])
        assert response["op"] == "result"
        assert response["status"] == "ok"
        assert response["label"].startswith("emo")
        assert len(response["proba"]) == 3
        assert response["latency_s"] > 0

    def test_binary_tensor_request_answers_identically(self, served):
        _, frontend = served
        X, _ = make_blobs(n_per_class=2)
        with FrontendClient("127.0.0.1", frontend.port) as client:
            via_json = client.predict(X[0])
            via_binary = client.predict(X[0], binary=True)
        assert via_binary["label"] == via_json["label"]
        np.testing.assert_allclose(via_binary["proba"], via_json["proba"])

    def test_network_answers_match_direct_serving(self, served):
        """The wire adds transport, never changes predictions."""
        server, frontend = served
        X, _ = make_blobs(n_per_class=4, seed=3)

        async def through_the_wire():
            client = await AsyncFrontendClient(
                "127.0.0.1", frontend.port, tenant="t"
            ).connect()
            try:
                futures = [client.submit(row) for row in X]
                return await asyncio.gather(*futures)
            finally:
                await client.close()

        responses = run_async(through_the_wire())
        direct = [server.predict(row) for row in X]
        assert [r["label"] for r in responses] == [d.label for d in direct]

    def test_raw_window_request_served(self, served):
        _, frontend = served
        rng = np.random.default_rng(0)
        window = rng.normal(size=512)

        async def send_window():
            client = await AsyncFrontendClient("127.0.0.1", frontend.port).connect()
            try:
                return await client.submit(window=window, fs=500.0, binary=True)
            finally:
                await client.close()

        response = run_async(send_window())
        assert response["status"] == "ok"

    def test_ping_pong(self, served):
        _, frontend = served
        with FrontendClient("127.0.0.1", frontend.port) as client:
            assert client.ping()["op"] == "pong"

    def test_backfill_lane_served_when_idle(self, served):
        _, frontend = served
        X, _ = make_blobs(n_per_class=1)
        with FrontendClient("127.0.0.1", frontend.port) as client:
            response = client.predict(X[0], lane="backfill")
        assert response["status"] == "ok"


class TestBadRequests:
    def test_unknown_op_answers_error_and_connection_survives(self, served):
        _, frontend = served
        with FrontendClient("127.0.0.1", frontend.port) as client:
            response = client._roundtrip(
                encode_message({"op": "transmogrify", "id": 1})
            )
            assert response["op"] == "error"
            assert "transmogrify" in response["error"]
            assert client.ping()["op"] == "pong"  # still alive

    def test_bad_payload_answers_error_result(self, served):
        _, frontend = served
        with FrontendClient("127.0.0.1", frontend.port) as client:
            response = client._roundtrip(
                encode_message(
                    {"op": "predict", "id": 2, "kind": "features", "payload": []}
                )
            )
            assert response["status"] == "error"
            assert client.ping()["op"] == "pong"

    def test_unknown_model_answers_error_value(self, served):
        _, frontend = served
        X, _ = make_blobs(n_per_class=1)
        with FrontendClient("127.0.0.1", frontend.port) as client:
            response = client.predict(X[0], model="ghost@9")
        assert response["status"] == "error"

    def test_unknown_lane_rejected(self, served):
        _, frontend = served
        with FrontendClient("127.0.0.1", frontend.port) as client:
            response = client._roundtrip(
                encode_message(
                    {
                        "op": "predict",
                        "id": 3,
                        "lane": "express",
                        "payload": [1.0],
                    }
                )
            )
        assert response["status"] == "error"
        assert "lane" in response["error"]

    def test_chunk_admissions_counted_when_a_later_message_raises(self, served):
        """A predict admitted earlier in a received chunk is counted even
        if a later message in the same chunk raises unexpectedly."""
        reset_observability()
        server, frontend = served

        class ExplodingGate:
            def score(self, **kwargs):
                raise RuntimeError("gate bug")

        X, _ = make_blobs(n_per_class=1)
        chunk = encode_message(
            {"op": "predict", "id": 1, "tenant": "t", "payload": [float(v) for v in X[0]]}
        ) + encode_message(
            {"op": "gate", "id": 2, "config": {
                "rate_cap_hz": 1.0, "lowpass_hz": 1.0, "noise_rms": 0.0, "quant_lsb": 0.0,
            }}
        )
        previous, server.gate = server.gate, ExplodingGate()
        try:
            with socket.create_connection(("127.0.0.1", frontend.port), timeout=10) as sock:
                sock.sendall(chunk)
                sock.settimeout(10.0)
                while sock.recv(65536):  # the handler dies; the server closes
                    pass
            deadline = time.monotonic() + 10.0
            while frontend.answered < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            server.gate = previous
        assert frontend.accepted == frontend.answered == 1
        assert metrics().counter_value("frontend.requests", tenant="t", lane="realtime") == 1


class TestConnectionIsolation:
    def _raw_connect(self, port):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        sock.settimeout(10.0)
        return sock

    def _recv_messages(self, sock):
        decoder = FrameDecoder()
        messages = []
        try:
            while not messages:
                data = sock.recv(65536)
                if not data:
                    break
                messages.extend(decoder.feed(data))
        except socket.timeout:
            pass
        return messages

    def test_garbage_closes_only_the_offending_connection(self, served):
        _, frontend = served
        healthy = FrontendClient("127.0.0.1", frontend.port)
        rogue = self._raw_connect(frontend.port)
        try:
            rogue.sendall(b"\xff" * 64)  # an absurd length prefix
            messages = self._recv_messages(rogue)
            assert messages and messages[0][0]["op"] == "error"
            # The rogue connection is closed by the server...
            assert rogue.recv(65536) == b""
            # ...while the healthy one keeps serving.
            assert healthy.ping()["op"] == "pong"
            X, _ = make_blobs(n_per_class=1)
            assert healthy.predict(X[0])["status"] == "ok"
        finally:
            rogue.close()
            healthy.close()

    def test_oversized_frame_rejected_with_clean_error(self, clf_registry):
        with InferenceServer(
            clf_registry, model="blobs-clf", max_batch=8, max_linger_s=0.001
        ) as server:
            with ServingFrontend(server, max_frame_bytes=1024) as frontend:
                sock = self._raw_connect(frontend.port)
                try:
                    sock.sendall(struct.pack("!I", 1 << 24))
                    messages = self._recv_messages(sock)
                    assert messages
                    assert "exceeds" in messages[0][0]["error"]
                    assert sock.recv(65536) == b""
                finally:
                    sock.close()


class TestLoadShedding:
    def test_rate_limited_tenant_gets_shed_with_retry_hint(self, clf_registry):
        reset_observability()
        with InferenceServer(
            clf_registry, model="blobs-clf", max_batch=8, max_linger_s=0.001
        ) as server:
            with ServingFrontend(
                server,
                tenants=[TenantConfig("greedy", rate=5.0, burst=1.0)],
            ) as frontend:
                X, _ = make_blobs(n_per_class=1)

                async def flood():
                    client = await AsyncFrontendClient(
                        "127.0.0.1", frontend.port, tenant="greedy"
                    ).connect()
                    try:
                        futures = [client.submit(X[0]) for _ in range(6)]
                        return await asyncio.gather(*futures)
                    finally:
                        await client.close()

                responses = run_async(flood())
        statuses = [r["status"] for r in responses]
        assert statuses.count("ok") >= 1  # the burst token
        shed = [r for r in responses if r["status"] == "shed"]
        assert shed, f"nothing shed: {statuses}"
        for response in shed:
            assert response["reason"] == "rate"
            assert 0 < response["retry_after_s"] <= 0.5
        assert (
            metrics().counter_value("frontend.shed", tenant="greedy", reason="rate")
            == len(shed)
        )

    def test_per_tenant_counters_recorded(self, served):
        reset_observability()
        _, frontend = served
        X, _ = make_blobs(n_per_class=1)
        for tenant, n in (("alice", 3), ("bob", 2)):
            with FrontendClient("127.0.0.1", frontend.port, tenant=tenant) as client:
                for _ in range(n):
                    assert client.predict(X[0])["status"] == "ok"
        by_tenant = metrics().counter_group("frontend.requests", "tenant")
        assert by_tenant == {"alice": 3.0, "bob": 2.0}
        answered = metrics().counter_group("frontend.responses", "tenant")
        assert answered == {"alice": 3.0, "bob": 2.0}


class TestBatchedResolution:
    """Answers leave in batches: one drain and one write per connection."""

    def test_frames_identical_and_in_resolution_order(self, served):
        """A pipelined burst on one connection comes back in submission
        order (one tenant, one model: dispatch and resolution follow
        arrival), each frame exactly ``encode_message`` of its dict."""
        _, frontend = served
        X, _ = make_blobs(n_per_class=20, seed=5)
        n = len(X)
        request = b"".join(
            encode_message(
                {"op": "predict", "id": i, "tenant": "t", "payload": [float(v) for v in row]}
            )
            for i, row in enumerate(X)
        )
        raw = bytearray()
        frames = []
        with socket.create_connection(("127.0.0.1", frontend.port), timeout=30) as sock:
            sock.sendall(request)
            while len(frames) < n:
                data = sock.recv(65536)
                assert data, "server closed the connection early"
                raw.extend(data)
                while len(raw) >= 4:
                    (length,) = struct.unpack("!I", raw[:4])
                    if len(raw) < 4 + length:
                        break
                    frames.append(bytes(raw[: 4 + length]))
                    del raw[: 4 + length]
        messages = [FrameDecoder().feed(frame)[0][0] for frame in frames]
        assert [m["id"] for m in messages] == list(range(n))
        assert all(m["status"] == "ok" for m in messages)
        for frame, message in zip(frames, messages):
            assert encode_message(message) == frame

    def test_thousands_of_requests_retain_almost_no_spans(self, clf_registry):
        """Per-request records are timer observations, not retained
        spans: only the per-batch spans stay in the tracer."""
        reset_observability()
        n = 2400
        X, _ = make_blobs(n_per_class=20, seed=6)
        with InferenceServer(
            clf_registry, model="blobs-clf", max_batch=32, max_linger_s=0.005,
            max_queue=1024,
        ) as server:
            with ServingFrontend(
                server,
                default_tenant=TenantConfig("default", burst=1e6, max_backlog=4096),
            ) as frontend:

                async def burst():
                    client = await AsyncFrontendClient(
                        "127.0.0.1", frontend.port, tenant="t"
                    ).connect()
                    try:
                        futures = [client.submit(X[i % len(X)]) for i in range(n)]
                        return await asyncio.gather(*futures)
                    finally:
                        await client.close()

                responses = run_async(burst())
        assert [r["status"] for r in responses] == ["ok"] * n
        spans = list(tracer().spans())
        assert len(spans) / n <= 0.2, f"{len(spans)} spans retained for {n} requests"
        assert {s.name for s in spans} <= {"serve.batch", "serve.predict"}
        reg = metrics()
        assert reg.counter_value("frontend.requests", tenant="t", lane="realtime") == n
        assert reg.counter_value("frontend.responses", tenant="t", status="ok") == n
        assert reg.timer("frontend.request", tenant="t", lane="realtime", status="ok").count == n
        assert reg.timer_total("frontend.request").count == n
        assert reg.timer("serve.request", status="ok", model="blobs-clf").count == n
        assert reg.counter_value("serve.responses", status="ok") == n
        assert reg.counter_total("serve.version.responses") == n
        assert reg.gauge_value("frontend.backlog") >= 1
        assert 1 <= reg.gauge_value("frontend.inflight") <= frontend.max_inflight


    def test_concurrent_resolvers_lose_no_answer(
        self, packed_bundle, packed_classifier_bundle
    ):
        """Group threads of a thread pool hand resolutions over at once,
        with the interpreter switching threads as often as it can: every
        request is answered exactly once and the inflight books close."""
        reset_observability()
        registry = ModelRegistry()
        registry.register(packed_bundle)
        registry.register(packed_classifier_bundle)
        n = 600
        X, _ = make_blobs(n_per_class=20, seed=7)
        pool = ExecutorPool(n_jobs=4, executor="thread")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with InferenceServer(
                registry, model="blobs", max_batch=32, max_linger_s=0.002,
                max_queue=1024, pool=pool,
            ) as server:
                with ServingFrontend(
                    server,
                    default_tenant=TenantConfig("default", burst=1e6, max_backlog=4096),
                ) as frontend:

                    async def burst():
                        clients = [
                            await AsyncFrontendClient(
                                "127.0.0.1", frontend.port, tenant=f"t{k}"
                            ).connect()
                            for k in range(3)
                        ]
                        try:
                            futures = [
                                clients[i % 3].submit(
                                    X[i % len(X)], model=("blobs", "blobs-clf")[i % 2]
                                )
                                for i in range(n)
                            ]
                            return await asyncio.wait_for(asyncio.gather(*futures), 60)
                        finally:
                            for client in clients:
                                await client.close()

                    responses = run_async(burst())
                    inflight = frontend._inflight
        finally:
            sys.setswitchinterval(previous)
            pool.close()
        assert [r["status"] for r in responses] == ["ok"] * n
        assert inflight == 0
        assert frontend.answered == frontend.accepted == n
        reg = metrics()
        assert reg.counter_total("frontend.responses") == n
        assert reg.timer_total("frontend.request").count == n
        assert reg.timer_total("serve.request").count == n

    def test_service_rate_survives_one_large_drain(self, clf_registry):
        """A drain of more answers than the rate window holds still
        prices retry hints: its answers over the time since the last
        drain."""
        server = InferenceServer(clf_registry, model="blobs-clf")
        frontend = ServingFrontend(server)
        frontend._wake = asyncio.Event()

        class _Sink:
            def write(self, data):
                pass

        conn = _Connection(_Sink())

        def drain(n):
            for i in range(n):
                pending = _PendingRequest(
                    conn=conn, msg_id=i, tenant="t", lane="realtime",
                    kind="features", payload=np.zeros(24), fs=None,
                    model=None, timeout_s=None,
                )
                frontend._inflight += 1
                frontend._resolved.append(
                    (pending, ServeResult(request_id=i, status="error", model="m", error="x"))
                )
            frontend._drain_resolved()

        drain(10)
        time.sleep(0.01)
        drain(200)
        (first, _), (last, _) = frontend._completions
        assert frontend._service_rate() == pytest.approx(200 / (last - first))
        assert frontend._service_rate() > 0
        assert frontend._inflight == 0 and frontend.answered == 210


class TestDispatchLiveness:
    def test_preempted_backfill_does_not_livelock_the_event_loop(self, clf_registry):
        """Backfill beyond the preemption limit must not starve the loop.

        Regression: with backfill backlogged, realtime idle, and inflight
        pinned between the backfill limit and ``max_inflight`` by a slow
        backend, the dispatch loop used to spin on ``continue`` without
        awaiting — completion callbacks never ran, so inflight never
        dropped and the whole frontend (pings included) froze.
        """
        bundle = clf_registry.get("blobs-clf")
        original = bundle.classifier.predict_proba

        def slow(X):
            time.sleep(0.05)
            return original(X)

        bundle.classifier.predict_proba = slow
        X, _ = make_blobs(n_per_class=1)
        try:
            with InferenceServer(
                clf_registry, model="blobs-clf", max_batch=2, max_linger_s=0.001
            ) as server:
                frontend = ServingFrontend(
                    server,
                    max_inflight=8,
                    backfill_pressure=0.5,
                    default_tenant=TenantConfig(
                        "default", rate=float("inf"), burst=64.0
                    ),
                ).start()
                try:

                    async def flood_backfill():
                        client = await AsyncFrontendClient(
                            "127.0.0.1", frontend.port
                        ).connect()
                        try:
                            futures = [
                                client.submit(X[0], lane="backfill")
                                for _ in range(6)
                            ]
                            responses = await asyncio.wait_for(
                                asyncio.gather(*futures), timeout=30.0
                            )
                            pong = await asyncio.wait_for(
                                client.ping(), timeout=10.0
                            )
                            return responses, pong
                        finally:
                            await client.close()

                    responses, pong = run_async(flood_backfill())
                finally:
                    # A livelocked loop would also hang stop(); keep the
                    # regression failure a test failure, not a suite hang.
                    stopper = threading.Thread(target=frontend.stop, daemon=True)
                    stopper.start()
                    stopper.join(timeout=15.0)
        finally:
            bundle.classifier.predict_proba = original
        assert [r["status"] for r in responses] == ["ok"] * 6
        assert pong["op"] == "pong"


class TestAsyncClient:
    def test_transport_error_fails_pending_futures(self):
        """An OSError from the socket must resolve in-flight submits."""

        class ExplodingReader:
            async def read(self, n):
                raise ConnectionResetError("peer reset")

        async def scenario():
            client = AsyncFrontendClient("127.0.0.1", 1)
            client._reader = ExplodingReader()
            future = asyncio.get_running_loop().create_future()
            client._pending[1] = future
            await client._read_loop()  # swallows the error, never raises
            with pytest.raises(ConnectionResetError):
                future.result()

        run_async(scenario())


class TestPredictFrames:
    @pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
    def test_both_clients_send_the_same_frame(self, monkeypatch, binary):
        """One frame builder: identical bytes from both clients, encoded
        through the frontend module's ``encode_message`` name."""
        import repro.serve.frontend as frontend_mod

        features = make_blobs(n_per_class=1)[0][0]
        options = dict(lane="batch", model="blobs-clf", timeout_s=2.5, binary=binary)
        encoded = []

        def spy(*args):
            encoded.append(encode_message(*args))
            return encoded[-1]

        monkeypatch.setattr(frontend_mod, "encode_message", spy)

        class Writer:
            def write(self, frame):
                self.frame = frame

        async def submit_async():
            client = AsyncFrontendClient("127.0.0.1", 1, tenant="t1")
            client._writer = Writer()
            client.submit(features, **options)
            return client._writer.frame

        class Socket:
            def sendall(self, frame):
                self.frame = frame

            def recv(self, n):
                return encode_message({"op": "result", "id": 1})

            def close(self):
                pass

        sock = Socket()
        monkeypatch.setattr(socket, "create_connection", lambda *a, **k: sock)
        async_frame = run_async(submit_async())
        with FrontendClient("127.0.0.1", 1, tenant="t1") as client:
            client.predict(features, **options)

        message = {
            "op": "predict", "id": 1, "tenant": "t1", "lane": "batch",
            "model": "blobs-clf", "timeout_s": 2.5, "kind": "features",
        }
        if binary:
            expected = encode_message(message, np.asarray(features, dtype=float))
        else:
            expected = encode_message({**message, "payload": [float(x) for x in features]})
        assert async_frame == sock.frame == expected
        assert encoded == [expected, expected]


class TestGracefulDrain:
    def test_drain_answers_every_accepted_request(self, clf_registry):
        """stop() sheds new work but serves everything already admitted."""
        bundle = clf_registry.get("blobs-clf")
        original = bundle.classifier.predict_proba

        def slow(X):
            time.sleep(0.02)
            return original(X)

        bundle.classifier.predict_proba = slow
        X, _ = make_blobs(n_per_class=1)
        try:
            with InferenceServer(
                clf_registry, model="blobs-clf", max_batch=4, max_linger_s=0.001
            ) as server:
                frontend = ServingFrontend(
                    server,
                    default_tenant=TenantConfig(
                        "default", rate=float("inf"), burst=64.0
                    ),
                ).start()

                async def submit_then_drain():
                    client = await AsyncFrontendClient(
                        "127.0.0.1", frontend.port
                    ).connect()
                    try:
                        futures = [client.submit(X[0]) for _ in range(10)]
                        # Wait until every request is admitted, then drain
                        # from a side thread while answers are in flight.
                        while frontend.accepted < 10:
                            await asyncio.sleep(0.001)
                        stopper = threading.Thread(target=frontend.stop)
                        stopper.start()
                        responses = await asyncio.gather(*futures)
                        stopper.join()
                        return responses
                    finally:
                        await client.close()

                responses = run_async(submit_then_drain())
        finally:
            bundle.classifier.predict_proba = original
        assert len(responses) == 10
        assert all(r["status"] == "ok" for r in responses)
        assert frontend.accepted == frontend.answered == 10

    def test_expired_drain_deadline_keeps_batcher_alive(self, clf_registry):
        """A result arriving after the loop closed must not kill the batcher.

        When stop()'s deadline expires with a request still inflight, the
        ServeFuture done-callback fires on the batcher thread after
        asyncio.run has closed the loop; it must swallow the dead-loop
        RuntimeError (add_done_callback's never-raise contract) so the
        server keeps serving.
        """
        bundle = clf_registry.get("blobs-clf")
        original = bundle.classifier.predict_proba
        release = threading.Event()

        def blocked(X):
            release.wait(10.0)
            return original(X)

        bundle.classifier.predict_proba = blocked
        X, _ = make_blobs(n_per_class=1)
        try:
            with InferenceServer(
                clf_registry, model="blobs-clf", max_batch=4, max_linger_s=0.2
            ) as server:
                frontend = ServingFrontend(server, drain_timeout_s=0.05).start()

                async def fire_and_forget():
                    client = await AsyncFrontendClient(
                        "127.0.0.1", frontend.port
                    ).connect()
                    try:
                        # Two requests so they linger into ONE blocked
                        # batch: both done-callbacks then fire against
                        # the closed loop, exercising the batch-fault
                        # path as well as the direct one.
                        futures = [client.submit(X[0]) for _ in range(2)]
                        while frontend._inflight < 2:
                            await asyncio.sleep(0.001)
                        for future in futures:
                            future.cancel()  # only the server side matters
                    finally:
                        await client.close()

                run_async(fire_and_forget())
                frontend.stop()  # deadline expires with requests inflight
                release.set()  # now the done-callbacks fire on a closed loop
                bundle.classifier.predict_proba = original
                # A dead batcher surfaces as a ServeError wait timeout here.
                assert server.predict(X[0], timeout_s=2.0).status == "ok"
        finally:
            bundle.classifier.predict_proba = original
            release.set()

    def test_requests_after_drain_are_shed_as_draining(self, served):
        server, frontend = served
        X, _ = make_blobs(n_per_class=1)
        frontend.admission.start_draining()
        with FrontendClient("127.0.0.1", frontend.port) as client:
            response = client.predict(X[0])
        assert response["status"] == "shed"
        assert response["reason"] == "draining"

    def test_stop_is_idempotent(self, clf_registry):
        with InferenceServer(
            clf_registry, model="blobs-clf", max_batch=4, max_linger_s=0.001
        ) as server:
            frontend = ServingFrontend(server).start()
            frontend.stop()
            frontend.stop()  # no-op, no error


class TestDispatcherSupervision:
    @staticmethod
    def _fail_submit_on_call(frontend, n):
        """Make the dispatcher's ``n``-th hand-over raise (once)."""
        original = frontend._submit_entry
        calls = []

        def submit(entry):
            calls.append(entry)
            if len(calls) == n:
                raise RuntimeError("injected dispatcher fault")
            original(entry)

        frontend._submit_entry = submit

    def test_dead_dispatcher_answers_and_sheds(self, clf_registry):
        """A dispatcher that raises must not leave its client hanging."""
        reset_observability()
        X, _ = make_blobs(n_per_class=1)
        with InferenceServer(
            clf_registry, model="blobs-clf", max_batch=4, max_linger_s=0.001
        ) as server:
            frontend = ServingFrontend(server, drain_timeout_s=10.0)
            self._fail_submit_on_call(frontend, 1)
            frontend.start()
            try:
                with FrontendClient("127.0.0.1", frontend.port, timeout_s=5.0) as client:
                    t0 = time.perf_counter()
                    response = client.predict(X[0])
                    waited = time.perf_counter() - t0
                    after = client.predict(X[0])
            finally:
                t0 = time.perf_counter()
                frontend.stop()
                stop_s = time.perf_counter() - t0
        assert response["status"] == "error"
        assert "injected dispatcher fault" in response["error"]
        assert waited < 1.0
        assert after["status"] == "shed"
        assert after["reason"] == "dispatcher_failed"
        assert metrics().counter_total("frontend.dispatcher_failures") == 1
        assert stop_s < 1.0  # the drain deadline is 10 s
        assert frontend.answered == frontend.accepted == 1

    def test_queued_and_inflight_requests_answered_once(self, clf_registry):
        """In-flight requests get their error now; their late server
        answers are dropped, so every request is answered exactly once."""
        reset_observability()
        bundle = clf_registry.get("blobs-clf")
        original = bundle.classifier.predict_proba
        release = threading.Event()

        def blocked(X):
            release.wait(10.0)
            return original(X)

        bundle.classifier.predict_proba = blocked
        X, _ = make_blobs(n_per_class=1)
        try:
            with InferenceServer(
                clf_registry, model="blobs-clf", max_batch=1, max_linger_s=0.001
            ) as server:
                frontend = ServingFrontend(
                    server,
                    default_tenant=TenantConfig("default", rate=float("inf"), burst=64.0),
                    drain_timeout_s=10.0,
                )
                self._fail_submit_on_call(frontend, 3)
                frontend.start()

                async def burst():
                    client = await AsyncFrontendClient("127.0.0.1", frontend.port).connect()
                    try:
                        futures = [client.submit(X[0]) for _ in range(5)]
                        return await asyncio.wait_for(asyncio.gather(*futures), 5.0)
                    finally:
                        await client.close()

                responses = run_async(burst())
                release.set()
                time.sleep(0.2)  # the server now answers the two abandoned ones
                t0 = time.perf_counter()
                frontend.stop()
                stop_s = time.perf_counter() - t0
        finally:
            bundle.classifier.predict_proba = original
            release.set()
        statuses = [r["status"] for r in responses]
        assert statuses[:3] == ["error"] * 3
        for r in responses[3:]:
            assert r["status"] == "error" or r["reason"] == "dispatcher_failed"
        assert frontend.answered == frontend.accepted
        assert frontend.accepted + frontend.shed == 5
        assert frontend._inflight == 0
        assert metrics().counter_total("frontend.dispatcher_failures") == 1
        assert stop_s < 1.0
