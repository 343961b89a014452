"""Asyncio network front-end: multi-tenant intake for the inference server.

The "millions of users" story: many phones (tenants) stream requests at
one shared backend. :class:`ServingFrontend` owns a TCP listener
speaking the :mod:`repro.serve.protocol` frame format, runs every
request through the :mod:`repro.serve.admission` controller (per-tenant
token buckets, weighted fair queueing, realtime-over-backfill lanes) and
dispatches the admitted ones into an existing
:class:`~repro.serve.server.InferenceServer`, which keeps micro-batching
exactly as before. The event loop lives on a private thread, so the
front-end drops into synchronous code (tests, the CLI, benchmarks) with
``start()``/``stop()``.

Contracts, layered on the server's own:

- **admit-or-tell**: every well-formed request is answered exactly once
  — with a verdict if admitted, or a ``shed`` response carrying
  ``reason`` and ``retry_after_s`` if not. Nothing is silently dropped.
- **fair under flood**: dispatch order is WFQ across tenants, so one
  greedy client cannot starve the others; its excess is shed back to it
  with back-off hints while everyone else keeps their share.
- **lanes**: ``realtime`` requests always dispatch before ``backfill``;
  under inflight pressure backfill is withheld entirely (preempted at
  batch granularity) until the realtime side clears.
- **graceful drain**: ``stop()`` (and hot-swap restarts) first stops
  accepting, sheds new arrivals with ``reason="draining"``, then serves
  every already-admitted request to completion before closing sockets —
  mirroring the server's exactly-once ``ServeFuture`` contract.
- **fail closed**: if the dispatcher task dies, every queued and
  in-flight request is answered with an ``error``, new offers are shed
  with ``reason="dispatcher_failed"`` and ``stop()`` returns without
  sitting out the drain deadline (counted as
  ``frontend.dispatcher_failures``).

A malformed frame (oversized, garbage, undecodable JSON) kills only the
connection that sent it, after a best-effort ``error`` response.

Per-request work stays off the hot path where a batch will do: the
intake counts ``frontend.requests``, sets the ``frontend.backlog`` gauge
and wakes the dispatcher once per received chunk; resolutions coming
back from the batcher queue on one lock-guarded deque and are drained
by one event-loop callback, which writes each connection's response
frames with one ``write`` and records the ``frontend.request`` latency
timer per (tenant, lane, status).
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs import metrics
from repro.serve.admission import (
    AdmissionController,
    Admitted,
    ShedDecision,
    TenantConfig,
    TokenBucket,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    LANES,
    FrameDecoder,
    ProtocolError,
    encode_message,
)
from repro.serve.server import (
    InferenceServer,
    ServeResult,
    ServerOverloaded,
)

__all__ = ["AsyncFrontendClient", "FrontendClient", "ServingFrontend"]

_log = logging.getLogger(__name__)


@dataclass(eq=False)
class _Connection:
    """One client socket: its writer plus liveness for orphan detection."""

    writer: asyncio.StreamWriter
    closed: bool = False

    def send(self, message: Dict[str, Any]) -> bool:
        return self.write(encode_message(message))

    def write(self, frames: bytes) -> bool:
        if self.closed:
            return False
        try:
            self.writer.write(frames)
            return True
        except Exception:  # noqa: BLE001 - peer vanished mid-write
            self.closed = True
            return False


@dataclass(eq=False)
class _PendingRequest:
    """One admitted request waiting for (or in) the inference server."""

    conn: _Connection
    msg_id: Any
    tenant: str
    lane: str
    kind: str
    payload: np.ndarray
    fs: Optional[float]
    model: Optional[str]
    timeout_s: Optional[float]
    accepted_at: float = field(default_factory=time.perf_counter)
    #: Answered with an error when the dispatcher died; a late server
    #: resolution of it is dropped.
    abandoned: bool = False


class ServingFrontend:
    """TCP front-end with admission control over an :class:`InferenceServer`.

    Parameters
    ----------
    server:
        The started inference server requests are dispatched into.
    host, port:
        Listen address; port 0 binds an ephemeral port (read ``.port``
        after :meth:`start`).
    tenants:
        :class:`TenantConfig` contracts for known tenants; unknown
        tenant names are admitted under ``default_tenant``.
    default_tenant:
        Policy template for unregistered tenants (default: unlimited
        rate, weight 1, backlog 64).
    max_inflight:
        Cap on requests handed to the server but not yet answered;
        defaults to half the server's queue so the frontend never trips
        the server's own overload path.
    dispatch_rate:
        Optional global pacing (requests/s) of dispatch into the
        backend — models a constrained backend and makes fair-queueing
        behaviour reproducible under test; ``None`` dispatches as fast
        as the inflight cap allows.
    backfill_pressure:
        Fraction of ``max_inflight`` above which backfill dispatch is
        withheld (preemption under pressure).
    drain_timeout_s:
        Longest :meth:`stop` waits for admitted requests to finish.
    """

    def __init__(
        self,
        server: InferenceServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Optional[List[TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: Optional[int] = None,
        dispatch_rate: Optional[float] = None,
        backfill_pressure: float = 0.5,
        drain_timeout_s: float = 30.0,
    ):
        self.server = server
        self.host = host
        self.port = int(port)
        self.max_frame_bytes = int(max_frame_bytes)
        if max_inflight is None:
            max_inflight = max(8, server._queue.maxsize // 2)
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = int(max_inflight)
        self.dispatch_rate = dispatch_rate
        if not 0.0 < backfill_pressure <= 1.0:
            raise ValueError("backfill_pressure must be in (0, 1]")
        self._backfill_limit = max(1, int(backfill_pressure * self.max_inflight))
        self.drain_timeout_s = float(drain_timeout_s)
        self.admission = AdmissionController(
            tenants=tenants,
            default_config=default_tenant,
            drain_rate=self._service_rate,
        )
        self._dispatch_bucket: Optional[TokenBucket] = None
        if dispatch_rate is not None:
            if dispatch_rate <= 0:
                raise ValueError("dispatch_rate must be positive")
            self._dispatch_bucket = TokenBucket(
                dispatch_rate, burst=max(1.0, dispatch_rate / 20.0)
            )
        self._connections: Set[_Connection] = set()
        self._inflight = 0
        #: Requests handed to the server and not yet answered, and the
        #: one being handed over: what a dead dispatcher leaves to answer.
        self._dispatched: Set[_PendingRequest] = set()
        self._dispatching: Optional[_PendingRequest] = None
        self._dispatcher_failed = False
        #: Resolutions handed over by the batcher thread, drained on the
        #: event loop; ``_drain_scheduled`` keeps one drain in flight.
        self._resolved: Deque[Tuple[_PendingRequest, ServeResult]] = deque()
        self._resolved_lock = threading.Lock()
        self._drain_scheduled = False
        #: One ``(stamp, answers)`` entry per resolution drain, for
        #: :meth:`_service_rate`.
        self._completions: Deque[Tuple[float, int]] = deque(maxlen=128)
        self.accepted = 0
        self.answered = 0
        self.shed = 0
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._dispatcher_stop = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ServingFrontend":
        """Bind the listener on a private event-loop thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._started.clear()
        self._startup_error = None
        self._dispatcher_stop = False
        self._dispatcher_failed = False
        self._dispatched.clear()
        with self._resolved_lock:
            # A drain left pending when a previous loop closed never ran.
            self._resolved.clear()
            self._drain_scheduled = False
        self._thread = threading.Thread(
            target=self._thread_main, name="serve-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Drain gracefully: shed new work, answer all admitted, close."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join()
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stop_event = asyncio.Event()
        listener = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = listener.sockets[0].getsockname()[1]
        self._started.set()
        dispatcher = asyncio.create_task(self._dispatch_loop())
        dispatcher.add_done_callback(self._on_dispatcher_done)
        await self._stop_event.wait()

        # Graceful drain: no new connections, new offers shed, admitted
        # requests dispatched and answered before the sockets close.
        self.admission.start_draining()
        listener.close()
        await listener.wait_closed()
        deadline = self._loop.time() + self.drain_timeout_s
        while (
            self.admission.backlog() > 0 or self._inflight > 0
        ) and self._loop.time() < deadline:
            self._wake.set()
            await asyncio.sleep(0.005)
        # Stop the dispatcher cooperatively BEFORE cancelling: on
        # Python 3.11, wait_for can swallow a cancellation that races
        # with its inner future completing (gh-86296), which would leave
        # the task running forever — the flag guarantees its loop exits
        # even when the CancelledError is eaten.
        self._dispatcher_stop = True
        self._wake.set()
        dispatcher.cancel()
        try:
            await dispatcher
        except asyncio.CancelledError:
            pass
        except Exception:  # noqa: BLE001 - reported by _on_dispatcher_done
            pass
        for conn in list(self._connections):
            conn.closed = True
            try:
                conn.writer.close()
            except Exception:  # noqa: BLE001
                pass
        await asyncio.sleep(0)

    # -- connection handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        decoder = FrameDecoder(self.max_frame_bytes)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except ProtocolError as exc:
                    # Only this connection dies; a best-effort error
                    # response tells the peer why.
                    metrics().count("frontend.protocol_errors")
                    conn.send({"op": "error", "error": str(exc)})
                    break
                admitted: Dict[Tuple[str, str], int] = {}
                try:
                    for message, tensor in messages:
                        self._handle_message(conn, message, tensor, admitted)
                finally:
                    # Admitted requests are queued even if a later
                    # message in the chunk raised: count them anyway.
                    if admitted:
                        self._account_intake(admitted)
        finally:
            conn.closed = True
            self._connections.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    def _account_intake(self, admitted: Dict[Tuple[str, str], int]) -> None:
        """Count one chunk's admissions and wake the dispatcher once.

        The backlog only grows while a chunk is handled (the dispatcher
        runs between chunks), so its level now is the chunk's high-water
        mark.
        """
        registry = metrics()
        for (tenant, lane), n in admitted.items():
            registry.count("frontend.requests", value=n, tenant=tenant, lane=lane)
        registry.gauge("frontend.backlog", self.admission.backlog())
        assert self._wake is not None
        self._wake.set()

    def _handle_message(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        tensor: Optional[np.ndarray],
        admitted: Dict[Tuple[str, str], int],
    ) -> None:
        """Answer or queue one message; admissions are tallied in ``admitted``."""
        op = message.get("op")
        if op == "ping":
            conn.send({"op": "pong", "id": message.get("id")})
            return
        if op == "gate":
            self._handle_gate(conn, message)
            return
        if op != "predict":
            conn.send(
                {
                    "op": "error",
                    "id": message.get("id"),
                    "error": f"unknown op {op!r}",
                }
            )
            return
        msg_id = message.get("id")
        tenant = str(message.get("tenant") or "default")
        try:
            pending = self._parse_predict(conn, message, tensor, tenant)
        except (TypeError, ValueError) as exc:
            metrics().count("frontend.bad_requests", tenant=tenant)
            conn.send(
                {
                    "op": "result",
                    "id": msg_id,
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        if self._dispatcher_failed:
            decision = ShedDecision(reason="dispatcher_failed", retry_after_s=1.0)
        else:
            decision = self.admission.offer(tenant, pending.lane, pending)
        if decision is not None:
            self.shed += 1
            metrics().count("frontend.shed", tenant=tenant, reason=decision.reason)
            conn.send(
                {
                    "op": "shed",
                    "id": msg_id,
                    "status": "shed",
                    "reason": decision.reason,
                    "retry_after_s": round(decision.retry_after_s, 6),
                }
            )
            return
        self.accepted += 1
        key = (tenant, pending.lane)
        admitted[key] = admitted.get(key, 0) + 1

    def _handle_gate(self, conn: _Connection, message: Dict[str, Any]) -> None:
        """Answer one privacy-gate leakage query synchronously.

        Gate scoring is a pure table lookup / interpolation over the
        packed :class:`~repro.attack.privacy_gate.LeakageReport`, so it
        bypasses the batching queue entirely: no lane, no admission, no
        shed. Out-of-range configs come back as ``status: "refused"``
        (the scorer will not extrapolate beyond the swept grid) rather
        than a transport error, so callers can distinguish "unsafe to
        answer" from "malformed request".
        """
        from repro.attack.privacy_gate import GateRangeError

        msg_id = message.get("id")
        metrics().count("frontend.gate_requests")
        gate = getattr(self.server, "gate", None)
        if gate is None:
            conn.send(
                {
                    "op": "gate_result",
                    "id": msg_id,
                    "status": "error",
                    "error": "no privacy gate loaded on this server",
                }
            )
            return
        config = message.get("config")
        if not isinstance(config, dict):
            conn.send(
                {
                    "op": "gate_result",
                    "id": msg_id,
                    "status": "error",
                    "error": "gate needs a config object with rate_cap_hz, "
                    "lowpass_hz, noise_rms and quant_lsb",
                }
            )
            return
        try:
            score = gate.score(
                rate_cap_hz=float(config["rate_cap_hz"]),
                lowpass_hz=float(config["lowpass_hz"]),
                noise_rms=float(config["noise_rms"]),
                quant_lsb=float(config["quant_lsb"]),
                task=message.get("task"),
                mode=str(message.get("mode", "adaptive")),
            )
        except GateRangeError as exc:
            metrics().count("frontend.gate_refused")
            conn.send(
                {
                    "op": "gate_result",
                    "id": msg_id,
                    "status": "refused",
                    "error": str(exc),
                }
            )
            return
        except (KeyError, TypeError, ValueError) as exc:
            conn.send(
                {
                    "op": "gate_result",
                    "id": msg_id,
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        conn.send({"op": "gate_result", "id": msg_id, "status": "ok", **score})

    def _parse_predict(
        self,
        conn: _Connection,
        message: Dict[str, Any],
        tensor: Optional[np.ndarray],
        tenant: str,
    ) -> _PendingRequest:
        lane = message.get("lane", "realtime")
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; expected one of {LANES}")
        kind = message.get("kind", "features")
        if kind not in ("features", "window"):
            raise ValueError(f"unknown request kind {kind!r}")
        if tensor is not None:
            payload = np.asarray(tensor, dtype=float)
        else:
            raw = message.get("payload")
            if not isinstance(raw, list) or not raw:
                raise ValueError("predict needs a non-empty payload list or tensor")
            payload = np.asarray(raw, dtype=float)
        if payload.ndim != 1:
            raise ValueError(f"payload must be 1-D, got shape {payload.shape}")
        fs = message.get("fs")
        if kind == "window":
            if fs is None or float(fs) <= 0:
                raise ValueError("window requests need a positive fs")
            fs = float(fs)
        else:
            fs = None
        timeout_s = message.get("timeout_s")
        if timeout_s is not None:
            timeout_s = float(timeout_s)
            if timeout_s <= 0:
                raise ValueError("timeout_s must be positive")
        model = message.get("model")
        return _PendingRequest(
            conn=conn,
            msg_id=message.get("id"),
            tenant=tenant,
            lane=lane,
            kind=kind,
            payload=payload,
            fs=fs,
            model=str(model) if model is not None else None,
            timeout_s=timeout_s,
        )

    # -- dispatch ------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._dispatcher_stop:
            inflight = self._inflight
            pause_s = self._dispatch_ready()
            if self._inflight > inflight:
                # Inflight only grows during a dispatch pass, so its
                # level now is the pass's high-water mark.
                metrics().gauge("frontend.inflight", self._inflight)
            if pause_s is not None:
                # Pacing bucket dry with work waiting: sleep exactly
                # until the next token instead of busy-polling.
                await asyncio.sleep(pause_s)
                continue
            self._wake.clear()
            if self._dispatchable():
                continue  # re-check: a slot freed between clear and here
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass

    def _dispatchable(self) -> bool:
        """Whether :meth:`_dispatch_ready` could dispatch something right now.

        Must mirror its lane gating exactly: any weaker condition (e.g.
        total backlog under ``max_inflight``) makes the dispatch loop
        ``continue`` forever when only preempted backfill is waiting,
        starving the event loop so the completion callbacks that would
        free inflight slots never run.
        """
        if self.admission.backlog(lane="realtime") > 0:
            return self._inflight < self.max_inflight
        if self.admission.backlog(lane="backfill") > 0:
            return self._inflight < self._backfill_limit
        return False

    def _dispatch_ready(self) -> Optional[float]:
        """Dispatch as much as caps allow; returns a pacing sleep if blocked."""
        while self._inflight < self.max_inflight:
            realtime_waiting = self.admission.backlog(lane="realtime") > 0
            backfill_waiting = self.admission.backlog(lane="backfill") > 0
            if not realtime_waiting and not backfill_waiting:
                return None
            allow_backfill = (
                not realtime_waiting and self._inflight < self._backfill_limit
            )
            if not realtime_waiting and not allow_backfill:
                return None  # backfill preempted by inflight pressure
            if self._dispatch_bucket is not None:
                if not self._dispatch_bucket.try_take(1.0):
                    return max(self._dispatch_bucket.time_until(1.0), 1e-4)
            entry = self.admission.next(allow_backfill=allow_backfill)
            if entry is None:
                return None
            self._dispatching = entry.item
            self._submit_entry(entry)
            self._dispatching = None
        return None

    def _on_dispatcher_done(self, task: asyncio.Task) -> None:
        """Fail closed if the dispatcher task died: nothing admitted may hang.

        Answers the request being handed over, every queued one and
        every one in flight with an ``error``; from now on new offers are
        shed and the server's late answers to abandoned requests are
        dropped, so the drain in :meth:`_main` has nothing to wait for.
        """
        if task.cancelled() or task.exception() is None:
            return
        exc = task.exception()
        self._dispatcher_failed = True
        metrics().count("frontend.dispatcher_failures")
        _log.error("frontend dispatcher failed", exc_info=exc)
        orphans = [self._dispatching] if self._dispatching is not None else []
        self._dispatching = None
        while (entry := self.admission.next()) is not None:
            orphans.append(entry.item)
        orphans.extend(self._dispatched - set(orphans))
        self._inflight -= len(self._dispatched)
        self._dispatched.clear()
        error = f"dispatcher failed: {type(exc).__name__}: {exc}"
        for pending in orphans:
            pending.abandoned = True
            self._answer_error(pending, error)

    def _submit_entry(self, entry: Admitted) -> None:
        pending = entry.item
        assert isinstance(pending, _PendingRequest)
        try:
            if pending.kind == "window":
                future = self.server.submit_window(
                    pending.payload,
                    pending.fs,
                    model=pending.model,
                    timeout_s=pending.timeout_s,
                )
            else:
                future = self.server.submit_features(
                    pending.payload,
                    model=pending.model,
                    timeout_s=pending.timeout_s,
                )
        except ServerOverloaded as exc:
            # The inflight cap makes this rare; the admitted request is
            # still answered exactly once — as an explicit shed with the
            # server's own retry estimate.
            self._answer_shed(pending, "backend", exc.retry_after_s or 0.05)
            return
        except Exception as exc:  # noqa: BLE001 - e.g. server stopped
            self._answer_error(pending, f"{type(exc).__name__}: {exc}")
            return
        self._inflight += 1
        self._dispatched.add(pending)
        future.add_done_callback(
            lambda result, p=pending: self._post_result(p, result)
        )

    def _post_result(self, pending: _PendingRequest, result: ServeResult) -> None:
        """Hand a resolution from the batcher thread to the event loop.

        Appends to the resolved deque and schedules one
        :meth:`_drain_resolved` unless one is already pending, so a
        batch's answers cost one loop wake-up, not one each. Runs on the
        server's batcher thread and must never raise (the
        ``add_done_callback`` contract): if the drain deadline expired
        with this request still inflight, the loop is already closed and
        ``call_soon_threadsafe`` raises RuntimeError — swallowing it
        loses only a response nobody is waiting for, while letting it
        propagate would kill the batcher worker.
        """
        loop = self._loop
        if loop is None:
            return
        with self._resolved_lock:
            self._resolved.append((pending, result))
            if self._drain_scheduled:
                return
            self._drain_scheduled = True
        try:
            loop.call_soon_threadsafe(self._drain_resolved)
        except RuntimeError:
            pass  # event loop closed after the drain deadline expired

    # -- resolution ----------------------------------------------------------
    def _drain_resolved(self) -> None:
        """Answer every queued resolution: one write per connection.

        Each response is its own :func:`encode_message` frame, so a
        connection's byte stream is unchanged; only the ``write`` calls
        are merged. Frames keep resolution order per connection.
        """
        with self._resolved_lock:
            resolved, self._resolved = self._resolved, deque()
            self._drain_scheduled = False
        if self._dispatcher_failed:
            resolved = [(p, r) for p, r in resolved if not p.abandoned]
        for pending, _ in resolved:
            self._dispatched.discard(pending)
        now = time.perf_counter()
        self._inflight -= len(resolved)
        self.answered += len(resolved)
        self._completions.append((now, len(resolved)))
        latencies: Dict[Tuple[str, str, str], List[float]] = {}
        outgoing: Dict[_Connection, List[Tuple[str, bytes]]] = {}
        for pending, result in resolved:
            latency = now - pending.accepted_at
            key = (pending.tenant, pending.lane, result.status)
            latencies.setdefault(key, []).append(latency)
            frame = encode_message(_result_message(pending, result, latency))
            outgoing.setdefault(pending.conn, []).append((pending.tenant, frame))
        registry = metrics()
        for (tenant, lane, status), values in latencies.items():
            registry.observe_many(
                "frontend.request", values, tenant=tenant, lane=lane, status=status
            )
            registry.count(
                "frontend.responses", value=len(values), tenant=tenant, status=status
            )
        for conn, sent in outgoing.items():
            if not conn.write(b"".join(frame for _, frame in sent)):
                for tenant, _ in sent:
                    registry.count("frontend.orphaned", tenant=tenant)
        assert self._wake is not None
        self._wake.set()

    def _answer_shed(
        self, pending: _PendingRequest, reason: str, retry_after_s: float
    ) -> None:
        self.shed += 1
        self.accepted -= 1  # it never reached the backend; reclassified as shed
        metrics().count("frontend.shed", tenant=pending.tenant, reason=reason)
        pending.conn.send(
            {
                "op": "shed",
                "id": pending.msg_id,
                "status": "shed",
                "reason": reason,
                "retry_after_s": round(retry_after_s, 6),
            }
        )

    def _answer_error(self, pending: _PendingRequest, error: str) -> None:
        self.answered += 1
        metrics().observe(
            "frontend.request", time.perf_counter() - pending.accepted_at,
            tenant=pending.tenant, lane=pending.lane, status="error",
        )
        metrics().count(
            "frontend.responses", tenant=pending.tenant, status="error"
        )
        pending.conn.send(
            {
                "op": "result",
                "id": pending.msg_id,
                "status": "error",
                "error": error,
            }
        )

    def _service_rate(self) -> float:
        """Recent completion rate (req/s) for retry-after pricing.

        Answers after the oldest kept drain over the time since it: a
        drain's answers share one stamp, so the first drain only opens
        the window.
        """
        if len(self._completions) < 2:
            return 0.0
        span = self._completions[-1][0] - self._completions[0][0]
        if span <= 0:
            return 0.0
        answers = sum(n for _, n in itertools.islice(self._completions, 1, None))
        return answers / span


def _result_message(
    pending: _PendingRequest, result: ServeResult, latency: float
) -> Dict[str, Any]:
    """The ``result`` response for one answered request."""
    response: Dict[str, Any] = {
        "op": "result",
        "id": pending.msg_id,
        "status": result.status,
        "model": result.model,
        "latency_s": round(latency, 6),
    }
    if result.ok:
        response["label"] = result.label
        response["used"] = result.used
        if result.proba is not None:
            response["proba"] = [float(p) for p in result.proba]
    else:
        response["error"] = result.error
    return response


def _predict_frame(
    msg_id: int, tenant: str, features: Optional[np.ndarray], window: Optional[np.ndarray],
    fs: Optional[float], lane: str, model: Optional[str], timeout_s: Optional[float], binary: bool,
) -> bytes:
    """Both clients' ``predict`` frame: the row as a float64 tensor payload
    (``binary``) or a JSON list. Encodes through this module's
    ``encode_message`` name, so a wrapper installed there sees it."""
    message: Dict[str, Any] = {
        "op": "predict",
        "id": msg_id,
        "tenant": tenant,
        "lane": lane,
    }
    if model is not None:
        message["model"] = model
    if timeout_s is not None:
        message["timeout_s"] = timeout_s
    payload = np.asarray(features if window is None else window, dtype=float)
    if window is not None:
        message["kind"] = "window"
        message["fs"] = float(fs) if fs is not None else None
    else:
        message["kind"] = "features"
    if binary:
        return encode_message(message, payload)
    message["payload"] = [float(x) for x in payload]
    return encode_message(message)


class AsyncFrontendClient:
    """Pipelined asyncio client: submit many requests, await each response.

    Each :meth:`submit` writes one frame and returns an
    :class:`asyncio.Future` resolving to the response message (a
    ``result`` or ``shed`` dict). A background reader task correlates
    responses by ``id``, so any number of requests can be in flight on
    one connection — the open-loop load generator the benchmark needs.
    """

    def __init__(self, host: str, port: int, tenant: str = "default"):
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None

    async def connect(self) -> "AsyncFrontendClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._task = asyncio.create_task(self._read_loop())
        return self

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass
            self._writer = None
        self._fail_pending(ConnectionError("client closed"))

    def submit(
        self,
        features: Optional[np.ndarray] = None,
        *,
        window: Optional[np.ndarray] = None,
        fs: Optional[float] = None,
        lane: str = "realtime",
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
        binary: bool = False,
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Send one predict request; resolve with its response message."""
        if self._writer is None:
            raise ConnectionError("client is not connected")
        if (features is None) == (window is None):
            raise ValueError("pass exactly one of features= or window=")
        msg_id = next(self._ids)
        frame = _predict_frame(
            msg_id, self.tenant, features, window, fs, lane, model, timeout_s, binary
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[msg_id] = future
        self._writer.write(frame)
        return future

    async def predict(self, features: np.ndarray, **kwargs) -> Dict[str, Any]:
        return await self.submit(features, **kwargs)

    async def ping(self) -> Dict[str, Any]:
        if self._writer is None:
            raise ConnectionError("client is not connected")
        msg_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[msg_id] = future
        self._writer.write(encode_message({"op": "ping", "id": msg_id}))
        return await future

    async def _read_loop(self) -> None:
        assert self._reader is not None
        decoder = FrameDecoder()
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    self._fail_pending(ConnectionError("server closed the connection"))
                    return
                for message, _ in decoder.feed(data):
                    self._route(message)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - reset, protocol, decode, ...
            # Any transport or framing failure must resolve the pending
            # futures; otherwise every in-flight submit() hangs until
            # the caller's own outer timeout.
            self._fail_pending(exc)

    def _route(self, message: Dict[str, Any]) -> None:
        if message.get("op") == "error" and message.get("id") is None:
            self._fail_pending(ProtocolError(str(message.get("error"))))
            return
        future = self._pending.pop(message.get("id"), None)
        if future is not None and not future.done():
            future.set_result(message)

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)


class FrontendClient:
    """Blocking one-request-at-a-time client (CLI and simple scripts)."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        timeout_s: float = 30.0,
    ):
        import socket

        self.tenant = tenant
        self._sock = socket.create_connection((host, int(port)), timeout=timeout_s)
        self._decoder = FrameDecoder()
        self._ids = itertools.count(1)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, frame: bytes) -> Dict[str, Any]:
        self._sock.sendall(frame)
        while True:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            messages = self._decoder.feed(data)
            if messages:
                return messages[0][0]

    def ping(self) -> Dict[str, Any]:
        return self._roundtrip(encode_message({"op": "ping", "id": next(self._ids)}))

    def predict(
        self,
        features: np.ndarray,
        *,
        lane: str = "realtime",
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
        binary: bool = False,
    ) -> Dict[str, Any]:
        """Send one feature-vector request and block for its response."""
        return self._roundtrip(_predict_frame(
            next(self._ids), self.tenant, features, None, None, lane, model, timeout_s, binary
        ))

    def gate_score(
        self,
        *,
        rate_cap_hz: float,
        lowpass_hz: float,
        noise_rms: float,
        quant_lsb: float,
        task: Optional[str] = None,
        mode: str = "adaptive",
    ) -> Dict[str, Any]:
        """Ask the server's privacy gate how much a sensor config leaks.

        Returns the ``gate_result`` message: ``status`` is ``"ok"``
        (with accuracy/margin/leakage fields), ``"refused"`` when the
        config falls outside the swept grid, or ``"error"``.
        """
        message: Dict[str, Any] = {
            "op": "gate",
            "id": next(self._ids),
            "tenant": self.tenant,
            "config": {
                "rate_cap_hz": float(rate_cap_hz),
                "lowpass_hz": float(lowpass_hz),
                "noise_rms": float(noise_rms),
                "quant_lsb": float(quant_lsb),
            },
            "mode": mode,
        }
        if task is not None:
            message["task"] = task
        return self._roundtrip(encode_message(message))
