"""Batched inference server over versioned model bundles.

The online half of the paper's threat model at traffic scale: requests
(Table II feature vectors, or raw accelerometer windows that still need
feature extraction) arrive on a bounded queue, a batcher thread groups
them into micro-batches — up to ``max_batch`` requests, waiting at most
``max_linger_s`` after the first — and each batch runs one
``predict_proba`` per model group over a shared
:class:`~repro.parallel.ExecutorPool`.

Guarantees:

- **exactly-once answers** — every accepted request resolves its
  :class:`ServeFuture` with exactly one :class:`ServeResult`, whether
  the prediction succeeded, the model faulted (error value), the
  deadline passed (timeout value), or the server stopped;
- **backpressure** — a full queue rejects new work immediately with
  :class:`ServerOverloaded` instead of buffering without bound;
- **graceful degrade** — a CNN fault retries the batch against the
  bundle's fallback feature classifier; a fault that persists is
  isolated per request (row-by-row) so one poison request cannot take
  down its batchmates, and the server stays up;
- **observability** — ``serve.batch`` spans around every batch, a
  ``serve.request`` timer observation (a histogram, not a retained
  span) per answered request, and counters for submissions, batches,
  fallbacks, timeouts and rejections in the ambient :mod:`repro.obs`
  registry; every answer also lands in the per-resolved-version
  ``serve.version.responses`` counter. Answers are resolved and
  accounted once per model group (:meth:`InferenceServer._answer`),
  not once per request;
- **canary / shadow rollout** — :meth:`InferenceServer.set_canary`
  routes a configured fraction of the *bare-name* traffic for a model
  to a candidate version (requests that pin ``name@version`` are never
  rerouted); in shadow mode the candidate predicts alongside the
  default and only agreement counters (``serve.shadow.*``) are
  emitted, no client sees a candidate answer.
  :meth:`~InferenceServer.promote_canary` flips the registry default to
  the candidate; :meth:`~InferenceServer.rollback_canary` withdraws the
  candidate, leaving the prior default untouched — in-flight routed
  requests still resolve against the candidate bundle, so no accepted
  request is dropped by either transition.

Batching changes scheduling, never answers: a burst served batched
yields the same predictions as serial single-request inference (see
``benchmarks/test_serving.py`` for the throughput this buys).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attack.features import extract_features, extract_features_batch
from repro.obs import metrics, trace
from repro.parallel import ExecutorPool
from repro.serve.registry import ModelRegistry

__all__ = [
    "InferenceServer",
    "ServeFuture",
    "ServeResult",
    "ServeError",
    "ServerOverloaded",
    "ServerStopped",
]


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""


class ServerOverloaded(ServeError):
    """The bounded request queue is full; the caller should back off.

    ``retry_after_s`` is the server's own estimate of when a retry is
    worth making — current queue depth in batches times the recent
    batch latency — so callers back off for as long as the backlog
    actually needs, not a guessed constant.
    """

    def __init__(self, message: str, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServerStopped(ServeError):
    """The server is not accepting requests."""


@dataclass(frozen=True)
class ServeResult:
    """The answer to one request (an error *value*, never an exception).

    ``ok`` results carry the predicted ``label`` and the full ``proba``
    row over ``labels``-ordered classes; failed results carry ``error``
    and a ``status`` of ``"error"`` or ``"timeout"``.
    """

    request_id: int
    status: str  # "ok" | "error" | "timeout"
    model: str
    label: Optional[str] = None
    proba: Optional[np.ndarray] = None
    used: Optional[str] = None  # "cnn" | "classifier"
    error: Optional[str] = None
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ServeFuture:
    """Handle to an in-flight request; resolves exactly once.

    The :class:`threading.Event` a blocking :meth:`result` waits on is
    made only when a caller actually blocks before resolution; futures
    consumed through :meth:`add_done_callback` (the front-end) never
    pay for one.
    """

    __slots__ = ("request_id", "_result", "_event", "_lock", "_callbacks")

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._result: Optional[ServeResult] = None
        self._event: Optional[threading.Event] = None
        self._lock = threading.Lock()
        self._callbacks: List = []

    def _resolve(self, result: ServeResult) -> None:
        with self._lock:
            if self._result is not None:
                raise AssertionError(
                    f"request {self.request_id} resolved twice "
                    f"(exactly-once answer invariant broken)"
                )
            self._result = result
            callbacks, self._callbacks = self._callbacks, []
            event = self._event
        if event is not None:
            event.set()
        for callback in callbacks:
            callback(result)

    def add_done_callback(self, callback) -> None:
        """Run ``callback(result)`` on resolution (immediately if already done).

        Callbacks fire on the resolving thread (the batcher); keep them
        cheap and never raise — this is the bridge the asyncio front-end
        uses to hop results back onto its event loop.
        """
        with self._lock:
            result = self._result
            if result is None:
                self._callbacks.append(callback)
                return
        callback(result)

    def done(self) -> bool:
        return self._result is not None

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block for the answer; raises :class:`ServeError` on wait timeout."""
        result = self._result
        if result is not None:
            return result
        with self._lock:
            # Checked again under the lock: _resolve sets the result and
            # reads the event in one critical section, so either it sees
            # this event or this sees its result.
            if self._result is None and self._event is None:
                self._event = threading.Event()
            event = self._event
        if self._result is None and not event.wait(timeout):
            raise ServeError(
                f"request {self.request_id} not answered within {timeout}s"
            )
        assert self._result is not None
        return self._result


@dataclass
class _Canary:
    """Rollout state for one model name."""

    version: str
    fraction: float
    shadow: bool
    submitted: int = 0  # bare-name submissions seen since set_canary
    routed: int = 0  # of those, sent to the candidate (shadow: 0)

    def take(self) -> bool:
        """Deterministic counter split: route ⌊c·f⌋ of the first c."""
        self.submitted += 1
        routed = int(self.submitted * self.fraction) > int(
            (self.submitted - 1) * self.fraction
        )
        if routed:
            self.routed += 1
        return routed


@dataclass
class _Request:
    request_id: int
    kind: str  # "features" | "window"
    payload: np.ndarray
    fs: Optional[float]
    model: str
    deadline: float
    enqueued: float
    future: ServeFuture = field(repr=False, default=None)  # type: ignore


class InferenceServer:
    """Micro-batching prediction server over a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        Where bundles come from (loaded lazily, warm-cached, hot-swappable).
    model:
        Default bundle ref (``name`` or ``name@version``) for requests
        that do not name one.
    max_batch:
        Largest micro-batch; 1 disables batching (the serial baseline).
    max_linger_s:
        Longest the batcher waits after the first queued request before
        dispatching a partial batch.
    max_queue:
        Bounded-queue depth; submissions beyond it raise
        :class:`ServerOverloaded`.
    default_timeout_s:
        Per-request deadline when the submission does not carry one. A
        request still queued past its deadline is answered with a
        timeout value instead of occupying a batch slot.
    pool:
        Optional shared :class:`~repro.parallel.ExecutorPool` used to
        fan independent per-model groups of one batch out; ``serial``
        and ``thread`` pools only (models and futures do not cross
        process boundaries). Defaults to a private serial pool.
    gate:
        Optional :class:`~repro.attack.privacy_gate.GateScorer` serving
        leakage queries (the ``gate`` frontend op) alongside — or
        instead of — prediction traffic. Gate scoring is a pure lookup/
        interpolation, so it is answered synchronously by the frontend
        and never occupies a batch slot.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        model: Optional[str] = None,
        *,
        max_batch: int = 32,
        max_linger_s: float = 0.002,
        max_queue: int = 256,
        default_timeout_s: float = 10.0,
        pool: Optional[ExecutorPool] = None,
        gate=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_linger_s < 0:
            raise ValueError("max_linger_s must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if pool is not None and pool.executor == "process":
            raise ValueError(
                "InferenceServer needs a serial or thread pool; model "
                "objects and futures do not cross process boundaries"
            )
        self.registry = registry
        self.default_model = model
        self.max_batch = int(max_batch)
        self.max_linger_s = float(max_linger_s)
        self.default_timeout_s = float(default_timeout_s)
        self._pool = pool if pool is not None else ExecutorPool(n_jobs=1)
        self._owns_pool = pool is None
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=max_queue)
        self._ids = itertools.count(1)
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        self._accepting = False
        self._thread: Optional[threading.Thread] = None
        self.requests_accepted = 0
        self.requests_answered = 0
        self.batches_run = 0
        #: name -> live canary rollout, guarded by its own small lock so
        #: routing never contends with the accept/queue critical section.
        self._canary_lock = threading.Lock()
        self._canaries: Dict[str, _Canary] = {}
        #: EWMA of recent batch wall time; prices ServerOverloaded's
        #: retry_after_s hint (None until the first batch completes).
        self._batch_latency_s: Optional[float] = None
        #: Optional privacy-gate scorer; the frontend answers ``gate``
        #: ops against it without going through the batching queue.
        self.gate = gate

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "InferenceServer":
        if self._thread is not None:
            raise ServeError("server already started")
        self._stop.clear()
        self._accepting = True
        self._thread = threading.Thread(
            target=self._batcher_loop, name="serve-batcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting work, drain the queue, answer every straggler."""
        with self._state_lock:
            # Atomic with the accept-check in _submit: once this flips,
            # no new request can reach the queue, so the drain below
            # answers everything that ever got in.
            self._accepting = False
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # The batcher drains before exiting; anything that still slipped
        # in is answered with a stopped-server error value.
        leftovers: List[_Request] = []
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except queue.Empty:
                break
        for model_ref, requests in _by_model(leftovers).items():
            self._answer(
                model_ref, requests, "error",
                "server stopped before the request was served",
            )
        if self._owns_pool:
            self._pool.close()

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission ---------------------------------------------------------
    def _submit(
        self,
        kind: str,
        payload: np.ndarray,
        fs: Optional[float],
        model: Optional[str],
        timeout_s: Optional[float],
    ) -> ServeFuture:
        if not self._accepting:
            raise ServerStopped("server is not running; call start()")
        ref = model if model is not None else self.default_model
        if ref is None:
            raise ServeError(
                "no model named on the request and the server has no default"
            )
        ref = self._canary_ref(str(ref))
        timeout = self.default_timeout_s if timeout_s is None else float(timeout_s)
        now = time.perf_counter()
        request = _Request(
            request_id=next(self._ids),
            kind=kind,
            payload=payload,
            fs=fs,
            model=str(ref),
            deadline=now + timeout,
            enqueued=now,
        )
        request.future = ServeFuture(request.request_id)
        with self._state_lock:
            if not self._accepting:
                raise ServerStopped("server is not running; call start()")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                metrics().count("serve.rejected", reason="overloaded")
                retry_after = self.estimate_retry_after()
                raise ServerOverloaded(
                    f"request queue full ({self._queue.maxsize}); retry in "
                    f"~{retry_after:.3f}s",
                    retry_after_s=retry_after,
                ) from None
            self.requests_accepted += 1
        metrics().count("serve.requests", kind=kind)
        return request.future

    def submit_features(
        self,
        features: np.ndarray,
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeFuture:
        """Queue one Table II feature vector for prediction."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 1:
            raise ValueError(
                f"expected a 1-D feature vector, got shape {features.shape}"
            )
        return self._submit("features", features, None, model, timeout_s)

    def submit_window(
        self,
        samples: np.ndarray,
        fs: float,
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeFuture:
        """Queue a raw accelerometer window; features are extracted in-batch."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 4:
            raise ValueError(
                f"expected a 1-D window of >= 4 samples, got shape {samples.shape}"
            )
        if fs <= 0:
            raise ValueError("fs must be positive")
        return self._submit("window", samples, float(fs), model, timeout_s)

    # -- canary rollout -----------------------------------------------------
    def _canary_ref(self, ref: str) -> str:
        """Apply canary routing to a submission's model ref.

        Only bare names are rerouted — a request pinning
        ``name@version`` always gets exactly that version. The split is
        a deterministic counter (exactly ⌊c·f⌋ of the first ``c``
        bare-name submissions go to the candidate), so the configured
        fraction is met without randomness.
        """
        if "@" in ref:
            return ref
        with self._canary_lock:
            canary = self._canaries.get(ref)
            if canary is None or canary.shadow:
                return ref
            if not canary.take():
                return ref
            routed_ref = f"{ref}@{canary.version}"
        metrics().count("serve.canary.routed", model=routed_ref)
        return routed_ref

    def set_canary(
        self, name: str, version: str, fraction: float, shadow: bool = False
    ) -> None:
        """Start a canary rollout: send ``fraction`` of the bare-name
        traffic for ``name`` to candidate ``version``.

        With ``shadow=True`` no client traffic is rerouted; instead the
        candidate predicts alongside the default on the same rows and
        ``serve.shadow.agree`` / ``serve.shadow.disagree`` counters
        record argmax agreement (``fraction`` is ignored).
        """
        if not shadow and not 0.0 < fraction <= 1.0:
            raise ValueError("canary fraction must be in (0, 1]")
        self.registry.resolve(f"{name}@{version}")  # must exist now
        with self._canary_lock:
            self._canaries[str(name)] = _Canary(
                version=str(version),
                fraction=float(fraction) if not shadow else 0.0,
                shadow=bool(shadow),
            )

    def canary_status(self, name: str) -> Optional[dict]:
        """Live rollout state for ``name`` (None when no canary is set)."""
        with self._canary_lock:
            canary = self._canaries.get(name)
            if canary is None:
                return None
            return {
                "version": canary.version,
                "fraction": canary.fraction,
                "shadow": canary.shadow,
                "submitted": canary.submitted,
                "routed": canary.routed,
            }

    def clear_canary(self, name: str) -> None:
        """Withdraw the canary for ``name`` (no-op when none is set)."""
        with self._canary_lock:
            self._canaries.pop(name, None)

    def promote_canary(self, name: str) -> str:
        """Make the canary version the registry default; ends the rollout.

        Returns the promoted version. In-flight requests against the old
        default finish against the old bundle object (registry hot-swap
        semantics).
        """
        with self._canary_lock:
            canary = self._canaries.get(name)
            if canary is None:
                raise ServeError(f"no canary rollout is live for {name!r}")
            version = canary.version
        self.registry.set_default(name, version)
        self.clear_canary(name)
        metrics().count("serve.canary.promoted", model=f"{name}@{version}")
        return version

    def rollback_canary(self, name: str) -> Optional[str]:
        """Withdraw the canary, keeping the prior default in place.

        Returns the default version traffic falls back to. Requests
        already routed to the candidate still resolve against it — an
        accepted request is never dropped by a rollback.
        """
        with self._canary_lock:
            canary = self._canaries.pop(name, None)
        if canary is None:
            raise ServeError(f"no canary rollout is live for {name!r}")
        metrics().count(
            "serve.canary.rolled_back", model=f"{name}@{canary.version}"
        )
        return self.registry.default_version(name)

    def predict(
        self,
        features: np.ndarray,
        model: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeResult:
        """Blocking convenience: submit a feature vector and wait."""
        timeout = self.default_timeout_s if timeout_s is None else float(timeout_s)
        future = self.submit_features(features, model=model, timeout_s=timeout)
        # Wait a little past the serving deadline: a deadline miss comes
        # back as a timeout *value*, not a dropped future.
        return future.result(timeout=timeout + 5.0)

    # -- batching -----------------------------------------------------------
    def _batcher_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            batch = [first]
            t_first = time.perf_counter()
            while len(batch) < self.max_batch:
                remaining = self.max_linger_s - (time.perf_counter() - t_first)
                if remaining <= 0:
                    break
                try:
                    batch.append(self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
            try:
                self._run_batch(batch)
            except Exception as exc:  # noqa: BLE001 - the server must stay up
                unanswered = [r for r in batch if not r.future.done()]
                for model_ref, requests in _by_model(unanswered).items():
                    self._answer(
                        model_ref, requests, "error",
                        f"internal batch failure: {type(exc).__name__}: {exc}",
                    )

    def _run_batch(self, batch: List[_Request]) -> None:
        self.batches_run += 1
        t_start = time.perf_counter()
        groups = _by_model(batch)
        with trace(
            "serve.batch", n=len(batch), models=len(groups), metric_labels={}
        ):
            metrics().count("serve.batches")
            metrics().observe("serve.batch_size", len(batch))
            self._pool.map(self._run_group, list(groups.items()))
        elapsed = time.perf_counter() - t_start
        previous = self._batch_latency_s
        self._batch_latency_s = (
            elapsed if previous is None else 0.7 * previous + 0.3 * elapsed
        )

    def estimate_retry_after(self) -> float:
        """Expected seconds until the current backlog has been batched away.

        Queue depth in batches times the recent (EWMA) batch latency;
        before the first batch has run, a linger-based floor stands in.
        Clamped to [1ms, 10s] so a pathological measurement never turns
        into a zero or an hour of client back-off.
        """
        per_batch = self._batch_latency_s
        if per_batch is None or per_batch <= 0:
            per_batch = self.max_linger_s + 0.005
        batches_ahead = max(1.0, self._queue.qsize() / float(self.max_batch))
        return float(min(max(batches_ahead * per_batch, 1e-3), 10.0))

    # -- per-group execution ------------------------------------------------
    def _run_group(self, group: Tuple[str, List[_Request]]) -> None:
        model_ref, requests = group
        now = time.perf_counter()
        live = [r for r in requests if now < r.deadline]
        if len(live) < len(requests):
            expired = [r for r in requests if now >= r.deadline]
            metrics().count("serve.timeouts", value=len(expired), model=model_ref)
            self._answer(
                model_ref, expired, "timeout", "deadline exceeded while queued"
            )
        if not live:
            return
        try:
            bundle = self.registry.get(model_ref)
        except Exception as exc:  # noqa: BLE001 - unknown/corrupt bundle
            metrics().count("serve.errors", model=model_ref, reason="bundle")
            self._answer(model_ref, live, "error", f"{type(exc).__name__}: {exc}")
            return
        rows, prepared = self._prepare_rows(live, bundle, model_ref)
        if not prepared:
            return
        X = np.vstack(rows)
        with trace(
            "serve.predict", model=model_ref, n=len(prepared),
            metric_labels={"model": model_ref},
        ):
            proba, used, errors = self._predict_group(bundle, X, model_ref)
        self._shadow_compare(model_ref, bundle, X, proba, errors)
        if errors is not None:
            failed = [j for j, error in enumerate(errors) if error is not None]
            if failed:
                metrics().count(
                    "serve.errors", value=len(failed), model=model_ref, reason="model"
                )
            self._answer(
                model_ref, [prepared[j] for j in failed], "error",
                [errors[j] for j in failed],
            )
            kept = [j for j, error in enumerate(errors) if error is None]
            prepared, proba, used = [prepared[j] for j in kept], proba[kept], [used[j] for j in kept]
        self._answer(model_ref, prepared, "ok", proba=proba, used=used, labels=bundle.labels)

    def _prepare_rows(
        self, live: List[_Request], bundle, model_ref: str
    ) -> Tuple[List[np.ndarray], List[_Request]]:
        """Feature rows for the live requests; bad inputs answered early.

        Windows are extracted once per ``fs`` with one
        :func:`extract_features_batch` call (byte-identical to
        per-window :func:`extract_features`). If that call faults, each
        of its windows is extracted alone, so only a poison window
        answers ``error``.
        """
        rows: List[Optional[np.ndarray]] = [None] * len(live)
        windows: Dict[float, List[int]] = {}
        n_features = bundle.n_features
        for i, request in enumerate(live):
            if request.kind == "window":
                windows.setdefault(request.fs, []).append(i)
            elif request.payload.size != n_features:
                self._reject_input(
                    request,
                    model_ref,
                    f"ValueError: feature vector has {request.payload.size} entries; "
                    f"bundle {model_ref} serves {n_features} "
                    f"({bundle.manifest.feature_schema[:3]}…)",
                )
            else:
                rows[i] = request.payload
        for fs, idxs in windows.items():
            try:
                block = extract_features_batch([live[i].payload for i in idxs], fs)
                extracted = list(np.nan_to_num(block, nan=0.0))
            except Exception:  # noqa: BLE001 - isolate the poison window
                metrics().count("serve.extract_isolation", model=model_ref)
                extracted = [self._extract_alone(live[i], model_ref) for i in idxs]
            for i, row in zip(idxs, extracted):
                rows[i] = row
        prepared = [request for request, row in zip(live, rows) if row is not None]
        return [row for row in rows if row is not None], prepared

    def _extract_alone(self, request: _Request, model_ref: str) -> Optional[np.ndarray]:
        try:
            return np.nan_to_num(extract_features(request.payload, request.fs), nan=0.0)
        except Exception as exc:  # noqa: BLE001 - bad input, not a crash
            self._reject_input(request, model_ref, f"{type(exc).__name__}: {exc}")
            return None

    def _reject_input(self, request: _Request, model_ref: str, error: str) -> None:
        metrics().count("serve.errors", model=model_ref, reason="input")
        self._answer(model_ref, [request], "error", error)

    def _predict_group(
        self, bundle, X: np.ndarray, model_ref: str
    ) -> Tuple[np.ndarray, List[Optional[str]], Optional[List[Optional[str]]]]:
        """``(proba, used, errors)`` for one model group's rows.

        Tries the bundle's predictors in degrade order on the whole
        batch; ``errors`` is None when one of them answered every row.
        If every predictor faults batch-wise, falls back to row-by-row
        isolation so only the poison rows carry an error (their
        ``proba`` rows are zeros and their ``used`` entries None).
        """
        n = X.shape[0]
        roles = bundle.predictors()
        for i, (role, _) in enumerate(roles):
            try:
                proba = bundle.predict_proba_with(role, X)
                if i > 0:
                    metrics().count(
                        "serve.fallbacks", model=model_ref, to=role, value=n,
                    )
                return proba, [role] * n, None
            except Exception:  # noqa: BLE001 - degrade to the next predictor
                if i + 1 < len(roles):
                    metrics().count("serve.degrades", model=model_ref)
                continue
        # Batch-wise everything faulted: isolate per row.
        metrics().count("serve.row_isolation", model=model_ref)
        proba = np.zeros((n, len(bundle.labels)))
        used: List[Optional[str]] = [None] * n
        errors: List[Optional[str]] = ["no predictor available"] * n
        for j in range(n):
            for role, _ in roles:
                try:
                    proba[j] = bundle.predict_proba_with(role, X[j : j + 1])[0]
                    used[j], errors[j] = role, None
                    break
                except Exception as exc:  # noqa: BLE001
                    errors[j] = f"{type(exc).__name__}: {exc}"
        return proba, used, errors

    def _shadow_compare(self, model_ref: str, bundle, X, proba, errors) -> None:
        """Shadow-mode canary: predict with the candidate, count agreement.

        Runs inline on the group's rows (shadowing deliberately pays the
        candidate's inference cost without exposing its answers).
        Candidate faults only increment ``serve.shadow.errors`` — the
        default path's answers are already committed.
        """
        with self._canary_lock:
            canary = self._canaries.get(model_ref)
            if canary is None or not canary.shadow:
                return
            candidate_ref = f"{model_ref}@{canary.version}"
        try:
            candidate = self.registry.get(candidate_ref)
            with trace(
                "serve.shadow", model=candidate_ref, n=X.shape[0],
                metric_labels={"model": candidate_ref},
            ):
                cand_proba = candidate.predict_proba(X)
        except Exception:  # noqa: BLE001 - shadow must never hurt serving
            metrics().count("serve.shadow.errors", model=candidate_ref)
            return
        primary = bundle.labels[np.argmax(proba, axis=1)].astype(str)
        agree = primary == candidate.labels[np.argmax(cand_proba, axis=1)].astype(str)
        answered = (
            np.ones(agree.shape, dtype=bool) if errors is None
            else np.array([error is None for error in errors])
        )
        for outcome, mask in (("agree", agree & answered), ("disagree", ~agree & answered)):
            if mask.any():
                metrics().count(
                    f"serve.shadow.{outcome}", value=int(mask.sum()), model=candidate_ref
                )

    # -- resolution ---------------------------------------------------------
    def _version_label(self, ref: str) -> str:
        """Fully-qualified ``name@version`` for per-version counters.

        Canary-routed and pinned requests already carry the version;
        bare names resolve through the registry's *current* default (a
        hot swap mid-flight attributes the answer to the new default).
        Unresolvable refs are counted under the raw ref.
        """
        if "@" in ref:
            return ref
        try:
            name, version = self.registry.resolve(ref)
        except Exception:  # noqa: BLE001 - unknown model, counted as-is
            return ref
        return f"{name}@{version}"

    def _answer(
        self,
        model_ref: str,
        requests: Sequence[_Request],
        status: str,
        errors: Union[str, Sequence[str]] = (),
        *,
        proba: Optional[np.ndarray] = None,
        used: Sequence[Optional[str]] = (),
        labels: Optional[np.ndarray] = None,
    ) -> None:
        """Answer ``requests`` of one model group with one ``status``.

        The single answer path of the server. ``ok`` answers take their
        rows of ``proba``, their ``used`` predictors and one argmax over
        the whole matrix against ``labels``; failures take ``errors``
        (one message for all, or one per request). The group is
        accounted in one pass — one clock read, one ``requests_answered``
        bump, one ``serve.responses`` and ``serve.version.responses``
        count, one ``serve.request`` timer update holding each
        request's latency — before any future resolves, so a caller
        woken by its answer already sees it counted.
        """
        n = len(requests)
        if not n:
            return
        now = time.perf_counter()
        latencies = [now - request.enqueued for request in requests]
        if status == "ok":
            assert proba is not None and labels is not None and len(used) == n
            names = labels[np.argmax(proba, axis=1)].tolist()
            results = [
                ServeResult(
                    request_id=request.request_id, status=status, model=model_ref,
                    label=str(name), proba=row, used=role, latency_s=latency,
                )
                for request, name, row, role, latency
                in zip(requests, names, proba, used, latencies)
            ]
        else:
            if isinstance(errors, str):
                errors = [errors] * n
            assert len(errors) == n
            results = [
                ServeResult(
                    request_id=request.request_id, status=status, model=model_ref,
                    error=error, latency_s=latency,
                )
                for request, error, latency in zip(requests, errors, latencies)
            ]
        with self._state_lock:
            self.requests_answered += n
        registry = metrics()
        registry.observe_many("serve.request", latencies, status=status, model=model_ref)
        registry.count("serve.responses", value=n, status=status)
        registry.count(
            "serve.version.responses", value=n,
            model=self._version_label(model_ref), status=status,
        )
        # Every future resolves even if one raises (a second resolution
        # or a raising done-callback): the group is already counted, so a
        # request left unresolved would be answered and counted again by
        # the batch-failure path. The first error is re-raised after.
        failure: Optional[BaseException] = None
        for request, result in zip(requests, results):
            try:
                request.future._resolve(result)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure


def _by_model(requests: Sequence[_Request]) -> Dict[str, List[_Request]]:
    """Requests grouped by model ref, each group in arrival order."""
    groups: Dict[str, List[_Request]] = {}
    for request in requests:
        groups.setdefault(request.model, []).append(request)
    return groups


def serve_burst(
    server: InferenceServer,
    feature_rows: Sequence[np.ndarray],
    model: Optional[str] = None,
    timeout_s: float = 30.0,
) -> List[ServeResult]:
    """Submit a burst of feature vectors and collect every answer, in order."""
    futures = [
        server.submit_features(row, model=model, timeout_s=timeout_s)
        for row in feature_rows
    ]
    return [future.result(timeout=timeout_s + 5.0) for future in futures]
