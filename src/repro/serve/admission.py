"""Per-tenant admission control: token buckets, weighted fair queueing, lanes.

The front-end's answer to the one-greedy-client problem: every tenant
gets a :class:`TenantConfig` (a token-bucket rate limit, a fair-queueing
weight, a bounded per-lane backlog) and the :class:`AdmissionController`
decides, per request, between *queue* and *shed* — and, across queued
requests, *who goes next*.

Scheduling is classic virtual-time weighted fair queueing (WFQ) run
independently per lane: each tenant's queue head carries a finish tag
``max(lane virtual time, previous tag) + cost / weight``; dequeue always
picks the smallest tag, so over any backlogged interval tenant
throughput converges to the weight ratio no matter how unbalanced the
arrival streams are. The ``realtime`` lane has strict priority over
``backfill``: backfill is only offered when no realtime request is
waiting, and the front-end additionally withholds backfill dispatch
under inflight pressure (preemption at batch granularity).

Shedding never drops silently: every decision is a
:class:`ShedDecision` with a ``reason`` and a ``retry_after_s`` hint —
time until the token bucket refills for rate sheds, estimated
backlog-drain time for queue-full sheds — that the wire protocol
forwards verbatim so clients can back off instead of hammering.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.serve.protocol import LANES

__all__ = [
    "Admitted",
    "AdmissionController",
    "ShedDecision",
    "TenantConfig",
    "TokenBucket",
]


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission policy.

    ``rate``/``burst`` bound how fast requests are *accepted* (token
    bucket, ``float("inf")`` disables the limit); ``weight`` sets the
    tenant's WFQ share among backlogged tenants; ``max_backlog`` bounds
    the queued-but-not-dispatched requests per lane.
    """

    name: str
    weight: float = 1.0
    rate: float = float("inf")
    burst: float = 32.0
    max_backlog: int = 64

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.rate <= 0:
            raise ValueError("tenant rate must be positive (inf to disable)")
        if self.burst <= 0:
            raise ValueError("tenant burst must be positive")
        if self.max_backlog < 1:
            raise ValueError("tenant max_backlog must be >= 1")


class TokenBucket:
    """Lazy-refill token bucket over an injectable monotonic clock."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        if self.rate == float("inf"):
            self._tokens = self.burst
        else:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def time_until(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (0 if already)."""
        self._refill()
        if self._tokens >= n:
            return 0.0
        if self.rate == float("inf"):
            return 0.0
        return (n - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


@dataclass(frozen=True)
class ShedDecision:
    """Why a request was not queued, and when to try again."""

    reason: str  # "rate" | "backlog" | "draining"
    retry_after_s: float


@dataclass
class Admitted:
    """One queued request: the opaque ``item`` plus its scheduling tags."""

    tenant: str
    lane: str
    item: object
    seq: int
    finish_tag: float = 0.0


@dataclass
class _TenantState:
    config: TenantConfig
    bucket: TokenBucket
    queues: Dict[str, Deque[Admitted]] = field(
        default_factory=lambda: {lane: deque() for lane in LANES}
    )
    #: Last assigned WFQ finish tag per lane (monotone per tenant).
    finish: Dict[str, float] = field(default_factory=lambda: {lane: 0.0 for lane in LANES})


class AdmissionController:
    """Token-bucket admission + per-lane WFQ over the registered tenants.

    Unknown tenants are admitted under ``default_config`` (a private
    copy per tenant name), so the front-end serves anonymous traffic
    with sane bounds while named tenants get their contracted shares.
    ``drain_rate`` is an optional callable returning the dispatcher's
    recent service rate (requests/s); it prices the ``retry_after_s``
    hint on backlog sheds.

    Not thread-safe by design: the front-end drives it from a single
    event loop. (The clock is injectable so tests run on virtual time.)
    """

    def __init__(
        self,
        tenants: Optional[List[TenantConfig]] = None,
        *,
        default_config: Optional[TenantConfig] = None,
        drain_rate: Optional[Callable[[], float]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self._drain_rate = drain_rate
        self._default = default_config or TenantConfig("default")
        self._tenants: Dict[str, _TenantState] = {}
        self._vtime: Dict[str, float] = {lane: 0.0 for lane in LANES}
        #: Queued requests per lane over every tenant, kept by offer and
        #: _pop_lane so backlog() reads are O(1).
        self._queued: Dict[str, int] = {lane: 0 for lane in LANES}
        self._seq = 0
        self._draining = False
        for config in tenants or []:
            self.configure(config)

    def configure(self, config: TenantConfig) -> None:
        """Register (or re-register) one tenant's policy."""
        state = self._tenants.get(config.name)
        if state is None:
            self._tenants[config.name] = _TenantState(
                config=config,
                bucket=TokenBucket(config.rate, config.burst, clock=self._clock),
            )
        else:
            state.config = config
            state.bucket = TokenBucket(config.rate, config.burst, clock=self._clock)

    def tenant_config(self, tenant: str) -> TenantConfig:
        return self._state(tenant).config

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            config = TenantConfig(
                tenant,
                weight=self._default.weight,
                rate=self._default.rate,
                burst=self._default.burst,
                max_backlog=self._default.max_backlog,
            )
            state = _TenantState(
                config=config,
                bucket=TokenBucket(config.rate, config.burst, clock=self._clock),
            )
            self._tenants[tenant] = state
        return state

    # -- intake --------------------------------------------------------------
    def start_draining(self) -> None:
        """Shed every future offer; already-queued requests still drain."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def offer(
        self, tenant: str, lane: str, item: object, *, cost: float = 1.0
    ) -> Optional[ShedDecision]:
        """Queue one request; returns a :class:`ShedDecision` instead if shed."""
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; expected one of {LANES}")
        if self._draining:
            return ShedDecision(reason="draining", retry_after_s=1.0)
        state = self._state(tenant)
        queue = state.queues[lane]
        if len(queue) >= state.config.max_backlog:
            return ShedDecision(
                reason="backlog",
                retry_after_s=self._backlog_eta(len(queue), cost),
            )
        if not state.bucket.try_take(cost):
            return ShedDecision(
                reason="rate",
                retry_after_s=max(state.bucket.time_until(cost), 1e-3),
            )
        tag = max(self._vtime[lane], state.finish[lane]) + cost / state.config.weight
        state.finish[lane] = tag
        self._seq += 1
        queue.append(Admitted(tenant=tenant, lane=lane, item=item, seq=self._seq, finish_tag=tag))
        self._queued[lane] += 1
        return None

    def _backlog_eta(self, depth: int, cost: float) -> float:
        rate = self._drain_rate() if self._drain_rate is not None else 0.0
        if rate <= 0:
            return 0.1
        return min(max((depth * cost) / rate, 1e-3), 30.0)

    # -- scheduling ----------------------------------------------------------
    def next(self, *, allow_backfill: bool = True) -> Optional[Admitted]:
        """Pop the WFQ-next request: realtime first, then (optionally) backfill."""
        entry = self._pop_lane("realtime")
        if entry is None and allow_backfill:
            entry = self._pop_lane("backfill")
        return entry

    def _pop_lane(self, lane: str) -> Optional[Admitted]:
        if not self._queued[lane]:
            return None
        best: Optional[_TenantState] = None
        for state in self._tenants.values():
            queue = state.queues[lane]
            if not queue:
                continue
            if best is None or queue[0].finish_tag < best.queues[lane][0].finish_tag:
                best = state
        if best is None:
            return None
        entry = best.queues[lane].popleft()
        self._queued[lane] -= 1
        self._vtime[lane] = entry.finish_tag
        return entry

    # -- introspection -------------------------------------------------------
    def backlog(self, lane: Optional[str] = None, tenant: Optional[str] = None) -> int:
        """Queued-but-undispatched requests, filtered by lane and/or tenant."""
        lanes = LANES if lane is None else (lane,)
        if tenant is None:
            return sum(self._queued[ln] for ln in lanes)
        state = self._tenants.get(tenant)
        return sum(len(state.queues[ln]) for ln in lanes) if state is not None else 0

    def tenants(self) -> List[str]:
        return sorted(self._tenants)
