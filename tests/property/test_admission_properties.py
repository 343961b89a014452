"""Property-based tests (hypothesis) for the admission controller's books.

``AdmissionController.backlog`` reads per-lane counts that ``offer`` and
the WFQ pop keep up to date instead of summing every tenant's queues;
after any sequence of offers, pops and a drain those counts must equal
the sums over the queues themselves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.admission import AdmissionController, TenantConfig
from repro.serve.protocol import LANES

_TENANTS = [f"t{i}" for i in range(12)]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.sampled_from(_TENANTS), st.sampled_from(LANES)),
        st.tuples(st.just("next"), st.booleans(), st.just(None)),
        st.tuples(st.just("drain"), st.just(None), st.just(None)),
    ),
    max_size=120,
)


def _queued(ctl: AdmissionController, lane=None, tenant=None) -> int:
    """The backlog as the sum over the tenants' queues (the definition)."""
    lanes = LANES if lane is None else (lane,)
    return sum(
        len(state.queues[ln])
        for name, state in ctl._tenants.items()
        if tenant is None or name == tenant
        for ln in lanes
    )


class TestBacklogBooks:
    @given(_OPS)
    @settings(max_examples=100, deadline=None)
    def test_backlog_equals_queue_sums(self, ops):
        ctl = AdmissionController(
            [TenantConfig(name, weight=1.0 + i % 3, max_backlog=4) for i, name in
             enumerate(_TENANTS[:6])],
            default_config=TenantConfig("default", burst=1e6, max_backlog=3),
        )
        for kind, a, b in ops:
            if kind == "offer":
                ctl.offer(a, b, object())
            elif kind == "next":
                entry = ctl.next(allow_backfill=a)
                if entry is not None:
                    assert entry.lane in LANES
            else:
                ctl.start_draining()
            assert ctl.backlog() == _queued(ctl)
            for lane in LANES:
                assert ctl.backlog(lane=lane) == _queued(ctl, lane=lane)
        for tenant in _TENANTS + ["ghost"]:
            assert ctl.backlog(tenant=tenant) == _queued(ctl, tenant=tenant)
            for lane in LANES:
                assert ctl.backlog(lane=lane, tenant=tenant) == _queued(
                    ctl, lane=lane, tenant=tenant
                )
        # Popping everything empties every count.
        while ctl.next() is not None:
            pass
        assert ctl.backlog() == 0 == _queued(ctl)
