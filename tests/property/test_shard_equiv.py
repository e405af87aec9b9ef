"""Sharded-CAL equivalence and isolation properties.

1. Partitioning is invisible to consumers of the DoV: a sharded CAL
   and a flat one, driven through the same seeded deploy / teardown /
   heal churn, end with byte-identical stitched views — and after
   every step each one's derived state matches a from-scratch
   re-derivation (``cal.verify()``).
2. Resilience bookkeeping is shard-local: a breaker tripping in one
   shard never queues replays (or trips breakers) in another, even
   while planned pushes keep flowing through the healthy shard.

Both properties also run under the runtime sanitizer: the per-shard
pending locks must not introduce lock-order inversions or blocking
calls under a lock.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import sanitize
from repro.orchestration import EscapeOrchestrator
from repro.resilience import BreakerState

from tests.property.test_incremental_dov import canonical
from tests.test_cal_shards import CountingAdapter, _pinned_service, domain_view

DOMAINS = ["d0", "d1", "d2", "d3", "d4"]


def _escape(shards):
    escape = EscapeOrchestrator(f"equiv-{shards}", cal_shards=shards)
    escape.cal.breaker_failure_threshold = 2
    adapters = {name: escape.add_domain(
        CountingAdapter(name, domain_view(name))) for name in DOMAINS}
    return escape, adapters


def _run_churn(escape, operations):
    for kind, index, domain_index in operations:
        service_id = f"s{index}"
        deployed = service_id in escape.cal.deployed_services()
        if kind == "deploy" and not deployed:
            escape.deploy(_pinned_service(index, DOMAINS[domain_index]),
                          wait_activation=False)
        elif kind == "teardown" and deployed:
            escape.teardown(service_id)
        elif kind == "heal":
            escape.heal()
        assert escape.cal.verify() == []


churn = st.lists(
    st.tuples(st.sampled_from(["deploy", "teardown", "heal"]),
              st.integers(0, 3),
              st.integers(0, len(DOMAINS) - 1)),
    min_size=2, max_size=10)


@given(churn)
@settings(max_examples=15, deadline=None)
def test_sharded_dov_equals_flat_dov_under_churn(operations):
    sharded, _ = _escape(3)
    flat, _ = _escape(1)
    _run_churn(sharded, operations)
    _run_churn(flat, operations)
    assert canonical(sharded.cal.dov) == canonical(flat.cal.dov)
    assert canonical(sharded.cal.resource_view()) \
        == canonical(flat.cal.resource_view())
    assert sharded.cal.deployed_services() == flat.cal.deployed_services()


def test_breaker_trip_stays_inside_its_shard():
    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        escape = EscapeOrchestrator(
            "isolation", cal_shards=2,
            cal_shard_map={"d0": 0, "d1": 0, "d2": 1})
        escape.cal.breaker_failure_threshold = 2
        adapters = {name: escape.add_domain(
            CountingAdapter(name, domain_view(name)))
            for name in ("d0", "d1", "d2")}
        cal = escape.cal

        # hammer d2 until its breaker opens, deploying into d0 between
        # failures so the healthy shard keeps taking planned pushes
        adapters["d2"].broken = True
        assert not escape.deploy(_pinned_service(0, "d2"),
                                 wait_activation=False)
        assert escape.deploy(_pinned_service(1, "d0"),
                             wait_activation=False)
        assert cal.breakers["d2"].state is BreakerState.OPEN

        # the trip is shard-local: shard 0 holds no replay debt and
        # its members' breakers never moved
        shard0 = cal.shards[cal.shard_of("d0")]
        shard1 = cal.shards[cal.shard_of("d2")]
        assert shard0 is not shard1
        with shard0.lock:
            assert shard0.pending == set()
        with shard1.lock:
            assert shard1.pending == {"d2"}
        for name in ("d0", "d1"):
            assert cal.breakers[name].state is BreakerState.CLOSED

        # recovery drains only the indebted shard's queue
        adapters["d2"].broken = False
        cal.reconcile(force_probe=True)
        assert cal.pending_reconciliation() == set()
        assert cal.breakers["d2"].state is BreakerState.CLOSED
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    report = state.report()
    assert report.acquisitions > 0
    assert report.ok(), report.render_text()


def test_churn_on_sharded_cal_is_sanitizer_clean():
    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        escape, _ = _escape(3)
        _run_churn(escape, [("deploy", i, i % len(DOMAINS))
                            for i in range(4)]
                   + [("heal", 0, 0), ("teardown", 1, 0),
                      ("deploy", 1, 2)])
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    report = state.report()
    assert report.acquisitions > 0
    assert report.locks_seen >= 3
    assert report.ok(), report.render_text()
