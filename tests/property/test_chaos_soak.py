"""Seeded chaos soak: the control plane converges under injected faults.

A random sequence of deploy / update / teardown operations runs against
a single-domain orchestrator whose adapter is wrapped in a
:class:`FaultyAdapter` driven by a seeded :class:`FaultPlan.random_plan`
schedule (transient errors and dropped pushes).  Retries absorb most
faults; the rest fail pushes, trip the breaker, and queue the domain
for reconciliation.  After the storm passes (the plan is cleared and
the queue drained), two invariants must hold:

1. the incrementally maintained derived state equals a from-scratch
   re-derivation (``cal.verify()`` — checked after every operation of
   the storm too, not just at the end);
2. the domain's installed configuration matches the books — and after
   tearing everything down, no orphaned NFs or flow rules remain.

``REPRO_CHAOS_SMOKE=1`` shrinks the example budget for the CI smoke
job; the default budget suits a local tier-1 run.
"""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import perf
from repro.nffg.builder import mesh_substrate
from repro.orchestration import DirectDomainAdapter, EscapeOrchestrator
from repro.recovery import (
    CrashPlan,
    IntentJournal,
    OrchestratorCrash,
    recover,
)
from repro.resilience import BreakerState, FaultKind, FaultPlan, FaultyAdapter
from repro.service import ServiceRequestBuilder

MAX_EXAMPLES = 6 if os.environ.get("REPRO_CHAOS_SMOKE") else 20


def _chain_service(index: int, length: int = 1):
    builder = (ServiceRequestBuilder(f"c{index}")
               .sap("sap1").sap("sap2"))
    names = [f"c{index}n{j}" for j in range(length)]
    for name in names:
        builder.nf(name, "firewall", cpu=0.5, mem=32.0)
    builder.chain("sap1", *names, "sap2", bandwidth=1.0)
    return builder.build().sg


def _chaos_escape(plan: FaultPlan, journal: IntentJournal | None = None):
    escape = EscapeOrchestrator("chaos", journal=journal)
    escape.cal.breaker_failure_threshold = 2
    inner = DirectDomainAdapter(
        "dom", view=mesh_substrate(12, degree=3, seed=5,
                                   supported_types=["firewall"]))
    escape.add_domain(FaultyAdapter(inner, plan))
    return escape, inner


def _run_ops(escape, operations):
    for kind, index in operations:
        service_id = f"c{index}"
        deployed = service_id in escape.cal.deployed_services()
        if kind == "teardown":
            if deployed:
                escape.teardown(service_id)
        elif kind == "update" and deployed:
            escape.update(_chain_service(index, 2))
        elif kind == "deploy" and not deployed:
            escape.deploy(_chain_service(index), wait_activation=False)
        assert escape.cal.verify() == []


def _drain(escape, plan):
    """End the storm: revive the domain and replay queued config."""
    plan.clear("dom")
    plan.specs.clear()  # retire any unfired schedule entries
    for _ in range(5):
        escape.cal.reconcile(force_probe=True)
        if not escape.cal.pending_reconciliation():
            break
    assert escape.cal.pending_reconciliation() == set()
    assert all(b.state is BreakerState.CLOSED
               for b in escape.cal.breakers.values())


ops = st.lists(
    st.tuples(st.sampled_from(["deploy", "teardown", "update"]),
              st.integers(0, 3)),
    min_size=2, max_size=10)


@given(ops, st.integers(0, 2 ** 16))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_chaos_soak_converges(operations, seed):
    plan = FaultPlan.random_plan(seed, ["dom"], ops=("push",),
                                 rate=0.25, length=60)
    escape, inner = _chaos_escape(plan)
    _run_ops(escape, operations)
    _drain(escape, plan)

    # 1. derived state == from-scratch re-derivation (post-storm)
    assert escape.cal.verify() == []

    # 2. the domain holds exactly the booked services' footprint...
    deployed = set(escape.cal.deployed_services())
    last = inner.installed
    if last is not None:
        booked_nfs = {nf_id
                      for service_id in deployed
                      for nf_id in escape.cal.snapshot_service(
                          service_id)[1].nf_placement}
        assert {nf.id for nf in last.nfs} == booked_nfs

    # ...and after tearing everything down, nothing is orphaned
    for service_id in sorted(deployed):
        report = escape.teardown(service_id)
        assert report, report.error
    if inner.installed:
        final = inner.installed
        assert not final.nfs
        assert all(not rule_port.flowrules
                   for infra in final.infras
                   for rule_port in infra.ports.values())


@given(ops, st.integers(0, 2 ** 16), st.integers(0, 5))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_chaos_soak_with_mid_storm_outage(operations, seed, crash_at):
    """Same invariants when the domain hard-crashes mid-sequence: the
    breaker trips, later pushes are skipped, and reconciliation after
    the domain returns still converges to the booked state."""
    plan = FaultPlan.random_plan(seed, ["dom"], ops=("push",),
                                 rate=0.15, length=60)
    escape, inner = _chaos_escape(plan)
    before = operations[:crash_at]
    after = operations[crash_at:]
    _run_ops(escape, before)
    plan.crash("dom")
    _run_ops(escape, after)
    _drain(escape, plan)
    assert escape.cal.verify() == []
    deployed = set(escape.cal.deployed_services())
    if inner.installed:
        booked_nfs = {nf_id
                      for service_id in deployed
                      for nf_id in escape.cal.snapshot_service(
                          service_id)[1].nf_placement}
        assert {nf.id for nf in inner.installed.nfs} == booked_nfs


@pytest.mark.skipif(not os.environ.get("REPRO_CHAOS_CRASH"),
                    reason="REPRO_CHAOS_CRASH not set (CI recovery leg)")
@given(ops, st.integers(0, 2 ** 16))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_chaos_soak_with_crash_recovery(operations, seed):
    """The storm plus a process crash: the orchestrator dies between
    two seeded journal appends while pushes are randomly failing, a
    successor recovers from the journal *under the same storm*, and
    after the weather clears the usual convergence invariants hold on
    the successor."""
    plan = FaultPlan.random_plan(seed, ["dom"], ops=("push",),
                                 rate=0.25, length=60)
    journal = IntentJournal()
    journal.crash_plan = CrashPlan.random_plan(
        seed, horizon=3 * len(operations) + 2)
    escape, inner = _chaos_escape(plan, journal=journal)
    try:
        _run_ops(escape, operations)
    except OrchestratorCrash:
        pass

    report = recover(journal, list(escape.cal.adapters.values()),
                     name="chaos-successor")
    successor = report.orchestrator
    _drain(successor, plan)

    assert successor.cal.verify() == []
    deployed = set(successor.cal.deployed_services())
    if inner.installed:
        booked_nfs = {nf_id
                      for service_id in deployed
                      for nf_id in successor.cal.snapshot_service(
                          service_id)[1].nf_placement}
        assert {nf.id for nf in inner.installed.nfs} == booked_nfs


def test_chaos_counters_record_the_storm():
    """A sanity anchor for the smoke job: a stormy run leaves visible
    fingerprints in the resilience counters."""
    perf.reset("resilience.")
    plan = FaultPlan.random_plan(11, ["dom"], ops=("push",),
                                 rate=0.5, length=60,
                                 kinds=(FaultKind.ERROR,))
    escape, _ = _chaos_escape(plan)
    _run_ops(escape, [("deploy", i) for i in range(4)])
    _drain(escape, plan)
    snap = perf.snapshot("resilience.")
    assert snap.get("resilience.faults.injected", 0) > 0
    assert snap.get("resilience.retry.attempts", 0) > 0


def test_chaos_storm_is_sanitizer_clean():
    """A whole storm under the runtime sanitizer yields zero reports:
    no lock-order inversions, no blocking under a non-exempt lock, no
    hold-time outliers.  The testbed is built *after* enabling, so
    every control-plane lock is tracked."""
    from repro import sanitize

    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        plan = FaultPlan.random_plan(23, ["dom"], ops=("push",),
                                     rate=0.4, length=60)
        escape, _ = _chaos_escape(plan)
        _run_ops(escape, [("deploy", index) for index in range(4)]
                 + [("update", 1), ("teardown", 2), ("deploy", 2)])
        _drain(escape, plan)
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    report = state.report()
    assert report.acquisitions > 0       # the instrumentation saw the run
    assert report.locks_seen >= 3
    assert report.ok(), report.render_text()


def test_global_sanitizer_state_is_clean():
    """CI gate for the REPRO_SANITIZE=1 smoke job: everything tracked
    by the import-time global state across this test session must be
    violation-free."""
    from repro import sanitize

    if not sanitize.enabled():
        pytest.skip("REPRO_SANITIZE not set")
    report = sanitize.state().report()
    assert report.ok(), report.render_text()
