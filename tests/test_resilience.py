"""Tests for the failure model: fault injection, retry/backoff,
per-domain circuit breakers, reconciliation, and domain-outage
evacuation through ``heal()``.
"""

import pytest

from repro import perf
from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.nffg import NFFG, NFFGBuilder, ResourceVector
from repro.nffg.model import DomainType
from repro.orchestration import (
    DirectDomainAdapter,
    DomainUnreachable,
    EmuDomainAdapter,
    EscapeOrchestrator,
)
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    DomainDown,
    FaultError,
    FaultKind,
    FaultPlan,
    FaultTimeout,
    FaultyAdapter,
    RetryPolicy,
    TransientFault,
    is_transient,
)


# -- helpers ----------------------------------------------------------------


def _direct_view(domain_id: str, sap_id: str,
                 supported=("firewall",)) -> NFFG:
    """A one-BiS-BiS domain view with its own SAP."""
    view = NFFG(id=domain_id)
    infra = view.add_infra(
        f"{domain_id}-bb0", domain=DomainType.INTERNAL,
        resources=ResourceVector(cpu=8.0, mem=1024.0, storage=64.0,
                                 bandwidth=1000.0, delay=0.1),
        supported_types=list(supported))
    sap = view.add_sap(sap_id)
    port = infra.add_port(f"sap-{sap_id}")
    view.add_link(sap_id, list(sap.ports)[0], infra.id, port.id,
                  bandwidth=1000.0, delay=0.0)
    return view


def _one_hop_service(service_id: str, sap_id: str) -> "NFFG":
    return (NFFGBuilder(service_id).sap(sap_id)
            .nf(f"{service_id}-nf", "firewall")
            .chain(sap_id, f"{service_id}-nf", bandwidth=1.0).build())


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- RetryPolicy ------------------------------------------------------------


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientFault("blip")
            return "done"

        outcome = RetryPolicy(max_attempts=3).run(flaky)
        assert outcome.success
        assert outcome.value == "done"
        assert outcome.attempts == 3
        assert outcome.backoff_s > 0.0

    def test_non_transient_not_retried(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise KeyError("unknown switch")

        outcome = RetryPolicy(max_attempts=5).run(broken)
        assert not outcome.success
        assert calls["n"] == 1
        assert outcome.attempts == 1
        assert isinstance(outcome.error, KeyError)

    def test_gives_up_after_max_attempts(self):
        outcome = RetryPolicy(max_attempts=3).run(
            lambda: (_ for _ in ()).throw(TransientFault("always")))
        assert not outcome.success
        assert outcome.attempts == 3

    def test_deadline_stops_retrying(self):
        clock = _FakeClock()

        def failing():
            clock.advance(10.0)
            raise TransientFault("slow failure")

        policy = RetryPolicy(max_attempts=10, deadline_s=25.0, clock=clock)
        outcome = policy.run(failing)
        assert not outcome.success
        assert outcome.attempts == 3  # 10s + 10s + 10s > 25s budget

    def test_backoff_grows_and_is_seeded(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.1,
                             backoff_multiplier=2.0, backoff_max_s=10.0,
                             jitter=0.1, seed=42)
        sleeps_a, sleeps_b = [], []
        for sleeps in (sleeps_a, sleeps_b):
            trial = RetryPolicy(**{**policy.__dict__,
                                   "sleep": sleeps.append})
            trial.run(lambda: (_ for _ in ()).throw(TransientFault("x")))
        assert sleeps_a == sleeps_b  # same seed, same jitter
        assert len(sleeps_a) == 3
        assert sleeps_a[0] < sleeps_a[1] < sleeps_a[2]  # exponential
        assert all(0.9 * 0.1 * 2 ** i <= s <= 1.1 * 0.1 * 2 ** i
                   for i, s in enumerate(sleeps_a))

    def test_transient_classification(self):
        assert is_transient(TransientFault("x"))
        assert is_transient(FaultTimeout("x"))
        assert is_transient(TimeoutError("x"))
        assert is_transient(ConnectionError("x"))
        assert not is_transient(DomainDown("x"))
        assert not is_transient(FaultError("x"))
        assert not is_transient(KeyError("x"))


# -- FaultPlan --------------------------------------------------------------


class TestFaultPlan:
    def test_count_and_after(self):
        plan = FaultPlan().add("dom", "push", kind=FaultKind.ERROR,
                               count=2, after=1)
        plan.before("dom", "push")  # call 1: skipped by `after`
        with pytest.raises(TransientFault):
            plan.before("dom", "push")
        with pytest.raises(TransientFault):
            plan.before("dom", "push")
        plan.before("dom", "push")  # exhausted
        assert plan.exhausted()
        assert len(plan.history) == 2

    def test_op_prefix_and_wildcard_matching(self):
        plan = FaultPlan().add("dom", "rpc", kind=FaultKind.DROP, count=1)
        plan.before("dom", "push")  # no match
        with pytest.raises(FaultTimeout):
            plan.before("dom", "rpc:commit")
        wild = FaultPlan().add("*", "*", kind=FaultKind.ERROR, count=1)
        with pytest.raises(TransientFault):
            wild.before("anything", "get_view")

    def test_crash_and_clear(self):
        plan = FaultPlan().crash("dom")
        with pytest.raises(DomainDown):
            plan.before("dom", "push")
        with pytest.raises(DomainDown):
            plan.before("dom", "get_view")
        assert not plan.exhausted()
        plan.clear("dom")
        plan.before("dom", "push")  # revived
        assert plan.exhausted()

    def test_crash_spec_persists_until_cleared(self):
        plan = FaultPlan().add("dom", "push", kind=FaultKind.CRASH)
        with pytest.raises(DomainDown):
            plan.before("dom", "push")
        # the crash latched: even get_view now fails
        with pytest.raises(DomainDown):
            plan.before("dom", "get_view")

    def test_delay_accumulates_virtually(self):
        plan = FaultPlan().add("dom", "push", kind=FaultKind.DELAY,
                               count=2, delay_s=0.5)
        assert plan.before("dom", "push") == 0.5
        assert plan.before("dom", "push") == 0.5
        assert plan.before("dom", "push") == 0.0
        assert plan.virtual_delay_s == 1.0

    def test_random_plan_deterministic(self):
        plan_a = FaultPlan.random_plan(7, ["dom-a", "dom-b"], rate=0.3)
        plan_b = FaultPlan.random_plan(7, ["dom-a", "dom-b"], rate=0.3)
        schedule_a = [(s.domain, s.op, s.kind, s.after)
                      for s in plan_a.specs]
        schedule_b = [(s.domain, s.op, s.kind, s.after)
                      for s in plan_b.specs]
        assert schedule_a == schedule_b
        assert schedule_a  # rate 0.3 over 50 calls: something fires
        different = FaultPlan.random_plan(8, ["dom-a", "dom-b"], rate=0.3)
        assert schedule_a != [(s.domain, s.op, s.kind, s.after)
                              for s in different.specs]


# -- CircuitBreaker ---------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker("dom", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("dom", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_recovery_window(self):
        clock = _FakeClock()
        breaker = CircuitBreaker("dom", failure_threshold=1,
                                 recovery_time_s=30.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(31.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe goes through
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker("dom", failure_threshold=1,
                                 recovery_time_s=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_force_half_open(self):
        breaker = CircuitBreaker("dom", failure_threshold=1,
                                 recovery_time_s=1e9)
        breaker.record_failure()
        assert not breaker.allow()
        breaker.force_half_open()
        assert breaker.state is BreakerState.HALF_OPEN


# -- retries through the adapter stack -------------------------------------


def _single_domain_escape(plan=None, **policy_kwargs):
    escape = EscapeOrchestrator("esc")
    adapter = DirectDomainAdapter("dom", view=_direct_view("dom", "sapA"))
    if plan is not None:
        adapter = FaultyAdapter(adapter, plan)
    if policy_kwargs:
        adapter.retry_policy = RetryPolicy(**policy_kwargs)
    escape.add_domain(adapter)
    return escape, adapter


class TestAdapterRetries:
    def test_deploy_succeeds_through_two_transient_push_failures(self):
        """The acceptance scenario: a seeded FaultPlan injects two
        transient push faults; the default retry budget absorbs them."""
        plan = FaultPlan(seed=3).add("dom", "push",
                                     kind=FaultKind.ERROR, count=2)
        escape, _ = _single_domain_escape(plan)
        report = escape.deploy(_one_hop_service("svc", "sapA"),
                               wait_activation=False)
        assert report.success, report.error
        assert report.resolved_outcome() == "success"
        push = report.adapters[0]
        assert push.attempts == 3
        assert push.backoff_s > 0.0
        assert plan.exhausted()

    def test_retries_exhausted_fails_and_rolls_back(self):
        plan = FaultPlan().add("dom", "push",
                               kind=FaultKind.ERROR, count=10)
        escape, adapter = _single_domain_escape(plan)
        report = escape.deploy(_one_hop_service("svc", "sapA"),
                               wait_activation=False)
        assert not report.success
        assert report.adapters[0].attempts == 3  # default budget
        assert escape.deployed_services() == []

    def test_fatal_fault_not_retried(self):
        plan = FaultPlan().add("dom", "push", kind=FaultKind.FATAL)
        escape, _ = _single_domain_escape(plan)
        report = escape.deploy(_one_hop_service("svc", "sapA"),
                               wait_activation=False)
        assert not report.success
        assert report.adapters[0].attempts == 1

    def test_fetch_view_retries_then_raises_unreachable(self):
        plan = FaultPlan().add("dom", "get_view",
                               kind=FaultKind.DROP, count=1)
        adapter = FaultyAdapter(
            DirectDomainAdapter("dom", view=_direct_view("dom", "sapA")),
            plan)
        view = adapter.fetch_view()  # one drop absorbed by retry
        assert view.infras
        plan.crash("dom")
        with pytest.raises(DomainUnreachable):
            adapter.fetch_view()

    def test_netconf_hook_faults_are_retried(self):
        """Faults injected mid-RPC (through NetconfClient.fault_hook)
        surface as push failures and are absorbed by the retry."""
        net = Network()
        emu = EmulatedDomain("emu", net, node_ids=["bb0", "bb1"],
                             links=[("bb0", "bb1")])
        emu.add_sap("sap1", "bb0")
        emu.add_sap("sap2", "bb1")
        escape = EscapeOrchestrator("esc", simulator=net.simulator)
        adapter = escape.add_domain(EmuDomainAdapter("emu", emu))
        plan = FaultPlan(seed=1).add("emu", "rpc:commit",
                                     kind=FaultKind.ERROR, count=2)
        adapter.client.fault_hook = plan.netconf_hook("emu")
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("svc-nf", "firewall")
                   .chain("sap1", "svc-nf", "sap2", bandwidth=1.0).build())
        report = escape.deploy(service)
        assert report.success, report.error
        assert report.adapters[0].attempts == 3
        assert plan.exhausted()


# -- breaker integration through the CAL ------------------------------------


def _two_domain_escape(threshold=1):
    escape = EscapeOrchestrator("esc")
    escape.cal.breaker_failure_threshold = threshold
    plan = FaultPlan()
    adapter_a = escape.add_domain(
        DirectDomainAdapter("dom-a", view=_direct_view("dom-a", "sapA")))
    adapter_b = escape.add_domain(FaultyAdapter(
        DirectDomainAdapter("dom-b", view=_direct_view("dom-b", "sapB")),
        plan))
    return escape, plan, adapter_a, adapter_b


class TestCircuitBreakerInCAL:
    def test_breaker_trips_and_push_all_skips(self):
        escape, plan, _, _ = _two_domain_escape(threshold=1)
        report = escape.deploy(_one_hop_service("b1", "sapB"),
                               wait_activation=False)
        assert report.success
        plan.crash("dom-b")
        down = escape.deploy(_one_hop_service("b2", "sapB"),
                             wait_activation=False)
        assert not down.success  # hard failure, rolled back
        breaker = escape.cal.breakers["dom-b"]
        assert breaker.state is BreakerState.OPEN
        # next fan-out skips the tripped domain instead of hammering it
        reports = escape.cal.push_all()
        by_domain = {r.domain: r for r in reports}
        assert by_domain["dom-b"].skipped
        assert "circuit open" in by_domain["dom-b"].error
        assert by_domain["dom-a"].success
        assert "dom-b" in escape.cal.pending_reconciliation()
        # dom-b saw pushes only while the breaker admitted them
        assert plan.history[-1].kind is FaultKind.CRASH

    def test_deploy_on_healthy_domain_unaffected_by_open_breaker(self):
        escape, plan, _, _ = _two_domain_escape(threshold=1)
        plan.crash("dom-b")
        escape.cal.push_all()  # trips dom-b's breaker
        assert escape.cal.breakers["dom-b"].state is BreakerState.OPEN
        report = escape.deploy(_one_hop_service("a1", "sapA"),
                               wait_activation=False)
        assert report.success
        assert report.resolved_outcome() == "success"  # dom-b irrelevant

    def test_deploy_touching_open_domain_is_degraded(self):
        escape, plan, _, adapter_b = _two_domain_escape(threshold=1)
        warm = escape.deploy(_one_hop_service("warm", "sapB"),
                             wait_activation=False)
        assert warm.success
        plan.crash("dom-b")
        escape.cal.push_all()  # trips the breaker
        report = escape.deploy(_one_hop_service("b2", "sapB"),
                               wait_activation=False)
        assert report.success  # deployed in the books...
        assert report.resolved_outcome() == "degraded"  # ...not on the wire
        assert "dom-b" in escape.cal.pending_reconciliation()

    def test_reconcile_replays_queued_config_when_domain_returns(self):
        escape, plan, _, adapter_b = _two_domain_escape(threshold=1)
        assert escape.deploy(_one_hop_service("b1", "sapB"),
                             wait_activation=False).success
        plan.crash("dom-b")
        escape.cal.push_all()
        escape.cal.push_all()  # skipped: breaker open
        installs_while_down = adapter_b.installs
        plan.clear("dom-b")
        reports = escape.cal.reconcile(force_probe=True)
        assert [r.domain for r in reports] == ["dom-b"]
        assert reports[0].success
        assert escape.cal.pending_reconciliation() == set()
        assert escape.cal.breakers["dom-b"].state is BreakerState.CLOSED
        assert adapter_b.installs == installs_while_down + 1
        # the replayed cumulative config still contains the service
        assert adapter_b.inner.installed.nfs

    def test_reconcile_without_probe_respects_open_breaker(self):
        escape, plan, _, _ = _two_domain_escape(threshold=1)
        plan.crash("dom-b")
        escape.cal.push_all()
        assert escape.cal.reconcile() == []  # breaker still open
        assert "dom-b" in escape.cal.pending_reconciliation()


# -- rollback / teardown reporting (satellite bugfixes) ----------------------


class TestFailureReporting:
    def test_failed_deploy_records_rollback_reports(self):
        escape, plan, _, _ = _two_domain_escape(threshold=5)
        plan.add("dom-b", "push", kind=FaultKind.FATAL, count=1)
        report = escape.deploy(_one_hop_service("b1", "sapB"),
                               wait_activation=False)
        assert not report.success
        assert report.resolved_outcome() == "failed"
        assert report.rollback  # reconciliation pushes were recorded
        assert {r.domain for r in report.rollback} == {"dom-a", "dom-b"}
        assert all(r.success for r in report.rollback)
        assert report.rollback_failures() == []

    def test_failed_rollback_is_surfaced_not_swallowed(self):
        escape, plan, _, _ = _two_domain_escape(threshold=5)
        # first push fails fatally, and so does the rollback push
        plan.add("dom-b", "push", kind=FaultKind.FATAL, count=2)
        report = escape.deploy(_one_hop_service("b1", "sapB"),
                               wait_activation=False)
        assert not report.success
        assert report.rollback_failures()
        assert "rollback incomplete" in report.error
        assert "dom-b" in report.error

    def test_teardown_reports_push_failures(self):
        escape, plan, _, _ = _two_domain_escape(threshold=5)
        assert escape.deploy(_one_hop_service("b1", "sapB"),
                             wait_activation=False).success
        plan.crash("dom-b")
        report = escape.teardown("b1")
        assert not report.success  # stale state left behind
        assert report.resolved_outcome() == "failed"
        assert "stale state" in report.error
        assert "dom-b" in report.error
        # the service is out of the books regardless
        assert escape.deployed_services() == []

    def test_teardown_clean_path_still_truthy(self):
        escape, plan, _, _ = _two_domain_escape()
        assert escape.deploy(_one_hop_service("b1", "sapB"),
                             wait_activation=False).success
        report = escape.teardown("b1")
        assert report  # boolean callers keep working
        assert report.resolved_outcome() == "success"
        assert not escape.teardown("ghost")

    def test_failed_update_push_restores_previous_version(self):
        escape, plan, _, adapter_b = _two_domain_escape(threshold=5)
        assert escape.deploy(_one_hop_service("b1", "sapB"),
                             wait_activation=False).success
        plan.add("dom-b", "push", kind=FaultKind.FATAL, count=1)
        updated = (NFFGBuilder("b1").sap("sapB")
                   .nf("b1-nf", "firewall").nf("b1-fw2", "firewall")
                   .chain("sapB", "b1-nf", "b1-fw2", bandwidth=1.0).build())
        report = escape.update(updated)
        assert not report.success
        assert "previous version restored" in report.error
        assert report.rollback
        assert escape.deployed_services() == ["b1"]
        # the old single-NF version is back on the domain
        assert [nf.id for nf in adapter_b.inner.installed.nfs] \
            == ["b1-nf"]


# -- domain-outage evacuation through heal() ---------------------------------


@pytest.fixture
def evacuation_testbed():
    """Two stitched emu providers; the NF lands in east first (west
    can't host it yet), then east crashes and west takes over."""
    net = Network()
    west = EmulatedDomain("west", net, node_ids=["west-bb0", "west-bb1"],
                          links=[("west-bb0", "west-bb1")])
    east = EmulatedDomain("east", net, node_ids=["east-bb0", "east-bb1"],
                          links=[("east-bb0", "east-bb1")])
    west.add_sap("sap1", "west-bb0")
    west.add_sap("sap2", "west-bb1")
    (w_node, w_port) = west.add_handoff("peer", "west-bb1")
    (e_node, e_port) = east.add_handoff("peer", "east-bb0")
    net.connect(w_node, w_port, e_node, e_port,
                bandwidth_mbps=1000.0, delay_ms=2.0)
    west.supported_types = ["monitor"]  # east must host the firewall
    escape = EscapeOrchestrator("esc", simulator=net.simulator)
    escape.cal.breaker_failure_threshold = 1
    plan = FaultPlan()
    escape.add_domain(EmuDomainAdapter("west", west))
    escape.add_domain(FaultyAdapter(EmuDomainAdapter("east", east), plan))
    return net, west, east, escape, plan


class TestDomainOutageEvacuation:
    def test_heal_evacuates_services_off_a_dead_domain(
            self, evacuation_testbed):
        net, west, east, escape, plan = evacuation_testbed
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("svc-nf", "firewall")
                   .chain("sap1", "svc-nf", "sap2", bandwidth=1.0).build())
        report = escape.deploy(service)
        assert report.success, report.error
        assert report.mapping.nf_placement["svc-nf"].startswith("east")

        # east dies; west becomes able to host the NF (capacity exists)
        west.supported_types = ["monitor", "firewall"]
        plan.crash("east")
        escape.cal.push_all()  # trips east's breaker (threshold 1)
        assert escape.cal.breakers["east"].state is BreakerState.OPEN

        reports = escape.heal()
        assert set(reports) == {"svc"}
        healed = reports["svc"]
        assert healed.success, healed.error
        assert healed.mapping.nf_placement["svc-nf"].startswith("west")
        # east is quarantined: its skipped report is not attached
        # (it is not relevant to the evacuated placement)
        assert all(r.domain == "west" for r in healed.adapters)
        assert all(r.success for r in healed.adapters)
        assert healed.resolved_outcome() == "success"
        assert perf.snapshot("resilience.heal")

    def test_heal_reports_unevacuable_service(self, evacuation_testbed):
        net, west, east, escape, plan = evacuation_testbed
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("svc-nf", "firewall")
                   .chain("sap1", "svc-nf", "sap2", bandwidth=1.0).build())
        assert escape.deploy(service).success
        # west still cannot host firewalls: nowhere to evacuate to
        plan.crash("east")
        escape.cal.push_all()
        reports = escape.heal()
        assert not reports["svc"].success
        assert "heal failed" in reports["svc"].error

    def test_heal_attaches_only_relevant_reports(self, evacuation_testbed):
        """A healed west-only service gets west's push report — not
        east's, and a service that failed to re-map gets none."""
        net, west, east, escape, plan = evacuation_testbed
        west.supported_types = ["monitor", "forwarder"]
        west_only = (NFFGBuilder("local").sap("sap1").sap("sap2")
                     .nf("local-nf", "monitor")
                     .chain("sap1", "local-nf", "sap2",
                            bandwidth=1.0).build())
        cross = (NFFGBuilder("cross").sap("sap1").sap("sap2")
                 .nf("cross-nf", "firewall")
                 .chain("sap1", "cross-nf", "sap2", bandwidth=1.0).build())
        assert escape.deploy(west_only).success
        report = escape.deploy(cross)
        assert report.success, report.error
        assert report.mapping.nf_placement["cross-nf"].startswith("east")
        plan.crash("east")
        escape.cal.push_all()
        reports = escape.heal()
        # cross is stranded (east gone, west can't host firewalls);
        # local is re-mapped because its east-crossing... it is not
        # broken at all unless its routes touched east — so only cross
        # appears, with no adapter reports attached.
        assert "cross" in reports
        assert not reports["cross"].success
        assert reports["cross"].adapters == []


# -- fault-free paths stay clean ---------------------------------------------


class TestNoOverheadWhenHealthy:
    def test_no_resilience_counters_on_clean_deploy(self):
        perf.reset("resilience.")
        escape, _ = _single_domain_escape()
        report = escape.deploy(_one_hop_service("svc", "sapA"),
                               wait_activation=False)
        assert report.success
        assert report.adapters[0].attempts == 1
        assert report.adapters[0].backoff_s == 0.0
        assert perf.snapshot("resilience.") == {}
        assert escape.cal.pending_reconciliation() == set()
        assert all(b.state is BreakerState.CLOSED
                   for b in escape.cal.breakers.values())
