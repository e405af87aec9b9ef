"""Property-based equivalence of delta and full-config pushes.

The delta path is an optimization, never a semantic change: after any
random deploy / update / teardown sequence — including a mid-sequence
breaker trip that forces a full-config resync — every domain's
installed (running) configuration must be byte-identical to what an
all-full-push run of the same sequence installs.

The same holds one layer down.  Over the Fig. 1 testbed every switch's
flow table must, after every step of a seeded deploy / update /
teardown / heal / breaker-trip / crash+recover sequence, equal what
wiping the switch and reinstalling the cumulative install config from
scratch would leave — that reference (how the orchestrators used to
program switches) is computed here, on scratch switches.  And while
neighbours come and go, an established chain's entries are never
deleted or replaced, their counters never fall, and its traffic never
drops.
"""

import itertools
import json
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import perf
from repro.cloud.odl import OdlController
from repro.infra.flowprog import install_rules, program_infra_flows
from repro.infra.tags import vlan_for_hop
from repro.netconf.server import NetconfServer
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg.builder import mesh_substrate
from repro.nffg.model import DomainType
from repro.openflow import ControllerEndpoint, OpenFlowSwitch
from repro.openflow.flowtable import FlowTable
from repro.orchestration.adapters import _NetconfAdapter
from repro.orchestration.cal import ControllerAdaptationLayer
from repro.orchestration.ro import ResourceOrchestrator
from repro.recovery import CrashPlan, OrchestratorCrash, recover
from repro.resilience.breaker import BreakerState
from repro.resilience.retry import RetryPolicy
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain


class _StubNetconfAdapter(_NetconfAdapter):
    """NETCONF adapter over a plain in-memory server.

    ``full`` turns the delta machinery off (the all-full control run:
    nothing stays acknowledged); ``fail_next`` makes the next N pushes
    raise before anything reaches the server (breaker fodder)."""

    retry_policy = RetryPolicy(max_attempts=1)

    def __init__(self, name, view, *, full=False):
        self._view = view
        self.full = full
        self.fail_next = 0
        self.server = NetconfServer(f"{name}-server")
        super().__init__(name, DomainType.INTERNAL, self.server)

    def get_view(self):
        return self._view.copy()

    def _do_push(self, install, touched=None):
        if self.fail_next > 0:
            self.fail_next -= 1
            raise RuntimeError("injected push failure")
        if self.full:
            self.reset_delta_state()
        return super()._do_push(install, touched)


def _chain_request(index: int, length: int):
    builder = (ServiceRequestBuilder(f"q{index}")
               .sap("sap1").sap("sap2"))
    names = [f"q{index}n{j}" for j in range(length)]
    for name in names:
        builder.nf(name, "firewall", cpu=0.5, mem=32.0)
    builder.chain("sap1", *names, "sap2", bandwidth=1.0)
    return builder.build().sg


class _Universe:
    """One orchestration stack: CAL + stub NETCONF domain + RO."""

    def __init__(self, *, full: bool):
        mesh = mesh_substrate(12, degree=3, seed=5,
                              supported_types=["firewall"])
        self.cal = ControllerAdaptationLayer()
        self.adapter = self.cal.register(
            _StubNetconfAdapter("dom", mesh, full=full))
        self.ro = ResourceOrchestrator()

    def apply(self, kind: str, index: int) -> None:
        service_id = f"q{index}"
        deployed = service_id in self.cal.deployed_services()
        if kind == "teardown":
            self.cal.remove_service(service_id)
            return
        if kind == "update" and deployed:
            snapshot = self.cal.snapshot_service(service_id)
            self.cal.remove_service(service_id)
            result = self.ro.orchestrate(_chain_request(index, 2),
                                         self.cal.resource_view())
            if result.success:
                self.cal.commit_mapping(service_id, result.service, result)
            else:
                self.cal.restore_service(service_id, snapshot)
            return
        if deployed:
            return
        result = self.ro.orchestrate(_chain_request(index, 1),
                                     self.cal.resource_view())
        if result.success:
            self.cal.commit_mapping(service_id, result.service, result)

    def push(self) -> None:
        reports = self.cal.push_all()
        assert all(report.success for report in reports), reports

    def installed_bytes(self) -> bytes:
        """The running config in its canonical wire form — the same
        form both push modes digest, so equality here is the byte-level
        contract the delta protocol guarantees."""
        return self.adapter.server.running.tree.to_json().encode()

    def trip_breaker_and_recover(self) -> None:
        """Fail enough pushes to open the breaker, then heal the domain
        and reconcile: the replay re-establishes the delta base with a
        forced full-config resync."""
        threshold = self.cal.breaker_failure_threshold
        self.adapter.fail_next = threshold
        for _ in range(threshold):
            reports = self.cal.push_all()
            assert not reports[0].success
        assert self.cal.breakers["dom"].state is BreakerState.OPEN
        replays = self.cal.reconcile(force_probe=True)
        assert replays and all(report.success for report in replays)


ops = st.lists(
    st.tuples(st.sampled_from(["deploy", "update", "teardown"]),
              st.integers(0, 2)),
    min_size=1, max_size=6)


@given(ops, st.integers(0, 5))
@settings(max_examples=15, deadline=None)
def test_delta_sequence_matches_all_full_run(operations, trip_at):
    delta = _Universe(full=False)
    full = _Universe(full=True)
    trip_step = min(trip_at, len(operations) - 1)
    for step, (kind, index) in enumerate(operations):
        delta.apply(kind, index)
        full.apply(kind, index)
        if step == trip_step:
            delta.trip_breaker_and_recover()
        delta.push()
        full.push()
        assert delta.installed_bytes() == full.installed_bytes()
    # tear everything down: the final (service-free) configs agree too
    for service_id in list(delta.cal.deployed_services()):
        delta.cal.remove_service(service_id)
        full.cal.remove_service(service_id)
    delta.push()
    full.push()
    assert delta.installed_bytes() == full.installed_bytes()


def test_deploy_update_teardown_with_trip_uses_deltas():
    """The deterministic spine of the property: the delta universe
    actually ships edit-config patches (this is not a vacuous pass
    where everything went out full), and still matches the full run."""
    perf.reset("push.")
    delta = _Universe(full=False)
    full = _Universe(full=True)
    script = [("deploy", 0), ("deploy", 1), ("update", 0),
              ("teardown", 1), ("deploy", 2)]
    for step, (kind, index) in enumerate(script):
        delta.apply(kind, index)
        full.apply(kind, index)
        if step == 2:
            delta.trip_breaker_and_recover()
        delta.push()
        full.push()
        assert delta.installed_bytes() == full.installed_bytes()
    snapshot = perf.snapshot("push.")
    assert snapshot.get("push.delta", 0) >= 2
    # the recovery replay after the trip went out as a full resync
    assert snapshot.get("push.full", 0) >= 2


# -- Fig. 1: flow tables equal the wipe-and-reinstall reference ---------------

SAP_PAIRS = list(itertools.permutations(("sap1", "sap2", "sap3"), 2))


def _service(index: int, pair: tuple[str, str], nfs: int, bandwidth: float):
    src, dst = pair
    prefix = f"svc{index}"
    builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
    names = [f"{prefix}-{kind}" for kind in ("firewall", "nat")[:nfs]]
    for name in names:
        builder.nf(name, name.rpartition("-")[2])
    builder.chain(src, *names, dst, bandwidth=bandwidth,
                  flowclass=f"tp_dst={10000 + index}")
    return builder.build().sg


def _table(switch) -> Counter:
    return Counter(
        (entry.match, entry.priority, entry.cookie,
         json.dumps([action.to_dict() for action in entry.actions]))
        for entry in switch.table.entries())


def _scratch_switch(dpid: str):
    network = Network()
    switch = network.add(OpenFlowSwitch(dpid, network.simulator))
    controller = ControllerEndpoint("reference", simulator=network.simulator)
    controller.connect_switch(switch)
    return switch, controller


def _reinstalled(dpid: str, infra) -> Counter:
    """The table of ``dpid`` after a wipe and a reinstall of every flow
    rule of ``infra``: what every push used to do."""
    switch, controller = _scratch_switch(dpid)
    controller.delete_flows(dpid)
    program_infra_flows(controller, dpid, infra)
    controller.barrier(dpid)
    return _table(switch)


def _reinstalled_fabric(testbed, orchestrator, install) -> dict[str, Counter]:
    """The cloud fabric's tables after every path of ``install`` went
    through a fresh ODL controller over a copy of the fabric (ports and
    transport VLANs as the orchestrator assigned them: those are
    placements, the config does not say them)."""
    network = Network()
    odl = OdlController("reference", simulator=network.simulator)
    switches = {}
    for dpid in testbed.cloud.odl.endpoint.connected_dpids():
        switches[dpid] = network.add(OpenFlowSwitch(dpid, network.simulator))
        odl.connect(switches[dpid])
    for src, dst, data in testbed.cloud.odl.graph.edges(data=True):
        odl.graph.add_edge(src, dst, **data)
    bisbis = testbed.cloud.bisbis_id
    if install.has_node(bisbis):
        for (_, port_id), rules in install_rules(install).items():
            for key, rule in rules.items():
                ingress = orchestrator._resolve_port(port_id)
                egress = orchestrator._resolve_port(
                    rule.action_fields()["output"])
                match, action = rule.match_fields(), rule.action_fields()
                match_vlan = (vlan_for_hop(match["tag"])
                              if "tag" in match else None)
                egress_vlan = (vlan_for_hop(action["tag"])
                               if "tag" in action
                               else None if "untag" in action else match_vlan)
                odl.install_path(
                    ingress_dpid=ingress[0], ingress_port=ingress[1],
                    egress_dpid=egress[0], egress_port=egress[1],
                    flowclass=match.get("flowclass", ""),
                    transport_vlan=orchestrator._transport_vlans[port_id][
                        f"{port_id}:{key}"],  # by flow entry key
                    match_vlan=match_vlan, egress_vlan=egress_vlan,
                    cookie=rule.hop_id)
    return {dpid: _table(switch) for dpid, switch in switches.items()}


def _assert_tables_match_reference(testbed, escape, step) -> None:
    testbed.run()  # let in-flight control messages land
    cal = escape.cal
    cal._prepare_push()
    installs = {name: cal._install_for(adapter)
                for name, adapter in cal.adapters.items()}
    for domain, switches in (("emu", testbed.emu.switches),
                             ("sdn", testbed.sdn.switches)):
        for dpid, switch in switches.items():
            install = installs[domain]
            wanted = (_reinstalled(dpid, install.infra(dpid))
                      if install.has_node(dpid) else Counter())
            assert _table(switch) == wanted, (step, dpid)
    install = installs["un"]
    wanted = (_reinstalled(testbed.un.lsi.dpid,
                           install.infra(testbed.un.bisbis_id))
              if install.has_node(testbed.un.bisbis_id) else Counter())
    assert _table(testbed.un.lsi) == wanted, (step, "un")
    fabric = _reinstalled_fabric(
        testbed, cal.adapters["cloud"].orchestrator, installs["cloud"])
    for dpid, wanted in fabric.items():
        switch = testbed.network.nodes[dpid]
        assert _table(switch) == wanted, (step, dpid)


def _fig1_with_detour():
    """Fig. 1 with a third emulated switch and a chord, so that failing
    the chord gives heal something to re-route."""
    testbed = build_reference_multidomain(emu_switches=3)
    testbed.emu.add_link("emu-bb0", "emu-bb2")
    testbed.escape.cal.mark_stale()
    return testbed


def _trip_and_resync(escape, name: str) -> None:
    """Fail one domain's pushes until its breaker opens, then let the
    operator-forced reconcile resync it in full."""
    cal = escape.cal
    adapter = cal.adapters[name]
    original = adapter._do_push

    def failing(install, touched=None):
        raise RuntimeError("injected push failure")

    adapter._do_push = failing
    try:
        for _ in range(cal.breaker_failure_threshold):
            cal.push_all()
    finally:
        adapter._do_push = original
    assert cal.breakers[name].state is BreakerState.OPEN
    replays = cal.reconcile(force_probe=True)
    assert replays and all(report.success for report in replays)


def _fig1_sequence(seed):
    """A seeded deploy / update / teardown / heal / breaker-trip /
    crash+recover sequence over Fig. 1 with the detour: yields
    ``((step, kind), testbed, escape)`` once built and after every step
    (``escape`` changes at the crash: the recovered successor)."""
    rng = random.Random(seed)
    testbed = _fig1_with_detour()
    escape = testbed.escape
    live: dict[int, tuple] = {}
    chord_up = True
    counter = itertools.count()
    script = (["deploy"] * 4 + ["update"] * 2 + ["teardown"] * 2
              + ["heal"] * 2 + ["trip", "crash"])
    rng.shuffle(script)
    script = ["deploy"] * 3 + script
    try:
        yield (-1, "built"), testbed, escape
        for step, kind in enumerate(script):
            if kind in ("update", "teardown") and not live:
                kind = "deploy"
            if kind == "deploy":
                index = next(counter)
                spec = (rng.choice(SAP_PAIRS), 2, float(rng.randint(1, 4)))
                if escape.deploy(_service(index, *spec)).success:
                    live[index] = spec
            elif kind == "update":
                index = rng.choice(sorted(live))
                pair, nfs, bandwidth = live[index]
                spec = (pair, 3 - nfs, 5.0 - bandwidth)
                if escape.update(_service(index, *spec)).success:
                    live[index] = spec
            elif kind == "teardown":
                index = rng.choice(sorted(live))
                assert escape.teardown(f"svc{index}").success
                del live[index]
            elif kind == "heal":
                chord_up = not chord_up
                (testbed.network.restore_link if chord_up
                 else testbed.network.fail_link)("emu-bb0", "emu-bb2")
                escape.heal()
            elif kind == "trip":
                _trip_and_resync(escape, rng.choice(["emu", "cloud", "un"]))
            elif kind == "crash":
                # dies between the per-domain outcome records of a
                # deploy: some domains hold it, the books never will
                escape.journal.crash_plan = CrashPlan(at=rng.randint(1, 4))
                with pytest.raises(OrchestratorCrash):
                    escape.deploy(_service(next(counter), SAP_PAIRS[0], 2, 1.0))
                escape.cal.dispatcher.shutdown()
                report = recover(escape.journal,
                                 list(escape.cal.adapters.values()),
                                 simulator=testbed.network.simulator)
                assert report.ok()
                escape = report.orchestrator
            assert sorted(escape.deployed_services()) == [
                f"svc{index}" for index in sorted(live)]
            yield (step, kind), testbed, escape
    finally:
        escape.cal.dispatcher.shutdown()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fig1_flow_tables_equal_wipe_and_reinstall_reference(seed):
    for step, testbed, escape in _fig1_sequence(seed):
        _assert_tables_match_reference(testbed, escape, step)


# -- Fig. 1: an established chain is never touched ------------------------------


def test_resident_chain_untouched_by_neighbours(monkeypatch):
    testbed = build_reference_multidomain()
    escape = testbed.escape
    # control messages take virtual time: a delete that reached a switch
    # before the matching add would show as lost probes
    endpoints = [testbed.sdn.pox.endpoint, testbed.cloud.odl.endpoint,
                 escape.cal.adapters["emu"].orchestrator.controller,
                 escape.cal.adapters["un"].orchestrator.controller]
    for endpoint in endpoints:
        for dpid in endpoint.connected_dpids():
            endpoint._channels[dpid].latency_ms = 0.4
    assert escape.deploy(_service(0, ("sap1", "sap2"), 2, 2.0)).success
    testbed.run()

    def mine(table):
        return [e for e in table._entries if e.cookie.startswith("svc0-")]

    apply_flow_mod = FlowTable.apply_flow_mod

    def watched(table, msg, now=0.0):
        before = mine(table)
        apply_flow_mod(table, msg, now)
        kept = {id(entry) for entry in table._entries}
        assert all(id(entry) in kept for entry in before), (
            f"{msg.command.value} {msg.match} removed or replaced an entry "
            "of the resident chain")

    monkeypatch.setattr(FlowTable, "apply_flow_mod", watched)
    tables = [node.table for node in testbed.network.nodes.values()
              if isinstance(node, OpenFlowSwitch)]
    src, dst = testbed.host("sap1"), testbed.host("sap2")
    sent = 0
    counters: dict[int, int] = {}

    def probe_and_check(label):
        nonlocal sent
        testbed.run()
        assert len(dst.received) == sent, label
        for table in tables:
            for entry in mine(table):
                assert entry.packets >= counters.get(id(entry), 0), label
                counters[id(entry)] = entry.packets
        assert len(counters) == sum(len(mine(table)) for table in tables)

    def stream(count=40):
        """Probes of the resident chain, 1 vms apart, in flight while
        the next operation runs (and waits for its NFs to boot)."""
        nonlocal sent
        src.send_burst([tcp_packet(src.ip, dst.ip, tp_dst=10000,
                                   tp_src=30000 + sent + k)
                        for k in range(count)], interval=1.0)
        sent += count

    rng = random.Random(11)
    live: dict[int, tuple] = {}
    try:
        stream()
        probe_and_check("baseline")
        assert counters and all(counters.values())
        for index in range(1, 13):
            stream()
            spec = (SAP_PAIRS[index % len(SAP_PAIRS)], 2,
                    float(rng.randint(1, 4)))
            assert escape.deploy(_service(index, *spec)).success
            live[index] = spec
            probe_and_check(f"deploy svc{index}")
            if index % 3 == 0:
                stream()
                target = rng.choice(sorted(live))
                pair, nfs, bandwidth = live[target]
                live[target] = (pair, 3 - nfs, 5.0 - bandwidth)
                assert escape.update(_service(target, *live[target])).success
                probe_and_check(f"update svc{target}")
            if index % 2 == 0:
                stream()
                target = rng.choice(sorted(live))
                assert escape.teardown(f"svc{target}").success
                del live[target]
                probe_and_check(f"teardown svc{target}")
    finally:
        escape.cal.dispatcher.shutdown()
