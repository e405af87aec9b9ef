"""Continuity and equivalence through a three-level Unify stack.

Per-part reconcile and virtualizer edit scripts are optimizations, never
a semantic change.  While neighbours deploy, update and tear down
through the top of the stack, an established chain's entries in the
bottom switches are never deleted or replaced, their counters never
fall and its traffic never drops.  And after every step of a seeded
deploy / update / teardown / heal sequence the bottom switch tables
equal those of a fresh stack that was only ever given the live
services, every level's derived state verifies, every agent's parts —
re-derived only where an edit named a member — are what re-deriving
all of its running config gives, and a drain leaves no level with a
service.  The same holds when a bottom link flaps and every
level heals in turn — with the whole topology advertised upwards each
level re-embeds and sends its heal's edit through the boundary below it.

The bottom domain is built so that mapping does not depend on history
(one switch has all the CPU, the primary path is strictly shorter than
the detour); what is compared is therefore what the recursion did, not
what the embedder happened to choose.
"""

import dataclasses
import json
import random
from collections import Counter

import pytest

from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.openflow.flowtable import FlowTable
from repro.orchestration import (
    EmuDomainAdapter,
    EscapeOrchestrator,
    UnifyAgent,
    UnifyDomainAdapter,
)
from repro.orchestration.unify import _hops, _split
from repro.perf import counters
from repro.service import ServiceRequestBuilder
from repro.virtualizer.views import FullTopologyView

LEVELS = 3
PRIMARY = ("emu-bb1", "emu-bb2")


class _Stack:
    """emu-bb0 (all the CPU, sap1) - bb1 - bb2 (sap2), with the detour
    bb0 - bb3 - bb4 - bb2, under ``LEVELS`` orchestrators."""

    def __init__(self, failed_links=(), view_policy=None):
        self.net = Network()
        ids = [f"emu-bb{i}" for i in range(5)]
        self.domain = EmulatedDomain(
            "emu", self.net, node_ids=ids, cpu_per_node=64.0,
            links=[(ids[0], ids[1]), PRIMARY, (ids[0], ids[3]),
                   (ids[3], ids[4]), (ids[4], ids[2])])
        self.domain.add_sap("sap1", ids[0])
        self.domain.add_sap("sap2", ids[2])
        view = self.domain.domain_view

        def one_compute_node():
            nffg = view()
            for infra in nffg.infras:
                if infra.id != ids[0]:
                    infra.resources = dataclasses.replace(
                        infra.resources, cpu=0.0)
            return nffg

        self.domain.domain_view = one_compute_node
        for link in failed_links:
            self.net.fail_link(*link)
        bottom = EscapeOrchestrator("level0", simulator=self.net.simulator)
        self.emu = bottom.add_domain(EmuDomainAdapter("emu", self.domain))
        self.levels = [bottom]
        for level in range(1, LEVELS):
            parent = EscapeOrchestrator(f"level{level}",
                                        simulator=self.net.simulator)
            parent.add_domain(UnifyDomainAdapter(
                f"level{level - 1}-dom", UnifyAgent(
                    self.levels[-1],
                    view_policy=view_policy and view_policy())))
            self.levels.append(parent)
        self.top = self.levels[-1]

    def tables(self) -> dict[str, Counter]:
        self.net.run()  # let in-flight control messages land
        return {dpid: Counter(
            (entry.match, entry.priority, entry.cookie,
             json.dumps([action.to_dict() for action in entry.actions]))
            for entry in switch.table.entries())
            for dpid, switch in self.domain.switches.items()}

    def close(self) -> None:
        for escape in self.levels:
            escape.cal.dispatcher.shutdown()


def _rederived(agent: UnifyAgent) -> dict[str, tuple]:
    """An agent's parts as a re-derivation of all it runs makes them."""
    by_id = {nf.id: nf for nf in agent.nfs.values()}
    return {f"{agent.orchestrator.name}-client-{key}": (
        [nf.to_dict() for nf in part_nfs], part_hops)
        for key, (part_nfs, part_hops) in _split(
            by_id, _hops(agent.entries.values(), by_id)).items()}


def _service(index: int, reverse: bool, nfs: int, bandwidth: float):
    src, dst = ("sap2", "sap1") if reverse else ("sap1", "sap2")
    prefix = f"svc{index}"
    builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
    names = [f"{prefix}-{kind}" for kind in ("firewall", "nat")[:nfs]]
    for name in names:
        builder.nf(name, name.rpartition("-")[2])
    builder.chain(src, *names, dst, bandwidth=bandwidth,
                  flowclass=f"tp_dst={10000 + index}")
    return builder.build().sg


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bottom_tables_equal_a_fresh_stack_given_the_live_services(seed):
    rng = random.Random(seed)
    stack = _Stack()
    live: dict[int, tuple] = {}
    failed: list[tuple[str, str]] = []
    script = ["deploy"] * 4 + ["update"] * 3 + ["teardown"] * 3 + ["heal"]
    rng.shuffle(script)
    script = ["deploy"] * 2 + script
    next_index = 0
    try:
        for step, kind in enumerate(script):
            if kind in ("update", "teardown") and not live:
                kind = "deploy"
            if kind == "deploy":
                spec = (rng.random() < 0.5, 2, float(rng.randint(1, 4)))
                report = stack.top.deploy(_service(next_index, *spec))
                assert report.success, report.error
                live[next_index] = spec
                next_index += 1
            elif kind == "update":
                index = rng.choice(sorted(live))
                reverse, nfs, bandwidth = live[index]
                live[index] = (reverse, 3 - nfs, 5.0 - bandwidth)
                report = stack.top.update(_service(index, *live[index]))
                assert report.success, report.error
            elif kind == "teardown":
                index = rng.choice(sorted(live))
                assert stack.top.teardown(f"svc{index}").success
                del live[index]
            else:
                # the primary path dies under the chains: the level that
                # owns the link re-routes them, the ones above never know
                stack.net.fail_link(*PRIMARY)
                failed.append(PRIMARY)
                healed = stack.levels[0].heal()
                assert len(healed) == len(live)
                assert all(report.success for report in healed.values())
            fresh = _Stack(failed)
            try:
                for index in sorted(live):
                    assert fresh.top.deploy(
                        _service(index, *live[index])).success
                assert stack.tables() == fresh.tables(), (step, kind)
            finally:
                fresh.close()
            for escape in stack.levels:
                assert escape.cal.verify() == [], (step, kind, escape.name)
                assert len(escape.deployed_services()) == len(live)
            for escape in stack.levels[1:]:
                (agent,) = (adapter.agent
                            for adapter in escape.cal.adapters.values())
                assert agent._parts == _rederived(agent), (step, kind)
        for index in sorted(live):
            assert stack.top.teardown(f"svc{index}").success
        assert [escape.deployed_services() for escape in stack.levels] \
            == [[]] * LEVELS
        assert not any(stack.tables().values())
    finally:
        stack.close()


@pytest.mark.parametrize("view_policy", [None, FullTopologyView],
                         ids=["one BiS-BiS", "whole topology"])
def test_every_level_heals_a_bottom_link_flap(view_policy):
    """Above a single BiS-BiS a heal only re-fetches; shown the whole
    topology, every level finds its routes broken, re-embeds them and
    pushes that as an edit of what the level below runs."""
    stack = _Stack(view_policy=view_policy)
    live = {0: (False, 2, 2.0), 1: (True, 1, 3.0), 2: (False, 2, 1.0)}

    def settled(failed, label):
        fresh = _Stack(failed, view_policy)
        try:
            for index in sorted(live):
                assert fresh.top.deploy(_service(index, *live[index])).success
            assert stack.tables() == fresh.tables(), label
        finally:
            fresh.close()
        for escape in stack.levels:
            assert escape.cal.verify() == [], (label, escape.name)
            assert len(escape.deployed_services()) == len(live)

    try:
        for index in sorted(live):
            assert stack.top.deploy(_service(index, *live[index])).success
        stack.net.fail_link(*PRIMARY)
        for level, escape in enumerate(stack.levels):
            whole = counters.get("cal.view.whole")
            healed = escape.heal()
            # every domain is healthy: re-derived views go out as edits
            assert counters.get("cal.view.whole") == whole
            sees_links = level == 0 or view_policy is not None
            assert len(healed) == (len(live) if sees_links else 0)
            for report in healed.values():
                assert report.success, report.error
                assert all(pushed.delta for pushed in report.adapters)
            settled([PRIMARY], f"failed, healed level {level}")
        stack.net.restore_link(*PRIMARY)
        for level, escape in enumerate(stack.levels):
            # the detour still stands: nothing to re-embed
            assert escape.heal() == {}
            settled([PRIMARY], f"restored, healed level {level}")
        # the first pushes over the restored topology, back onto the
        # primary path at every level
        whole = counters.get("cal.view.whole")
        for index, (reverse, nfs, bandwidth) in sorted(live.items()):
            live[index] = (reverse, 3 - nfs, 5.0 - bandwidth)
            report = stack.top.update(_service(index, *live[index]))
            assert report.success, report.error
            assert all(pushed.delta for pushed in report.adapters)
        assert counters.get("cal.view.whole") == whole
        settled([], "updated over the restored link")
    finally:
        stack.close()


def test_resident_chain_untouched_by_neighbours_through_the_stack(monkeypatch):
    stack = _Stack()
    # control messages take virtual time: a delete that reached a switch
    # before the matching add would show as lost probes
    controller = stack.emu.orchestrator.controller
    for dpid in controller.connected_dpids():
        controller._channels[dpid].latency_ms = 0.4
    assert stack.top.deploy(_service(0, False, 2, 2.0)).success
    stack.net.run()

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
    tables = [switch.table for switch in stack.domain.switches.values()]
    src, dst = stack.domain.sap_hosts["sap1"], stack.domain.sap_hosts["sap2"]
    sent = 0
    counters: dict[int, int] = {}

    def probe_and_check(label):
        stack.net.run()
        assert len(dst.received) == sent, label
        for table in tables:
            for entry in mine(table):
                assert entry.packets >= counters.get(id(entry), 0), label
                counters[id(entry)] = entry.packets
        assert len(counters) == sum(len(mine(table)) for table in tables)

    def stream(count=40):
        """Probes of the resident chain, 1 vms apart, in flight while
        the next operation runs."""
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
        for index in range(1, 9):
            stream()
            spec = (index % 2 == 1, 2, float(rng.randint(1, 4)))
            assert stack.top.deploy(_service(index, *spec)).success
            live[index] = spec
            probe_and_check(f"deploy svc{index}")
            if index % 3 == 0:
                stream()
                target = rng.choice(sorted(live))
                reverse, nfs, bandwidth = live[target]
                live[target] = (reverse, 3 - nfs, 5.0 - bandwidth)
                assert stack.top.update(
                    _service(target, *live[target])).success
                probe_and_check(f"update svc{target}")
            if index % 2 == 0:
                stream()
                target = rng.choice(sorted(live))
                assert stack.top.teardown(f"svc{target}").success
                del live[target]
                probe_and_check(f"teardown svc{target}")
    finally:
        stack.close()
