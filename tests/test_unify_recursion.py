"""Tests for the recursive Unify interface (demo showcase iii)."""

import pytest

from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFGBuilder
from repro.orchestration import (
    EmuDomainAdapter,
    EscapeOrchestrator,
    UnifyAgent,
    UnifyDomainAdapter,
    service_from_virtual_install,
)
from repro.mapping import GreedyEmbedder
from repro.nffg.model import DomainType


def _child_stack(net, name="child", switches=2, sap_ids=("sap1", "sap2")):
    domain = EmulatedDomain(
        f"{name}-emu", net,
        node_ids=[f"{name}-bb{i}" for i in range(switches)],
        links=[(f"{name}-bb{i}", f"{name}-bb{i + 1}")
               for i in range(switches - 1)])
    domain.add_sap(sap_ids[0], f"{name}-bb0")
    domain.add_sap(sap_ids[1], f"{name}-bb{switches - 1}")
    child = EscapeOrchestrator(name, simulator=net.simulator)
    child.add_domain(EmuDomainAdapter(f"{name}-emu", domain))
    return domain, child, UnifyAgent(child)


def _service(service_id="rsvc"):
    return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
            .nf(f"{service_id}-fw", "firewall")
            .chain("sap1", f"{service_id}-fw", "sap2", bandwidth=5.0)
            .build())


class TestServiceReconstruction:
    def test_roundtrip_through_virtual_view(self):
        """service -> map onto single BiS-BiS -> reconstruct == service."""
        from repro.nffg.builder import single_bisbis_view
        view = single_bisbis_view(sap_tags=["sap1", "sap2"])
        service = _service()
        result = GreedyEmbedder().map(service, view)
        assert result.success
        rebuilt = service_from_virtual_install(result.mapped, "rebuilt")
        assert {nf.id for nf in rebuilt.nfs} == {"rsvc-fw"}
        assert {sap.id for sap in rebuilt.saps} == {"sap1", "sap2"}
        assert {hop.id for hop in rebuilt.sg_hops} == \
            {hop.id for hop in service.sg_hops}
        rebuilt_hops = {hop.id: hop for hop in rebuilt.sg_hops}
        for hop in service.sg_hops:
            assert rebuilt_hops[hop.id].bandwidth == hop.bandwidth

    def test_flowclass_preserved(self):
        from repro.nffg.builder import single_bisbis_view
        view = single_bisbis_view(sap_tags=["sap1", "sap2"])
        service = (NFFGBuilder("s").sap("sap1").sap("sap2")
                   .nf("s-fw", "firewall")
                   .hop("sap1", "s-fw", flowclass="tp_dst=80", bandwidth=1.0)
                   .hop("s-fw", "sap2", bandwidth=1.0).build())
        result = GreedyEmbedder().map(service, view)
        rebuilt = service_from_virtual_install(result.mapped, "r")
        classes = {hop.id: hop.flowclass for hop in rebuilt.sg_hops}
        assert "tp_dst=80" in classes.values()

    def test_empty_install_yields_empty_service(self):
        from repro.nffg.builder import single_bisbis_view
        view = single_bisbis_view(sap_tags=["sap1"])
        rebuilt = service_from_virtual_install(view, "r")
        assert not rebuilt.nfs and not rebuilt.sg_hops


@pytest.fixture
def two_level():
    net = Network()
    domain, child, agent = _child_stack(net)
    parent = EscapeOrchestrator("parent", simulator=net.simulator)
    parent.add_domain(UnifyDomainAdapter("child-dom", agent))
    return net, domain, child, parent


class TestTwoLevel:
    def test_parent_sees_single_bisbis(self, two_level):
        _, _, _, parent = two_level
        view = parent.resource_view()
        assert len(view.infras) == 1
        infra = view.infras[0]
        assert infra.domain == DomainType.UNIFY
        tags = {p.sap_tag for p in infra.ports.values() if p.sap_tag}
        assert tags == {"sap1", "sap2"}

    def test_parent_deploy_delegates_to_child(self, two_level):
        net, domain, child, parent = two_level
        report = parent.deploy(_service())
        assert report.success, report.error
        # one client service per independent chain, named after its
        # first hop
        assert child.deployed_services() == ["child-client-rsvc-hop1"]
        # NF physically running in the child's domain
        attached = [nf for switch in domain.switches.values()
                    for nf in switch.attached_nfs()]
        assert attached == ["rsvc-fw"]

    def test_dataplane_through_recursion(self, two_level):
        net, domain, child, parent = two_level
        parent.deploy(_service())
        h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1
        assert "nf:rsvc-fw" in h2.received[0].trace
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=22))
        net.run()
        assert len(h2.received) == 1  # firewall drops ssh

    def test_parent_teardown_clears_child(self, two_level):
        net, domain, child, parent = two_level
        parent.deploy(_service())
        assert parent.teardown("rsvc")
        assert child.deployed_services() == []
        attached = [nf for switch in domain.switches.values()
                    for nf in switch.attached_nfs()]
        assert attached == []

    def test_child_failure_propagates(self, two_level):
        net, domain, child, parent = two_level
        domain.supported_types = ["nat"]  # child can no longer host fw
        report = parent.deploy(_service())
        assert not report.success
        assert parent.deployed_services() == []

    def test_child_failure_leaves_resident_chain_alone(self, two_level):
        """A chain the child refuses must not cost its neighbour a
        packet, a flow entry or its client service."""
        net, domain, child, parent = two_level
        assert parent.deploy(_service("res")).success
        h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]

        def probe(count):
            h1.send_burst([tcp_packet(h1.ip, h2.ip, tp_dst=80)
                           for _ in range(count)], interval=1.0)

        def entries():
            return [id(entry) for switch in domain.switches.values()
                    for entry in switch.table.entries()]

        probe(5)
        net.run()
        assert len(h2.received) == 5
        before = entries()
        services = child.deployed_services()
        # the parent's one big switch hides the 1000 Mbit/s link between
        # the child's two: only the child can refuse this chain
        greedy = (NFFGBuilder("big").sap("sap1").sap("sap2")
                  .nf("big-fw", "firewall")
                  .chain("sap1", "big-fw", "sap2", bandwidth=5000.0).build())
        probe(20)  # in flight while the deploy fails and rolls back
        report = parent.deploy(greedy)
        assert not report.success and "child mapping failed" in report.error
        assert not report.rollback_failures()
        net.run()
        assert len(h2.received) == 25
        assert child.deployed_services() == services
        assert entries() == before
        assert [nf for switch in domain.switches.values()
                for nf in switch.attached_nfs()] == ["res-fw"]
        probe(5)
        net.run()
        assert len(h2.received) == 30
        # and the stack still takes a chain it can map
        assert parent.deploy(_service("next")).success

    def test_parent_resource_view_tracks_child_consumption(self, two_level):
        _, _, _, parent = two_level
        cpu_before = parent.resource_view().infras[0].resources.cpu
        parent.deploy(_service())
        cpu_after = parent.resource_view().infras[0].resources.cpu
        assert cpu_after < cpu_before

    def test_control_bytes_counted(self, two_level):
        _, _, _, parent = two_level
        report = parent.deploy(_service())
        assert report.control_bytes > 0


class TestUpdateThroughRecursion:
    def test_parent_update_reconciles_child(self, two_level):
        net, domain, child, parent = two_level
        assert parent.deploy(_service("rsvc")).success
        # new version: firewall replaced by NAT, same service id
        new_version = (NFFGBuilder("rsvc").sap("sap1").sap("sap2")
                       .nf("rsvc-nat", "nat")
                       .chain("sap1", "rsvc-nat", "sap2", bandwidth=5.0)
                       .build())
        report = parent.update(new_version)
        assert report.success, report.error
        attached = [nf for switch in domain.switches.values()
                    for nf in switch.attached_nfs()]
        assert attached == ["rsvc-nat"]
        h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert h2.received[-1].ip_src == "192.0.2.1"  # NAT active below

    def test_parent_failed_update_keeps_child_running(self, two_level):
        net, domain, child, parent = two_level
        assert parent.deploy(_service("rsvc")).success
        bad = (NFFGBuilder("rsvc").sap("sap1").sap("sap2")
               .nf("rsvc-x", "warpdrive")
               .chain("sap1", "rsvc-x", "sap2", bandwidth=5.0).build())
        report = parent.update(bad)
        assert not report.success
        # old chain still carries traffic end to end
        h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1


class TestEditScripts:
    """The south side ships digest-guarded virtualizer edit scripts; a
    full replace goes out on first contact, after a refused patch base
    and after anything that left the child's state in doubt."""

    @staticmethod
    def _adapter(parent):
        return parent.cal.adapters["child-dom"]

    def test_second_push_is_a_patch(self, two_level):
        _, _, child, parent = two_level
        first = parent.deploy(_service("a")).adapters[0]
        second = parent.deploy(_service("b")).adapters[0]
        assert not first.delta and second.delta
        assert second.messages == 2 and second.bytes < first.bytes
        assert len(child.deployed_services()) == 2

    def test_unchanged_install_is_a_noop(self, two_level):
        _, _, _, parent = two_level
        assert parent.deploy(_service("a")).success
        agent = self._adapter(parent).agent
        edits = agent.deploy_count
        (report,) = parent.cal.push_all()
        assert report.success and report.delta and report.messages == 0
        assert agent.deploy_count == edits

    def test_drifted_base_resyncs_with_one_full_replace(self, two_level):
        from repro import perf
        _, _, child, parent = two_level
        assert parent.deploy(_service("a")).success
        agent = self._adapter(parent).agent
        agent.running.digest ^= 1  # another writer got in
        perf.reset("push.")
        report = parent.deploy(_service("b")).adapters[0]
        assert report.success and not report.delta
        assert report.messages == 3  # the refused patch, then the resync
        assert perf.snapshot("push.")["push.delta_fallback"] == 1
        # the replace redeployed nothing that was there already
        assert agent.last_edit["kept"] == ["child-client-a-hop1"]
        assert agent.last_edit["deployed"] == ["child-client-b-hop1"]
        assert parent.deploy(_service("c")).adapters[0].delta

    def test_reset_delta_state_forces_a_full_push(self, two_level):
        _, _, _, parent = two_level
        assert parent.deploy(_service("a")).success
        self._adapter(parent).reset_delta_state()
        assert not parent.deploy(_service("b")).adapters[0].delta
        assert parent.deploy(_service("c")).adapters[0].delta

    def test_raising_child_apply_forces_a_full_push(self, two_level):
        _, _, child, parent = two_level
        assert parent.deploy(_service("a")).success
        greedy = (NFFGBuilder("big").sap("sap1").sap("sap2")
                  .nf("big-fw", "firewall")
                  .chain("sap1", "big-fw", "sap2", bandwidth=5000.0).build())
        report = parent.deploy(greedy)
        assert not report.success
        # the failed apply unset the child's digest: only a replace
        # resyncs, and the rollback was one
        (rollback,) = report.rollback
        assert rollback.success and not rollback.delta
        assert self._adapter(parent).agent.running.digest is not None
        assert child.deployed_services() == ["child-client-a-hop1"]
        assert parent.deploy(_service("b")).adapters[0].delta

    def test_agent_names_what_an_edit_did(self, two_level):
        _, _, child, parent = two_level
        adapter = self._adapter(parent)
        part_a, part_b = "child-client-a-hop1", "child-client-b-hop1"
        assert parent.deploy(_service("a")).success
        assert parent.deploy(_service("b")).success
        assert adapter.agent.last_edit == {
            "removed": [], "updated": [], "deployed": [part_b],
            "kept": [part_a]}
        new_version = (NFFGBuilder("a").sap("sap1").sap("sap2")
                       .nf("a-nat", "nat")
                       .chain("sap1", "a-nat", "sap2", bandwidth=5.0).build())
        assert parent.update(new_version).success
        assert adapter.agent.last_edit == {
            "removed": [], "updated": [part_a], "deployed": [],
            "kept": [part_b]}
        assert parent.teardown("b")
        edit = {"removed": [part_b], "updated": [], "deployed": [],
                "kept": [part_a]}
        assert adapter.client.get()["state"]["last_edit"] == edit
        notification = adapter.client.notifications[-1]
        assert (notification.event, notification.data) == (
            "deploy-finished", edit)
        assert child.deployed_services() == [part_a]


class TestAbstractNFAdvertisement:
    def test_child_with_library_advertises_abstract_types(self):
        from repro.mapping.decomposition import default_decomposition_library
        net = Network()
        domain = EmulatedDomain("adv-emu", net, node_ids=["adv-bb0"])
        domain.add_sap("asap1", "adv-bb0")
        domain.add_sap("asap2", "adv-bb0")
        child = EscapeOrchestrator(
            "adv-child", simulator=net.simulator,
            decomposition_library=default_decomposition_library())
        child.add_domain(EmuDomainAdapter("adv-emu", domain))
        agent = UnifyAgent(child)
        view = agent.current_view()
        assert "vCPE" in view.infras[0].supported_types

    def test_parent_places_abstract_nf_child_decomposes(self):
        from repro.mapping.decomposition import default_decomposition_library
        net = Network()
        domain = EmulatedDomain("dc-emu", net,
                                node_ids=["dc-bb0", "dc-bb1"],
                                links=[("dc-bb0", "dc-bb1")])
        domain.add_sap("dsap1", "dc-bb0")
        domain.add_sap("dsap2", "dc-bb1")
        child = EscapeOrchestrator(
            "dc-child", simulator=net.simulator,
            decomposition_library=default_decomposition_library())
        child.add_domain(EmuDomainAdapter("dc-emu", domain))
        parent = EscapeOrchestrator("dc-parent", simulator=net.simulator)
        parent.add_domain(UnifyDomainAdapter("dc-dom", UnifyAgent(child)))
        service = (NFFGBuilder("abs").sap("dsap1").sap("dsap2")
                   .nf("abs-cpe", "vCPE")
                   .chain("dsap1", "abs-cpe", "dsap2", bandwidth=1.0)
                   .build())
        report = parent.deploy(service)
        assert report.success, report.error
        # components of the decomposition are physically attached
        attached = [nf for switch in domain.switches.values()
                    for nf in switch.attached_nfs()]
        assert attached and all(nf.startswith("abs-cpe.")
                                for nf in attached)
        h1, h2 = domain.sap_hosts["dsap1"], domain.sap_hosts["dsap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1

    def test_child_without_library_does_not_advertise(self):
        net = Network()
        domain = EmulatedDomain("plain-emu", net, node_ids=["p-bb0"])
        domain.add_sap("psap1", "p-bb0")
        child = EscapeOrchestrator("plain-child", simulator=net.simulator)
        child.add_domain(EmuDomainAdapter("plain-emu", domain))
        view = UnifyAgent(child).current_view()
        assert "vCPE" not in view.infras[0].supported_types


class TestMultiNodeViewPolicy:
    """Recursion with a per-domain view: the parent's hops traverse
    several virtual nodes, so the child must reassemble each hop from
    multiple flow rules (the multi-rule reconstruction path)."""

    def _stack(self):
        from repro.sdnnet import SDNDomain
        from repro.virtualizer.views import PerDomainBiSBiSView

        net = Network()
        emu = EmulatedDomain("m-emu", net,
                             node_ids=["m-bb0", "m-bb1"],
                             links=[("m-bb0", "m-bb1")])
        emu.add_sap("msap1", "m-bb0")
        sdn = SDNDomain("m-sdn", net, switch_ids=["m-sw0"])
        sdn.add_sap("msap2", "m-sw0")
        side_a = emu.add_handoff("mx", "m-bb1")
        side_b = sdn.add_handoff("mx", "m-sw0")
        net.connect(*side_a, *side_b, bandwidth_mbps=1000.0, delay_ms=1.0)
        child = EscapeOrchestrator("m-child", simulator=net.simulator)
        child.add_domain(EmuDomainAdapter("m-emu", emu))
        from repro.orchestration import SdnDomainAdapter
        child.add_domain(SdnDomainAdapter("m-sdn", sdn))
        agent = UnifyAgent(child, view_policy=PerDomainBiSBiSView())
        parent = EscapeOrchestrator("m-parent", simulator=net.simulator)
        parent.add_domain(UnifyDomainAdapter("m-dom", agent))
        return net, emu, sdn, child, parent

    def test_parent_sees_per_domain_aggregates(self):
        net, emu, sdn, child, parent = self._stack()
        view = parent.resource_view()
        assert len(view.infras) == 2
        types = {infra.infra_type.value for infra in view.infras}
        assert types == {"BiSBiS", "SDN-SWITCH"}

    def test_hop_across_virtual_nodes_reconstructs(self):
        net, emu, sdn, child, parent = self._stack()
        service = (NFFGBuilder("mn").sap("msap1").sap("msap2")
                   .nf("mn-fw", "firewall")
                   .chain("msap1", "mn-fw", "msap2", bandwidth=5.0)
                   .build())
        report = parent.deploy(service)
        assert report.success, report.error
        # the fw->msap2 hop crossed two virtual nodes at the parent
        routes = report.mapping.hop_routes
        assert any(len(route.infra_path) == 2 for route in routes.values())
        h1 = emu.sap_hosts["msap1"]
        h2 = sdn.sap_hosts["msap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1
        trace = h2.received[0].trace
        assert "nf:mn-fw" in trace and "m-sw0" in trace


class TestThreeLevel:
    def test_three_level_stack(self):
        net = Network()
        domain, child, agent1 = _child_stack(net, "l0")
        mid = EscapeOrchestrator("l1", simulator=net.simulator)
        mid.add_domain(UnifyDomainAdapter("l0-dom", agent1))
        agent2 = UnifyAgent(mid)
        top = EscapeOrchestrator("l2", simulator=net.simulator)
        top.add_domain(UnifyDomainAdapter("l1-dom", agent2))

        report = top.deploy(_service("deep"))
        assert report.success, report.error
        # the NF ran all the way down in the physical domain
        attached = [nf for switch in domain.switches.values()
                    for nf in switch.attached_nfs()]
        assert attached == ["deep-fw"]
        h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1

    def test_refetched_view_counts_a_clients_services_once(self):
        """An agent advertises what is free of everything except its own
        client's parts: the parent replays its books onto whatever it
        fetches, so a view that already netted them out would subtract
        them a second time at every refetch, once per level."""
        net = Network()
        _, bottom, agent = _child_stack(net, "l0")
        levels = [bottom]
        for index in (1, 2):
            parent = EscapeOrchestrator(f"l{index}", simulator=net.simulator)
            parent.add_domain(UnifyDomainAdapter(
                f"l{index - 1}-dom", UnifyAgent(levels[-1])))
            levels.append(parent)
        top = levels[-1]

        def free_cpu():
            return [sum(infra.resources.cpu
                        for infra in level.resource_view().infras)
                    for level in levels]

        def refetch():
            for level in levels[1:]:
                level.cal.mark_stale()

        total = free_cpu()[0]
        assert free_cpu() == [total] * 3
        assert top.deploy(_service("one")).success     # a 1-CPU firewall
        assert free_cpu() == [total - 1] * 3
        refetch()
        assert free_cpu() == [total - 1] * 3
        # update() refetches on its own (mark_stale), between two deploys
        assert top.update(_service("one")).success
        assert top.deploy(_service("two")).success
        assert free_cpu() == [total - 2] * 3
        assert top.teardown("two")
        assert top.teardown("one")
        assert free_cpu() == [total] * 3
        refetch()
        assert free_cpu() == [total] * 3
        assert [level.cal.verify() for level in levels] == [[], [], []]

    def test_mixed_direct_and_recursive_domains(self):
        """A parent with one physical domain and one Unify child."""
        net = Network()
        local = EmulatedDomain("local-emu", net, node_ids=["local-bb0"])
        local.add_sap("sap1", "local-bb0")
        child_domain, _, agent = _child_stack(net, "remote", switches=1,
                                              sap_ids=("rsap1", "rsap2"))
        parent = EscapeOrchestrator("parent", simulator=net.simulator)
        parent.add_domain(EmuDomainAdapter("local-emu", local))
        parent.add_domain(UnifyDomainAdapter("remote-dom", agent))
        view = parent.resource_view()
        domains = {infra.domain for infra in view.infras}
        assert DomainType.INTERNAL in domains
        assert DomainType.UNIFY in domains
