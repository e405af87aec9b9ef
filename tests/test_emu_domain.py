"""Tests for the Mininet-like emulated domain and its orchestrator."""

import pytest

from repro.emu import EmulatedDomain, EmuDomainOrchestrator
from repro.infra.nfswitch import NFHostingSwitch
from repro.click import make_nf_process
from repro.mapping import GreedyEmbedder
from repro.netconf import NetconfClient, NetconfError
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFGBuilder
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import ActionOutput, Match
from repro.virtualizer import nffg_to_virtualizer

from tests.mapped import mapped_graph


def _config(install):
    """``install`` as the config the local orchestrator is sent."""
    return {"virtualizer": nffg_to_virtualizer(install).to_dict()}


@pytest.fixture
def domain():
    net = Network()
    dom = EmulatedDomain("emu", net, node_ids=["bb0", "bb1"],
                         links=[("bb0", "bb1")])
    dom.add_sap("sap1", "bb0")
    dom.add_sap("sap2", "bb1")
    return net, dom


@pytest.fixture
def managed(domain):
    net, dom = domain
    orchestrator = EmuDomainOrchestrator(dom)
    channel = ControlChannel("mgmt")
    orchestrator.bind(channel)
    client = NetconfClient("ro", channel)
    client.hello()
    return net, dom, orchestrator, client


def _mapped_install(dom):
    view = dom.domain_view()
    service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
               .nf("fw", "firewall")
               .chain("sap1", "fw", "sap2", bandwidth=10.0).build())
    result = GreedyEmbedder().map(service, view)
    assert result.success, result.failure_reason
    return mapped_graph(view, result)


class TestNFHostingSwitch:
    def test_attach_creates_ports(self):
        net = Network()
        switch = net.add(NFHostingSwitch("bb", net.simulator))
        ports = switch.attach_nf("fw", make_nf_process("fw", "firewall"))
        assert ports == ["fw-1", "fw-2"]
        assert "fw-1" in switch.ports()
        assert switch.attached_nfs() == ["fw"]

    def test_duplicate_attach_rejected(self):
        net = Network()
        switch = net.add(NFHostingSwitch("bb", net.simulator))
        switch.attach_nf("fw", make_nf_process("fw", "firewall"))
        with pytest.raises(ValueError):
            switch.attach_nf("fw", make_nf_process("fw", "firewall"))

    def test_detach_removes_ports_and_stops(self):
        net = Network()
        switch = net.add(NFHostingSwitch("bb", net.simulator))
        process = make_nf_process("fw", "firewall")
        switch.attach_nf("fw", process)
        switch.detach_nf("fw")
        assert "fw-1" not in switch.ports()
        assert not process.running

    def test_packet_traverses_nf(self):
        net = Network()
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        switch = net.add(NFHostingSwitch("bb", net.simulator))
        net.connect("h1", "0", "bb", "p1")
        net.connect("h2", "0", "bb", "p2")
        switch.attach_nf("fw", make_nf_process("fw", "firewall"))
        switch.table.apply_flow_mod(_flowmod(Match(in_port="p1"), "fw-1"))
        switch.table.apply_flow_mod(_flowmod(Match(in_port="fw-2"), "p2"))
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1
        assert "nf:fw" in h2.received[0].trace


def _flowmod(match, out_port):
    from repro.openflow.messages import FlowMod, FlowModCommand
    return FlowMod(command=FlowModCommand.ADD, match=match,
                   actions=[ActionOutput(out_port)])


class TestDomainView:
    def test_view_shape(self, domain):
        _, dom = domain
        view = dom.domain_view()
        assert {infra.id for infra in view.infras} == {"bb0", "bb1"}
        assert {sap.id for sap in view.saps} == {"sap1", "sap2"}
        assert view.sap_bindings()["sap1"] == ("bb0", "sap-sap1")

    def test_handoff_port_in_view(self, domain):
        _, dom = domain
        dom.add_handoff("peering", "bb1")
        view = dom.domain_view()
        assert view.infra("bb1").port("sap-peering").sap_tag == "peering"

    def test_supported_types_from_catalog(self, domain):
        _, dom = domain
        view = dom.domain_view()
        assert "firewall" in view.infras[0].supported_types


class TestOrchestrator:
    def test_deploy_starts_nfs_and_installs_flows(self, managed):
        net, dom, orchestrator, client = managed
        mapped = _mapped_install(dom)
        client.edit_config(_config(mapped),
                           operation="replace")
        client.commit()
        assert orchestrator.deployed_nf_count() == 1
        host_switch = dom.switches[orchestrator._deployed_nfs["fw"][0]]
        assert "fw" in host_switch.attached_nfs()
        assert sum(s.flow_count() for s in dom.switches.values()) >= 3

    def test_dataplane_carries_chain(self, managed):
        net, dom, orchestrator, client = managed
        mapped = _mapped_install(dom)
        client.edit_config(_config(mapped),
                           operation="replace")
        client.commit()
        h1, h2 = dom.sap_hosts["sap1"], dom.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1
        assert "nf:fw" in h2.received[0].trace

    def test_validation_rejects_unknown_switch(self, managed):
        net, dom, orchestrator, client = managed
        mapped = _mapped_install(dom)
        config = _config(mapped)
        nodes = config["virtualizer"]["nodes"]["node"]
        nodes["ghost"] = {**nodes.pop("bb0"), "id": "ghost"}
        client.edit_config(config, operation="replace")
        with pytest.raises(NetconfError):
            client.commit()

    def test_validation_rejects_unknown_nf_type(self, managed):
        net, dom, orchestrator, client = managed
        view = dom.domain_view()
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("x", "warpdrive")
                   .chain("sap1", "x", "sap2").build())
        from repro.mapping import GreedyEmbedder
        dom2_view = view.copy()
        for infra in dom2_view.infras:
            infra.supported_types = set()  # accept anything at mapping time
        result = GreedyEmbedder().map(service, dom2_view)
        assert result.success
        client.edit_config(_config(mapped_graph(dom2_view, result)),
                           operation="replace")
        with pytest.raises(NetconfError):
            client.commit()

    def test_reconcile_removes_stale_nfs(self, managed):
        net, dom, orchestrator, client = managed
        mapped = _mapped_install(dom)
        client.edit_config(_config(mapped),
                           operation="replace")
        client.commit()
        assert orchestrator.deployed_nf_count() == 1
        empty = dom.domain_view()
        client.edit_config(_config(empty),
                           operation="replace")
        client.commit()
        assert orchestrator.deployed_nf_count() == 0

    def test_redeploy_same_nf_not_restarted(self, managed):
        net, dom, orchestrator, client = managed
        mapped = _mapped_install(dom)
        client.edit_config(_config(mapped),
                           operation="replace")
        client.commit()
        switch = dom.switches[orchestrator._deployed_nfs["fw"][0]]
        process_before = switch.nf_process("fw")
        client.edit_config(_config(mapped),
                           operation="replace")
        client.commit()
        assert switch.nf_process("fw") is process_before

    def test_get_topology_rpc(self, managed):
        net, dom, orchestrator, client = managed
        data = client.rpc("get-topology")
        assert {n["id"] for n in data["nodes"]
                if n["type"] == "INFRA"} == {"bb0", "bb1"}

    def test_nf_status_rpc(self, managed):
        net, dom, orchestrator, client = managed
        assert client.rpc("get-nf-status", id="fw")["status"] == "absent"
        mapped = _mapped_install(dom)
        client.edit_config(_config(mapped),
                           operation="replace")
        client.commit()
        status = client.rpc("get-nf-status", id="fw")
        assert status["status"] == "running"

    def test_notifications_emitted(self, managed):
        net, dom, orchestrator, client = managed
        mapped = _mapped_install(dom)
        client.edit_config(_config(mapped),
                           operation="replace")
        client.commit()
        events = [n.event for n in client.notifications]
        assert "vnf-started" in events
        assert "deploy-finished" in events
