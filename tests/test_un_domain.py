"""Tests for the Universal Node domain."""

import pytest

from repro.mapping import GreedyEmbedder
from repro.netconf import NetconfClient, NetconfError
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFGBuilder
from repro.openflow.channel import ControlChannel
from repro.sim import Simulator
from repro.un import (
    ContainerRuntime,
    ContainerState,
    UNLocalOrchestrator,
    UniversalNodeDomain,
)
from repro.virtualizer import nffg_to_virtualizer


def _config(install):
    """``install`` as the config the local orchestrator is sent."""
    return {"virtualizer": nffg_to_virtualizer(install).to_dict()}


class TestContainerRuntime:
    def test_run_reaches_running_after_delay(self):
        sim = Simulator()
        runtime = ContainerRuntime(sim, start_delay_ms=250.0)
        container = runtime.run("fw", "firewall")
        assert container.state == ContainerState.CREATED
        sim.run()
        assert container.state == ContainerState.RUNNING
        assert container.process is not None
        assert container.started_at == 250.0

    def test_on_running_callback(self):
        sim = Simulator()
        runtime = ContainerRuntime(sim)
        container = runtime.run("fw", "firewall")
        seen = []
        container.on_running(lambda c: seen.append(c.name))
        sim.run()
        assert seen == ["fw"]

    def test_capacity_enforced(self):
        sim = Simulator()
        runtime = ContainerRuntime(sim, cpu_capacity=2.0)
        runtime.run("a", "firewall", cpu=1.5)
        with pytest.raises(RuntimeError):
            runtime.run("b", "firewall", cpu=1.0)

    def test_stop_releases_capacity(self):
        sim = Simulator()
        runtime = ContainerRuntime(sim, cpu_capacity=2.0)
        container = runtime.run("a", "firewall", cpu=1.5)
        sim.run()
        runtime.stop(container.id)
        assert runtime.cpu_used == 0.0
        assert not container.process.running

    def test_unknown_image_rejected(self):
        sim = Simulator()
        runtime = ContainerRuntime(sim)
        with pytest.raises(KeyError):
            runtime.run("x", "not-an-image")

    def test_by_name(self):
        sim = Simulator()
        runtime = ContainerRuntime(sim)
        container = runtime.run("fw", "firewall")
        assert runtime.by_name("fw") is container
        runtime.stop(container.id)
        assert runtime.by_name("fw") is None


@pytest.fixture
def un():
    net = Network()
    domain = UniversalNodeDomain("un", net, container_start_delay_ms=100.0)
    domain.add_sap("in")
    domain.add_sap("out")
    orchestrator = UNLocalOrchestrator(domain)
    channel = ControlChannel("mgmt")
    orchestrator.bind(channel)
    client = NetconfClient("parent", channel)
    client.hello()
    return net, domain, orchestrator, client


def _install_for(domain):
    view = domain.domain_view()
    service = (NFFGBuilder("svc").sap("in").sap("out")
               .nf("fw", "firewall")
               .chain("in", "fw", "out", bandwidth=10.0).build())
    result = GreedyEmbedder().map(service, view)
    assert result.success, result.failure_reason
    return result.mapped


class TestUNDomain:
    def test_view_is_single_bisbis(self, un):
        _, domain, _, _ = un
        view = domain.domain_view()
        assert len(view.infras) == 1
        assert view.infras[0].id == "un-bisbis"
        assert view.infras[0].resources.delay <= 0.01  # DPDK-class

    def test_deploy_starts_container(self, un):
        net, domain, orchestrator, client = un
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        assert not orchestrator.all_containers_running()
        net.run()
        assert orchestrator.all_containers_running()
        containers = client.rpc("list-containers")
        assert containers[0]["image"] == "firewall"
        assert "fw" in domain.lsi.attached_nfs()

    def test_dataplane_through_container(self, un):
        net, domain, orchestrator, client = un
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        net.run()
        h_in, h_out = domain.sap_hosts["in"], domain.sap_hosts["out"]
        h_in.send(tcp_packet(h_in.ip, h_out.ip, tp_dst=80))
        net.run()
        assert len(h_out.received) == 1
        assert "nf:fw" in h_out.received[0].trace
        assert "un-lsi" in h_out.received[0].trace

    def test_teardown_stops_container(self, un):
        net, domain, orchestrator, client = un
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        net.run()
        client.edit_config(None, operation="delete")
        client.commit()
        assert domain.runtime.running() == []
        assert domain.lsi.attached_nfs() == []
        assert domain.lsi.flow_count() == 0

    def test_validation_rejects_overload(self, un):
        net, domain, orchestrator, client = un
        view = domain.domain_view()
        view.infras[0].resources = view.infras[0].resources.scaled(100.0)
        service = (NFFGBuilder("svc").sap("in").sap("out")
                   .nf("big", "firewall", cpu=1000.0)
                   .chain("in", "big", "out").build())
        result = GreedyEmbedder().map(service, view)
        assert result.success
        client.edit_config(_config(result.mapped),
                           operation="replace")
        with pytest.raises(NetconfError):
            client.commit()

    def test_container_start_faster_than_cloud_vm(self, un):
        """The UN's pitch: container NF activation beats VM boots."""
        net, domain, orchestrator, client = un
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        before = net.simulator.now
        client.commit()
        net.run()
        activation = (max(c.started_at for c in domain.runtime.running())
                      - before)
        assert activation <= 150.0  # vs 1500 ms default VM boot
