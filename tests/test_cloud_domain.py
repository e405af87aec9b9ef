"""Tests for the OpenStack+ODL-like cloud domain."""

import pytest

from repro.cloud import (
    CloudDomain,
    CloudLocalOrchestrator,
    ComputeHost,
    FilterScheduler,
    Flavor,
    Image,
    NovaCompute,
    NoValidHost,
)
from repro.cloud.nova import VMState, flavor_for
from repro.mapping import GreedyEmbedder
from repro.netconf import NetconfClient
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFGBuilder
from repro.openflow.channel import ControlChannel
from repro.sim import Simulator
from repro.virtualizer import nffg_to_virtualizer

from tests.mapped import mapped_graph


def _config(install):
    """``install`` as the config the local orchestrator is sent."""
    return {"virtualizer": nffg_to_virtualizer(install).to_dict()}


class TestScheduler:
    def _hosts(self):
        return [ComputeHost("h1", vcpus=4, ram_mb=4096, disk_gb=100),
                ComputeHost("h2", vcpus=8, ram_mb=8192, disk_gb=100)]

    def test_picks_most_free(self):
        scheduler = FilterScheduler()
        flavor = Flavor("f", 1, 512, 1)
        image = Image("img", "firewall")
        host = scheduler.select_host(self._hosts(), flavor, image)
        assert host.name == "h2"

    def test_filters_prune_full_hosts(self):
        scheduler = FilterScheduler()
        hosts = self._hosts()
        hosts[1].vcpus_used = 8.0
        flavor = Flavor("f", 2, 512, 1)
        host = scheduler.select_host(hosts, flavor, Image("img", "x"))
        assert host.name == "h1"

    def test_no_valid_host(self):
        scheduler = FilterScheduler()
        with pytest.raises(NoValidHost):
            scheduler.select_host(self._hosts(), Flavor("f", 64, 1, 1),
                                  Image("img", "x"))

    def test_image_properties_filter(self):
        scheduler = FilterScheduler()
        image = Image("big", "x", min_ram_mb=2048)
        with pytest.raises(NoValidHost):
            scheduler.select_host(self._hosts(), Flavor("f", 1, 512, 1),
                                  image)

    def test_flavor_for_picks_smallest_fit(self):
        assert flavor_for(0.4, 32, 0.5).name == "m1.tiny"
        assert flavor_for(2, 256, 4).name == "m1.medium"
        assert flavor_for(32, 99999, 1).name.startswith("custom")


class TestNovaLifecycle:
    def test_boot_reaches_active_after_delay(self):
        sim = Simulator()
        nova = NovaCompute(sim, boot_delay_ms=1000.0)
        nova.add_host(ComputeHost("h1", 4, 4096, 100))
        vm = nova.boot("vm1", Flavor("f", 1, 512, 1), Image("img", "x"))
        assert vm.state == VMState.BUILD
        sim.run()
        assert vm.state == VMState.ACTIVE
        assert vm.booted_at == 1000.0

    def test_on_active_callback(self):
        sim = Simulator()
        nova = NovaCompute(sim, boot_delay_ms=500.0)
        nova.add_host(ComputeHost("h1", 4, 4096, 100))
        vm = nova.boot("vm1", Flavor("f", 1, 512, 1), Image("img", "x"))
        seen = []
        vm.on_active(lambda v: seen.append(v.id))
        sim.run()
        assert seen == [vm.id]
        # late registration fires immediately
        vm.on_active(lambda v: seen.append("late"))
        assert seen[-1] == "late"

    def test_resources_claimed_and_released(self):
        sim = Simulator()
        nova = NovaCompute(sim)
        host = nova.add_host(ComputeHost("h1", 4, 4096, 100))
        vm = nova.boot("vm1", Flavor("f", 2, 1024, 10), Image("img", "x"))
        assert host.vcpus_used == 2
        nova.delete(vm.id)
        assert host.vcpus_used == 0
        assert vm.state == VMState.DELETED

    def test_capacity(self):
        sim = Simulator()
        nova = NovaCompute(sim)
        nova.add_host(ComputeHost("h1", 4, 4096, 100))
        nova.add_host(ComputeHost("h2", 4, 4096, 100))
        nova.boot("vm1", Flavor("f", 1, 512, 10), Image("img", "x"))
        vcpus, ram, disk = nova.capacity()
        assert vcpus == 7 and ram == 7680 and disk == 190

    def test_list_instances_excludes_deleted(self):
        sim = Simulator()
        nova = NovaCompute(sim)
        nova.add_host(ComputeHost("h1", 4, 4096, 100))
        vm = nova.boot("vm1", Flavor("f", 1, 512, 1), Image("img", "x"))
        nova.delete(vm.id)
        assert nova.list_instances() == []
        # a delete forgets the instance; the caller's record reads DELETED
        assert nova.instances == {}
        assert vm.state == VMState.DELETED
        sim.run()
        assert vm.state == VMState.DELETED


@pytest.fixture
def cloud():
    net = Network()
    domain = CloudDomain("cloud", net, num_spines=1, num_leaves=2,
                         hosts_per_leaf=1, vm_boot_delay_ms=500.0)
    domain.add_sap("in", leaf_index=0)
    domain.add_sap("out", leaf_index=1)
    orchestrator = CloudLocalOrchestrator(domain)
    channel = ControlChannel("mgmt")
    orchestrator.bind(channel)
    client = NetconfClient("parent", channel)
    client.hello()
    return net, domain, orchestrator, client


def _install_for(domain, nf_type="firewall"):
    view = domain.domain_view()
    service = (NFFGBuilder("svc").sap("in").sap("out")
               .nf("fw", nf_type)
               .chain("in", "fw", "out", bandwidth=10.0).build())
    result = GreedyEmbedder().map(service, view)
    assert result.success, result.failure_reason
    return mapped_graph(view, result)


class TestCloudDomain:
    def test_view_is_single_bisbis(self, cloud):
        _, domain, _, _ = cloud
        view = domain.domain_view()
        assert len(view.infras) == 1
        infra = view.infras[0]
        assert infra.id == "cloud-bisbis"
        assert infra.resources.cpu == 32.0  # 2 hosts x 16 vcpus
        assert "firewall" in infra.supported_types

    def test_view_reports_installed_inventory(self, cloud):
        """The view is the installed inventory — local consumption is
        the parent CAL's bookkeeping, not the view's (otherwise it
        would be subtracted twice)."""
        net, domain, orchestrator, client = cloud
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        view = domain.domain_view()
        assert view.infras[0].resources.cpu == 32.0
        # live consumption is visible through Nova instead
        free_vcpus, _, _ = domain.nova.capacity()
        assert free_vcpus < 32.0

    def test_deploy_boots_vm_and_attaches(self, cloud):
        net, domain, orchestrator, client = cloud
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        assert not orchestrator.all_vms_active()
        assert orchestrator.wait_ready()
        vms = client.rpc("list-vms")
        assert vms[0]["state"] == "ACTIVE"
        host_dpid = vms[0]["host"]
        assert "fw" in domain.compute_switches[host_dpid].attached_nfs()

    def test_dataplane_through_vm(self, cloud):
        net, domain, orchestrator, client = cloud
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        orchestrator.wait_ready()
        h_in, h_out = domain.sap_hosts["in"], domain.sap_hosts["out"]
        h_in.send(tcp_packet(h_in.ip, h_out.ip, tp_dst=80))
        net.run()
        assert len(h_out.received) == 1
        assert "nf:fw" in h_out.received[0].trace
        # firewall semantics preserved inside the VM
        h_in.send(tcp_packet(h_in.ip, h_out.ip, tp_dst=22))
        net.run()
        assert len(h_out.received) == 1

    def test_teardown_deletes_vm(self, cloud):
        net, domain, orchestrator, client = cloud
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        orchestrator.wait_ready()
        client.edit_config(None, operation="delete")
        client.commit()
        assert domain.nova.list_instances() == []
        vcpus, _, _ = domain.nova.capacity()
        assert vcpus == 32.0

    def test_validation_rejects_foreign_bisbis(self, cloud):
        net, domain, orchestrator, client = cloud
        install = _install_for(domain)
        config = _config(install)
        nodes = config["virtualizer"]["nodes"]["node"]
        nodes["other-bisbis"] = {**nodes.pop("cloud-bisbis"),
                                 "id": "other-bisbis"}
        client.edit_config(config, operation="replace")
        from repro.netconf import NetconfError
        with pytest.raises(NetconfError):
            client.commit()

    def test_state_data(self, cloud):
        net, domain, orchestrator, client = cloud
        client.edit_config(_config(_install_for(domain)),
                           operation="replace")
        client.commit()
        state = client.get()["state"]
        assert state["deploys"] == 1
        assert "fw" in state["vms"]


class TestTransportVlans:
    def _collide(self):
        """Hop ids whose transport VLANs, as they used to be derived
        (from the hop id and the rule's position in the config), are
        equal for the first and the second rule."""
        from repro.infra.tags import vlan_for_hop
        first = {vlan_for_hop(f"transport:a{n}:1"): f"a{n}"
                 for n in range(200)}
        for n in range(200):
            vlan = vlan_for_hop(f"transport:b{n}:2")
            if vlan in first:
                return first[vlan], f"b{n}"
        raise AssertionError("no collision among 200 x 200 hop ids")

    def _push(self, cloud, rules):
        net, domain, orchestrator, client = cloud
        view = domain.domain_view()
        port = view.infra(domain.bisbis_id).port("sap-in")
        for hop_id, tp_dst, out in rules:
            port.add_flowrule(f"in_port=sap-in;flowclass=tp_dst={tp_dst}",
                              f"output=sap-{out}", hop_id=hop_id)
        client.edit_config(_config(view), operation="replace")
        client.commit()

    def test_colliding_hop_ids_get_distinct_fabric_vlans(self, cloud):
        """Two paths through one spine port, to different egress ports:
        with one transport VLAN between them the later path's entries
        replaced the earlier one's and its traffic left the wrong way."""
        net, domain, orchestrator, client = cloud
        domain.add_sap("out2", leaf_index=1)
        hop_a, hop_b = self._collide()
        self._push(cloud, [(hop_a, 80, "out"), (hop_b, 81, "out2")])
        vlans = orchestrator._transport_vlans["sap-in"]
        assert vlans[f"sap-in:{hop_a}"] != vlans[f"sap-in:{hop_b}"]
        h_in = domain.sap_hosts["in"]
        for tp_dst in (80, 81):
            h_in.send(tcp_packet(h_in.ip, domain.sap_hosts["out"].ip,
                                 tp_dst=tp_dst))
        net.run()
        assert [p.tp_dst for p in domain.sap_hosts["out"].received] == [80]
        assert [p.tp_dst for p in domain.sap_hosts["out2"].received] == [81]

    def test_vlan_survives_neighbours_and_returns_to_the_pool(self, cloud):
        net, domain, orchestrator, client = cloud
        self._push(cloud, [("h1", 80, "out"), ("h2", 81, "out")])
        vlan = orchestrator._transport_vlans["sap-in"]["sap-in:h2"]
        free = len(orchestrator._free_vlans)
        mods = domain.odl.endpoint.flow_mods_sent
        # h1 goes: h2, now first in the config, keeps its VLAN and its
        # entries; only h1's three entries are deleted
        self._push(cloud, [("h2", 81, "out")])
        assert orchestrator._transport_vlans == {
            "sap-in": {"sap-in:h2": vlan}}
        assert len(orchestrator._free_vlans) == free + 1
        assert domain.odl.endpoint.flow_mods_sent == mods + 3
