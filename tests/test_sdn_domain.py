"""Tests for the POX-like controller and the legacy SDN domain."""

import pytest

from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg.model import InfraType
from repro.sdnnet import SDNDomain
from repro.sdnnet.pox import (
    Event,
    EventBus,
)
from repro.infra.tags import vlan_for_hop


class TestEventBus:
    def test_publish_subscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe("X", seen.append)
        bus.publish(Event("X", {"k": 1}))
        bus.publish(Event("Y"))
        assert len(seen) == 1 and seen[0].data == {"k": 1}
        assert bus.events_published == 2

    def test_multiple_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe("X", lambda e: seen.append("a"))
        bus.subscribe("X", lambda e: seen.append("b"))
        bus.publish(Event("X"))
        assert seen == ["a", "b"]


@pytest.fixture
def sdn():
    net = Network()
    dom = SDNDomain("sdn", net, switch_ids=["sw0", "sw1", "sw2"],
                    links=[("sw0", "sw1"), ("sw1", "sw2")])
    dom.add_sap("a", "sw0")
    dom.add_sap("b", "sw2")
    return net, dom


class TestL2Learning:
    def test_learning_enables_two_way_traffic(self):
        net = Network()
        dom = SDNDomain("sdn", net, switch_ids=["sw0"],
                        enable_l2_learning=True)
        h1 = dom.add_sap("a", "sw0")
        h2 = dom.add_sap("b", "sw0")
        packet = tcp_packet(h1.ip, h2.ip, size=100)
        packet.eth_dst = h2.mac
        h1.send(packet)
        net.run()
        # first packet flooded, reaches h2
        assert len(h2.received) == 1
        reply = tcp_packet(h2.ip, h1.ip, size=100)
        reply.eth_dst = h1.mac
        h2.send(reply)
        net.run()
        assert len(h1.received) == 1
        learner = dom.pox.components["l2_learning"]
        assert learner.installs >= 1


class TestTopologyAndPathPusher:
    def test_shortest_path(self, sdn):
        _, dom = sdn
        assert dom.topology.shortest_path("sw0", "sw2") == \
            ["sw0", "sw1", "sw2"]

    def test_push_path_installs_flows(self, sdn):
        net, dom = sdn
        path = dom.path_pusher.push_path(
            ingress_dpid="sw0", ingress_port="sap-a",
            egress_dpid="sw2", egress_port="sap-b", cookie="svc")
        assert path == ["sw0", "sw1", "sw2"]
        assert all(dom.switches[dpid].flow_count() == 1 for dpid in path)

    def test_pushed_path_carries_traffic(self, sdn):
        net, dom = sdn
        dom.path_pusher.push_path(
            ingress_dpid="sw0", ingress_port="sap-a",
            egress_dpid="sw2", egress_port="sap-b")
        h1, h2 = dom.sap_hosts["a"], dom.sap_hosts["b"]
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 1
        assert h2.received[0].trace[1:-1] == ["sw0", "sw1", "sw2"]

    def test_vlan_matched_path(self, sdn):
        net, dom = sdn
        vlan = vlan_for_hop("hop9")
        dom.path_pusher.push_path(
            ingress_dpid="sw0", ingress_port="sap-a",
            egress_dpid="sw2", egress_port="sap-b",
            match_vlan=vlan, strip_vlan_at_egress=True)
        h1, h2 = dom.sap_hosts["a"], dom.sap_hosts["b"]
        tagged = tcp_packet(h1.ip, h2.ip)
        tagged.vlan = vlan
        h1.send(tagged)
        untagged = tcp_packet(h1.ip, h2.ip)
        h1.send(untagged)
        net.run()
        assert len(h2.received) == 1
        assert h2.received[0].vlan is None

    def test_remove_by_cookie(self, sdn):
        net, dom = sdn
        dom.path_pusher.push_path(
            ingress_dpid="sw0", ingress_port="sap-a",
            egress_dpid="sw2", egress_port="sap-b", cookie="svc1")
        dom.path_pusher.remove_by_cookie("svc1")
        assert all(switch.flow_count() == 0
                   for switch in dom.switches.values())

    def test_remove_by_cookie_contacts_only_the_path(self, sdn):
        net, dom = sdn
        dom.path_pusher.push_path(
            ingress_dpid="sw0", ingress_port="sap-a",
            egress_dpid="sw1", egress_port="to-sw2", cookie="short")
        endpoint = dom.pox.endpoint
        far = endpoint.channel_stats("sw2").messages_to_b
        mods = endpoint.flow_mods_sent
        dom.path_pusher.remove_by_cookie("short")
        assert endpoint.flow_mods_sent == mods + 2  # one per entry
        assert endpoint.channel_stats("sw2").messages_to_b == far


class TestDomainView:
    def test_switches_are_forwarding_only(self, sdn):
        _, dom = sdn
        view = dom.domain_view()
        assert all(infra.infra_type == InfraType.SDN_SWITCH
                   for infra in view.infras)
        assert all(not infra.supports("firewall") for infra in view.infras)

    def test_view_links_and_saps(self, sdn):
        _, dom = sdn
        view = dom.domain_view()
        assert len(view.infras) == 3
        assert {sap.id for sap in view.saps} == {"a", "b"}

    def test_handoff_tags(self, sdn):
        _, dom = sdn
        dom.add_handoff("peer", "sw1")
        view = dom.domain_view()
        assert view.infra("sw1").port("sap-peer").sap_tag == "peer"
