"""Tests for the ODL-like fabric controller's path installation,
including the single-tag VLAN semantics."""

import pytest

from repro.cloud.odl import OdlController
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.openflow import OpenFlowSwitch


@pytest.fixture
def fabric():
    """h_in -- leaf0 -- spine -- leaf1 -- h_out."""
    net = Network()
    odl = OdlController(simulator=net.simulator)
    switches = {}
    for name in ("leaf0", "spine", "leaf1"):
        switch = net.add(OpenFlowSwitch(name, net.simulator))
        odl.connect(switch)
        switches[name] = switch
    for a, b in (("leaf0", "spine"), ("spine", "leaf1")):
        net.connect(a, f"to-{b}", b, f"to-{a}")
        odl.register_link(a, f"to-{b}", b, f"to-{a}")
    h_in = net.add_host("h-in")
    h_out = net.add_host("h-out")
    net.connect("h-in", "0", "leaf0", "edge-in")
    net.connect("h-out", "0", "leaf1", "edge-out")
    return net, odl, switches, h_in, h_out


def test_install_path_end_to_end(fabric):
    net, odl, switches, h_in, h_out = fabric
    path = odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf1", egress_port="edge-out",
        transport_vlan=500, cookie="svc")
    assert path == ["leaf0", "spine", "leaf1"]
    h_in.send(tcp_packet(h_in.ip, h_out.ip))
    net.run()
    assert len(h_out.received) == 1
    # transport tag stripped at egress
    assert h_out.received[0].vlan is None


def test_install_path_preserves_chain_tag_for_transit(fabric):
    """match_vlan == egress_vlan: the chain tag must survive transit."""
    net, odl, switches, h_in, h_out = fabric
    odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf1", egress_port="edge-out",
        transport_vlan=500, match_vlan=777, egress_vlan=777)
    packet = tcp_packet(h_in.ip, h_out.ip)
    packet.vlan = 777
    h_in.send(packet)
    net.run()
    assert len(h_out.received) == 1
    assert h_out.received[0].vlan == 777


def test_install_path_rewrites_chain_tag(fabric):
    """Tagged h1 traffic leaves carrying the *next* hop's tag."""
    net, odl, switches, h_in, h_out = fabric
    odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf1", egress_port="edge-out",
        transport_vlan=500, match_vlan=777, egress_vlan=888)
    packet = tcp_packet(h_in.ip, h_out.ip)
    packet.vlan = 777
    h_in.send(packet)
    net.run()
    assert h_out.received[0].vlan == 888


def test_install_path_single_switch(fabric):
    net, odl, switches, h_in, h_out = fabric
    net.connect("h-out", "1", "leaf0", "edge-out2")
    path = odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf0", egress_port="edge-out2",
        transport_vlan=500)
    assert path == ["leaf0"]
    h_in.send(tcp_packet(h_in.ip, h_out.ip))
    net.run()
    assert len(h_out.received) == 1
    assert h_out.received[0].vlan is None  # no transport tag needed


def test_untagged_ingress_filtered_from_tagged_path(fabric):
    net, odl, switches, h_in, h_out = fabric
    odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf1", egress_port="edge-out",
        transport_vlan=500, match_vlan=777, egress_vlan=777)
    h_in.send(tcp_packet(h_in.ip, h_out.ip))  # untagged
    net.run()
    assert len(h_out.received) == 0


def test_remove_by_cookie(fabric):
    net, odl, switches, h_in, h_out = fabric
    odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf1", egress_port="edge-out",
        transport_vlan=500, cookie="svc")
    odl.remove_by_cookie("svc")
    assert all(switch.flow_count() == 0 for switch in switches.values())


def test_remove_by_cookie_contacts_only_the_path(fabric):
    """One strict delete per installed entry, on the switch that holds
    it — not a cookie-wide delete broadcast to every switch."""
    net, odl, switches, h_in, h_out = fabric
    net.connect("h-out", "1", "leaf0", "edge-out2")
    odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf0", egress_port="edge-out2",
        transport_vlan=500, cookie="local")
    odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf1", egress_port="edge-out",
        transport_vlan=501, flowclass="tp_dst=80", cookie="far")
    before = {dpid: odl.endpoint.channel_stats(dpid).messages_to_b
              for dpid in switches}
    mods = odl.endpoint.flow_mods_sent
    odl.remove_by_cookie("local")
    assert odl.endpoint.flow_mods_sent == mods + 1
    after = {dpid: odl.endpoint.channel_stats(dpid).messages_to_b
             for dpid in switches}
    assert after["spine"] == before["spine"]
    assert after["leaf1"] == before["leaf1"]
    assert after["leaf0"] == before["leaf0"] + 2  # the delete, a barrier
    assert [s.flow_count() for s in switches.values()] == [1, 1, 1]
    odl.remove_by_cookie("far")
    assert all(switch.flow_count() == 0 for switch in switches.values())


def test_flowclass_restriction(fabric):
    net, odl, switches, h_in, h_out = fabric
    odl.install_path(
        ingress_dpid="leaf0", ingress_port="edge-in",
        egress_dpid="leaf1", egress_port="edge-out",
        transport_vlan=500, flowclass="tp_dst=80")
    h_in.send(tcp_packet(h_in.ip, h_out.ip, tp_dst=80))
    h_in.send(tcp_packet(h_in.ip, h_out.ip, tp_dst=22))
    net.run()
    assert len(h_out.received) == 1
    assert h_out.received[0].tp_dst == 80
