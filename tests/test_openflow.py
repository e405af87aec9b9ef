"""Tests for the OpenFlow-like protocol: matches, tables, switch loop."""

import pytest

from repro.netem import Network
from repro.netem.packet import Packet, tcp_packet
from repro.openflow import (
    ActionOutput,
    ActionPopVlan,
    ActionPushVlan,
    ActionSetField,
    ControllerEndpoint,
    FlowMod,
    FlowModCommand,
    FlowTable,
    Match,
    OpenFlowSwitch,
)
from repro.openflow.messages import Action, OFPP_FLOOD
from repro.sim import Simulator


class TestMatch:
    def test_wildcard_matches_everything(self):
        assert Match().matches(tcp_packet("1.1.1.1", "2.2.2.2"), "1")

    def test_exact_fields(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=80)
        assert Match(nw_dst="2.2.2.2", tp_dst=80).matches(packet, "1")
        assert not Match(nw_dst="9.9.9.9").matches(packet, "1")

    def test_in_port(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2")
        assert Match(in_port="3").matches(packet, "3")
        assert not Match(in_port="3").matches(packet, "4")

    def test_vlan(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2")
        packet.vlan = 100
        assert Match(dl_vlan=100).matches(packet, "1")
        assert not Match(dl_vlan=200).matches(packet, "1")

    def test_from_flowclass(self):
        match = Match.from_flowclass("tp_dst=80,nw_proto=6", in_port="2")
        assert match.tp_dst == 80 and match.nw_proto == 6
        assert match.in_port == "2"

    def test_from_flowclass_hex(self):
        match = Match.from_flowclass("dl_type=0x0800")
        assert match.dl_type == 0x0800

    def test_specificity(self):
        assert Match().specificity() == 0
        assert Match(in_port="1", tp_dst=80).specificity() == 2

    def test_dict_roundtrip(self):
        match = Match(in_port="1", nw_src="10.0.0.1", tp_dst=443)
        assert Match.from_dict(match.to_dict()) == match


class TestActions:
    def test_output(self):
        assert ActionOutput("5").apply(tcp_packet("1.1.1.1", "2.2.2.2")) == "5"

    def test_push_pop_vlan(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2")
        ActionPushVlan(42).apply(packet)
        assert packet.vlan == 42
        ActionPopVlan().apply(packet)
        assert packet.vlan is None

    def test_set_field(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2")
        ActionSetField("nw_src", "99.0.0.1").apply(packet)
        assert packet.ip_src == "99.0.0.1"

    def test_set_field_rejects_unknown(self):
        with pytest.raises(ValueError):
            ActionSetField("nw_ttl", 3)

    def test_action_dict_roundtrip(self):
        for action in (ActionOutput("2"), ActionPushVlan(7), ActionPopVlan(),
                       ActionSetField("tp_dst", 8080)):
            assert Action.from_dict(action.to_dict()) == action


class TestFlowTable:
    def _mod(self, **kwargs):
        defaults = dict(command=FlowModCommand.ADD, match=Match(),
                        actions=[ActionOutput("1")], priority=100)
        defaults.update(kwargs)
        return FlowMod(**defaults)

    def test_priority_wins(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(match=Match(tp_dst=80),
                                       actions=[ActionOutput("http")],
                                       priority=200))
        table.apply_flow_mod(self._mod(actions=[ActionOutput("default")],
                                       priority=10))
        entry = table.lookup(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=80), "1")
        assert entry.actions[0].port == "http"
        entry = table.lookup(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=22), "1")
        assert entry.actions[0].port == "default"

    def test_inserts_keep_priority_then_install_order(self):
        """Entries arrive one at a time, in any order: the table stays
        sorted by descending priority, ties oldest first."""
        table = FlowTable()
        arrivals = [(100, 1, 0.0), (300, 2, 0.0), (100, 3, 0.0),
                    (200, 4, 1.0), (300, 5, 1.0), (100, 6, 2.0)]
        for priority, tp_dst, now in arrivals:
            table.apply_flow_mod(self._mod(match=Match(tp_dst=tp_dst),
                                           priority=priority), now=now)
        assert [(e.priority, e.match.tp_dst) for e in table.entries()] == [
            (300, 2), (300, 5), (200, 4), (100, 1), (100, 3), (100, 6)]

    def test_add_replaces_same_match_priority(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(actions=[ActionOutput("a")]))
        table.apply_flow_mod(self._mod(actions=[ActionOutput("b")]))
        assert len(table) == 1
        assert table.lookup(tcp_packet("1.1.1.1", "2.2.2.2"), "1") \
            .actions[0].port == "b"

    def test_miss_returns_none(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(match=Match(tp_dst=80)))
        assert table.lookup(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=22),
                            "1") is None
        assert table.misses == 1

    def test_stats_accumulate(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod())
        for _ in range(3):
            table.lookup(tcp_packet("1.1.1.1", "2.2.2.2", size=500), "1")
        entry = table.entries()[0]
        assert entry.packets == 3
        assert entry.bytes == 1500

    def test_delete_by_wildcard(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(match=Match(tp_dst=80)))
        table.apply_flow_mod(self._mod(match=Match(tp_dst=22), priority=50))
        table.apply_flow_mod(self._mod(command=FlowModCommand.DELETE,
                                       match=Match()))
        assert len(table) == 0

    def test_delete_by_cookie(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(cookie="svc1"))
        table.apply_flow_mod(self._mod(match=Match(tp_dst=1), cookie="svc2"))
        assert table.delete_by_cookie("svc1") == 1
        assert len(table) == 1

    def test_delete_strict(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(priority=100))
        table.apply_flow_mod(self._mod(match=Match(tp_dst=80), priority=200))
        table.apply_flow_mod(self._mod(command=FlowModCommand.DELETE_STRICT,
                                       priority=100))
        assert len(table) == 1

    def test_modify(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(actions=[ActionOutput("x")]))
        table.apply_flow_mod(self._mod(command=FlowModCommand.MODIFY,
                                       actions=[ActionOutput("y")]))
        assert table.entries()[0].actions[0].port == "y"

    def test_hard_timeout_expiry(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(hard_timeout=10.0), now=0.0)
        assert table.lookup(tcp_packet("1.1.1.1", "2.2.2.2"), "1",
                            now=5.0) is not None
        assert table.lookup(tcp_packet("1.1.1.1", "2.2.2.2"), "1",
                            now=15.0) is None

    def test_idle_timeout_refreshes_on_hit(self):
        table = FlowTable()
        table.apply_flow_mod(self._mod(idle_timeout=10.0), now=0.0)
        table.lookup(tcp_packet("1.1.1.1", "2.2.2.2"), "1", now=8.0)
        assert table.lookup(tcp_packet("1.1.1.1", "2.2.2.2"), "1",
                            now=16.0) is not None
        assert table.lookup(tcp_packet("1.1.1.1", "2.2.2.2"), "1",
                            now=40.0) is None


@pytest.fixture
def wired():
    """h1 -- s1 -- h2 with a controller attached to s1."""
    net = Network()
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    switch = net.add(OpenFlowSwitch("s1", net.simulator))
    net.connect("h1", "0", "s1", "1", delay_ms=0.5)
    net.connect("h2", "0", "s1", "2", delay_ms=0.5)
    controller = ControllerEndpoint("ctl", simulator=net.simulator)
    controller.connect_switch(switch)
    return net, h1, h2, switch, controller


class TestSwitchControllerLoop:
    def test_features_handshake(self, wired):
        _, _, _, switch, controller = wired
        features = controller.features("s1")
        assert features is not None
        assert set(features.ports) == {"1", "2"}

    def test_table_miss_punts(self, wired):
        net, h1, _, switch, controller = wired
        punted = []
        controller.on_packet_in(lambda dpid, msg: punted.append((dpid, msg)))
        h1.send(tcp_packet(h1.ip, "2.2.2.2"))
        net.run()
        assert len(punted) == 1
        assert punted[0][0] == "s1"
        assert punted[0][1].in_port == "1"

    def test_reactive_forwarding(self, wired):
        net, h1, h2, switch, controller = wired

        def handler(dpid, msg):
            controller.send_flow_mod(dpid, match=Match(in_port="1"),
                                     actions=[ActionOutput("2")])
            controller.send_packet_out(dpid, msg.packet, msg.in_port,
                                       [ActionOutput("2")],
                                       buffer_id=msg.xid)

        controller.on_packet_in(handler)
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 1
        # second packet forwarded in the fast path (no new punt)
        punts_before = switch.packet_ins_sent
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert switch.packet_ins_sent == punts_before
        assert len(h2.received) == 2

    def test_answered_packet_in_frees_its_buffer(self, wired):
        """A PacketOut names the PacketIn it answers and the switch
        releases that slot, packet inline or not: a reactive switch keeps
        punting after more misses than it has buffers."""
        net, h1, h2, switch, controller = wired
        inline = iter([True, False] * 300)

        def flood(dpid, msg):
            controller.send_packet_out(
                dpid, msg.packet if next(inline) else None, msg.in_port,
                [ActionOutput(OFPP_FLOOD)], buffer_id=msg.xid)

        controller.on_packet_in(flood)
        h1.send_burst([tcp_packet(h1.ip, h2.ip) for _ in range(600)],
                      interval=1.0)
        net.run()
        assert switch.packet_ins_sent == 600 and switch.drops == 0
        assert len(h2.received) == 600
        assert not switch._buffered

    def test_unanswered_packet_ins_fill_the_buffer(self):
        net = Network()
        h1 = net.add_host("h1")
        switch = net.add(OpenFlowSwitch("s1", net.simulator,
                                        buffer_packets=2))
        net.connect("h1", "0", "s1", "1", delay_ms=0.5)
        ControllerEndpoint("ctl", simulator=net.simulator) \
            .connect_switch(switch)
        for _ in range(3):
            h1.send(tcp_packet(h1.ip, "2.2.2.2"))
        net.run()
        assert switch.packet_ins_sent == 2 and switch.drops == 1

    def test_flood(self, wired):
        net, h1, h2, switch, controller = wired
        controller.send_flow_mod("s1", match=Match(),
                                 actions=[ActionOutput(OFPP_FLOOD)])
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 1  # flood excludes ingress port

    def test_barrier(self, wired):
        _, _, _, _, controller = wired
        xid = controller.barrier("s1")
        assert not controller.barrier_pending("s1", xid)

    def test_flow_stats(self, wired):
        net, h1, h2, _, controller = wired
        controller.send_flow_mod("s1", match=Match(in_port="1"),
                                 actions=[ActionOutput("2")])
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        controller.request_flow_stats("s1")
        stats = controller.flow_stats("s1")
        assert stats.entries[0]["packets"] == 1

    def test_vlan_rewrite_path(self, wired):
        net, h1, h2, _, controller = wired
        controller.send_flow_mod(
            "s1", match=Match(in_port="1"),
            actions=[ActionPushVlan(77), ActionPopVlan(), ActionOutput("2")])
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert h2.received[0].vlan is None

    def test_duplicate_switch_rejected(self, wired):
        _, _, _, switch, controller = wired
        with pytest.raises(ValueError):
            controller.connect_switch(switch)

    def test_buffer_overflow_drops(self):
        sim = Simulator()
        switch = OpenFlowSwitch("s", sim, buffer_packets=2)
        # no controller: punts turn into drops
        switch.receive(Packet(), "1")
        assert switch.drops == 1

    def test_echo_keepalive_measures_rtt(self):
        net = Network()
        switch = net.add(OpenFlowSwitch("s1", net.simulator))
        controller = ControllerEndpoint("ctl", simulator=net.simulator,
                                        channel_latency_ms=4.0)
        controller.connect_switch(switch)
        net.run()
        controller.ping("s1")
        net.run()
        assert controller.echo_rtt_ms["s1"] == pytest.approx(8.0)

    def test_flow_removed_notification_on_timeout(self, wired):
        net, h1, h2, switch, controller = wired
        removed = []
        controller.on_flow_removed(
            lambda dpid, msg: removed.append((dpid, msg.cookie, msg.reason)))
        controller.send_flow_mod("s1", match=Match(in_port="1"),
                                 actions=[ActionOutput("2")],
                                 hard_timeout=5.0, cookie="temp")
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 1
        # advance past the timeout; next packet triggers expiry + notify
        net.simulator.schedule(10.0, lambda: None)
        net.run()
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert removed and removed[0][0] == "s1"
        assert removed[0][1] == "temp"
        assert removed[0][2] == "hard_timeout"


def test_xids_are_numbered_per_connection():
    """The sending endpoint numbers a connection's messages itself, so a
    FlowMod's bytes (its xid is JSON-encoded) do not depend on how many
    messages the process sent on other connections before it."""
    def connected() -> ControllerEndpoint:
        simulator = Simulator()
        controller = ControllerEndpoint("ctl", simulator=simulator)
        controller.connect_switch(OpenFlowSwitch("s1", simulator))
        return controller

    def first_flow_mod(controller: ControllerEndpoint) -> tuple[int, int]:
        before = controller.channel_stats("s1").bytes_to_b
        controller.send_flow_mod("s1", match=Match(in_port="1"),
                                 actions=[ActionOutput("2")])
        return (controller.channel_stats("s1").bytes_to_b - before,
                controller.barrier("s1"))

    first = first_flow_mod(connected())
    busy = connected()
    for index in range(1000):
        busy.send_flow_mod("s1", match=Match(tp_dst=index), actions=[])
    assert first_flow_mod(connected()) == first
