"""Tests for control channels with simulated latency (the async path)."""

import pytest

from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.openflow import (
    ActionOutput,
    ControllerEndpoint,
    Match,
    OpenFlowSwitch,
)
from repro.openflow.channel import ControlChannel
from repro.sim import Simulator


class TestChannelLatency:
    def test_latent_delivery_uses_simulator(self):
        sim = Simulator()
        channel = ControlChannel("lat", simulator=sim, latency_ms=5.0)
        received = []
        channel.bind_b(received.append)
        channel.bind_a(lambda msg: None)
        channel.send_to_b("hello")
        assert received == []  # not yet delivered
        sim.run()
        assert received == ["hello"]
        assert sim.now == 5.0

    def test_zero_latency_is_synchronous(self):
        sim = Simulator()
        channel = ControlChannel("sync", simulator=sim, latency_ms=0.0)
        received = []
        channel.bind_b(received.append)
        channel.send_to_b("now")
        assert received == ["now"]

    def test_unbound_endpoint_raises(self):
        channel = ControlChannel("x")
        with pytest.raises(RuntimeError):
            channel.send_to_b("nobody home")

    def test_byte_accounting_with_objects(self):
        channel = ControlChannel("acct")
        channel.bind_b(lambda msg: None)
        channel.send_to_b({"key": "value"})
        channel.send_to_b(b"raw-bytes")
        channel.send_to_b("text")
        assert channel.stats.messages_to_b == 3
        assert channel.stats.bytes_to_b == \
            len('{"key": "value"}') + len(b"raw-bytes") + len("text")

    def test_stats_reset(self):
        channel = ControlChannel("r")
        channel.bind_b(lambda msg: None)
        channel.send_to_b("x")
        channel.stats.reset()
        assert channel.stats.messages == 0
        assert channel.stats.bytes == 0


class TestLatentOpenFlowControl:
    def test_reactive_forwarding_with_control_latency(self):
        """Packet-in/flow-mod round trips pay the control RTT; the
        dataplane still converges."""
        net = Network()
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        switch = net.add(OpenFlowSwitch("s1", net.simulator))
        net.connect("h1", "0", "s1", "1", delay_ms=0.1)
        net.connect("h2", "0", "s1", "2", delay_ms=0.1)
        controller = ControllerEndpoint("ctl", simulator=net.simulator,
                                        channel_latency_ms=10.0)
        controller.connect_switch(switch)

        def on_packet_in(dpid, msg):
            controller.send_flow_mod(dpid, match=Match(in_port="1"),
                                     actions=[ActionOutput("2")])
            controller.send_packet_out(dpid, msg.packet, msg.in_port,
                                       [ActionOutput("2")],
                                       buffer_id=msg.xid)

        controller.on_packet_in(on_packet_in)
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 1
        # first packet paid two control-channel traversals (>= 20 ms)
        assert h2.latencies[0] >= 20.0
        # second packet takes the fast path
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 2
        assert h2.latencies[1] < 1.0

    def test_features_handshake_with_latency(self):
        net = Network()
        switch = net.add(OpenFlowSwitch("s1", net.simulator))
        controller = ControllerEndpoint("ctl", simulator=net.simulator,
                                        channel_latency_ms=3.0)
        controller.connect_switch(switch)
        assert controller.features("s1") is None  # still in flight
        net.run()
        assert controller.features("s1") is not None
