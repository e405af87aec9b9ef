"""OpenFlow switch: a netem node forwarding by flow table, punting
misses to its controller over a control channel."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.netem.node import NetworkNode
from repro.netem.packet import Packet
from repro.openflow.channel import ControlChannel
from repro.openflow.flowtable import FlowTable
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    OFMessage,
    OFPP_CONTROLLER,
    OFPP_FLOOD,
    OFPP_IN_PORT,
    PacketIn,
    PacketOut,
)
from repro.sim.kernel import Simulator


class OpenFlowSwitch(NetworkNode):
    """A software switch with one flow table and an OF agent."""

    def __init__(self, dpid: str, simulator: Simulator,
                 forwarding_delay_ms: float = 0.01,
                 buffer_packets: int = 512):
        super().__init__(dpid, simulator)
        self.dpid = dpid
        self.table = FlowTable()
        self.forwarding_delay_ms = forwarding_delay_ms
        self.channel: Optional[ControlChannel] = None
        #: xids of the messages the switch originates (PacketIn,
        #: FlowRemoved) on its one controller connection
        self._xids = itertools.count(1)
        self._buffered: dict[int, tuple[Packet, str]] = {}
        self._buffer_limit = buffer_packets
        self.packet_ins_sent = 0

    # -- control side ---------------------------------------------------------

    def connect_controller(self, channel: ControlChannel) -> None:
        """Attach the switch as endpoint "b" of a control channel."""
        self.channel = channel
        channel.bind_b(self.handle_of_message)

    def handle_of_message(self, message: OFMessage) -> None:
        if isinstance(message, FeaturesRequest):
            self._reply(FeaturesReply(xid=message.xid, dpid=self.dpid,
                                      ports=self.ports()))
        elif isinstance(message, EchoRequest):
            self._reply(EchoReply(xid=message.xid, data=message.data))
        elif isinstance(message, FlowMod):
            self.table.apply_flow_mod(message, now=self.simulator.now)
        elif isinstance(message, BarrierRequest):
            self._reply(BarrierReply(xid=message.xid))
        elif isinstance(message, FlowStatsRequest):
            self._reply(FlowStatsReply(xid=message.xid, dpid=self.dpid,
                                       entries=self.table.stats()))
        elif isinstance(message, PacketOut):
            self._handle_packet_out(message)

    def _reply(self, message: OFMessage) -> None:
        if self.channel is not None:
            self.channel.send_to_a(message)

    def _handle_packet_out(self, message: PacketOut) -> None:
        # the answered PacketIn's slot is freed whether or not the
        # controller sent the packet back inline
        buffered = self._buffered.pop(message.buffer_id, None)
        packet = message.packet
        if packet is None and buffered is not None:
            packet = buffered[0]
        if packet is None:
            return
        in_port = message.in_port
        for action in message.actions:
            port = action.apply(packet)
            if port is not None:
                self._output(packet, port, in_port)

    # -- data side --------------------------------------------------------------

    def receive(self, packet: Packet, in_port: str) -> None:
        self.rx_packets += 1
        packet.record(self.id)
        now = self.simulator.now
        for entry in self.table.expire(now):
            if self.channel is not None:
                self.channel.send_to_a(FlowRemoved(
                    xid=next(self._xids), dpid=self.dpid, cookie=entry.cookie,
                    reason=("hard_timeout" if entry.hard_timeout
                            and now >= entry.installed_at + entry.hard_timeout
                            else "idle_timeout")))
        entry = self.table.lookup(packet, in_port, now=now)
        if entry is None:
            self._punt(packet, in_port)
            return
        self.simulator.schedule(self.forwarding_delay_ms,
                                self._apply_actions, packet, in_port,
                                list(entry.actions))

    def _apply_actions(self, packet: Packet, in_port: str, actions: list) -> None:
        for action in actions:
            port = action.apply(packet)
            if port is not None:
                self._output(packet, port, in_port)

    def _output(self, packet: Packet, port: str, in_port: str) -> None:
        if port == OFPP_CONTROLLER:
            self._punt(packet, in_port, reason="action")
        elif port == OFPP_FLOOD:
            for out_port in self.ports():
                if out_port != in_port:
                    self.transmit(packet.copy(), out_port)
        elif port == OFPP_IN_PORT:
            self.transmit(packet, in_port)
        else:
            self.transmit(packet, port)

    def _punt(self, packet: Packet, in_port: str,
              reason: str = "no_match") -> None:
        if self.channel is None:
            self.drops += 1
            return
        if len(self._buffered) >= self._buffer_limit:
            self.drops += 1
            return
        message = PacketIn(xid=next(self._xids), dpid=self.dpid,
                           in_port=in_port, packet=packet, reason=reason)
        self._buffered[message.xid] = (packet, in_port)
        self.packet_ins_sent += 1
        self.channel.send_to_a(message)

    def flow_count(self) -> int:
        return len(self.table)
