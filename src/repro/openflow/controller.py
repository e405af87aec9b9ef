"""Controller-side endpoint: manages switch connections, sends
flow-mods, dispatches packet-ins to registered handlers."""

from __future__ import annotations

from typing import Callable, Optional

from repro.openflow.channel import ChannelStats, ControlChannel
from repro.openflow.messages import (
    Action,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    Match,
    OFMessage,
    PacketIn,
    PacketOut,
)
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.kernel import Simulator

PacketInHandler = Callable[[str, PacketIn], None]


class ControllerEndpoint:
    """The controller side of N OpenFlow control channels."""

    def __init__(self, name: str, simulator: Optional[Simulator] = None,
                 channel_latency_ms: float = 0.0):
        self.name = name
        self.simulator = simulator
        self.channel_latency_ms = channel_latency_ms
        self._channels: dict[str, ControlChannel] = {}
        self._features: dict[str, FeaturesReply] = {}
        self._packet_in_handlers: list[PacketInHandler] = []
        self._flow_removed_handlers: list[Callable[[str, "FlowRemoved"], None]] = []
        self._stats_replies: dict[str, FlowStatsReply] = {}
        self._pending_barriers: set[int] = set()
        self._pending_echoes: dict[int, float] = {}
        #: dpid -> last echo round-trip in virtual ms
        self.echo_rtt_ms: dict[str, float] = {}
        self.flow_mods_sent = 0

    # -- connection management ------------------------------------------------

    def connect_switch(self, switch: OpenFlowSwitch) -> ControlChannel:
        """Create and wire a channel to a switch; handshakes features."""
        if switch.dpid in self._channels:
            raise ValueError(f"switch {switch.dpid!r} already connected")
        channel = ControlChannel(f"{self.name}<->{switch.dpid}",
                                 simulator=self.simulator,
                                 latency_ms=self.channel_latency_ms)
        channel.bind_a(lambda msg, dpid=switch.dpid: self._on_message(dpid, msg))
        switch.connect_controller(channel)
        self._channels[switch.dpid] = channel
        channel.send_to_b(FeaturesRequest())
        return channel

    def connected_dpids(self) -> list[str]:
        return list(self._channels)

    def channel_stats(self, dpid: str) -> ChannelStats:
        return self._channels[dpid].stats

    def total_stats(self) -> ChannelStats:
        total = ChannelStats()
        for channel in self._channels.values():
            total.messages_to_a += channel.stats.messages_to_a
            total.messages_to_b += channel.stats.messages_to_b
            total.bytes_to_a += channel.stats.bytes_to_a
            total.bytes_to_b += channel.stats.bytes_to_b
        return total

    # -- message handling ------------------------------------------------------

    def _on_message(self, dpid: str, message: OFMessage) -> None:
        if isinstance(message, FeaturesReply):
            self._features[dpid] = message
        elif isinstance(message, PacketIn):
            for handler in self._packet_in_handlers:
                handler(dpid, message)
        elif isinstance(message, BarrierReply):
            self._pending_barriers.discard(message.xid)
        elif isinstance(message, FlowStatsReply):
            self._stats_replies[dpid] = message
        elif isinstance(message, FlowRemoved):
            for handler in self._flow_removed_handlers:
                handler(dpid, message)
        elif isinstance(message, EchoReply):
            sent_at = self._pending_echoes.pop(message.xid, None)
            if sent_at is not None and self.simulator is not None:
                self.echo_rtt_ms[dpid] = self.simulator.now - sent_at

    def on_packet_in(self, handler: PacketInHandler) -> None:
        self._packet_in_handlers.append(handler)

    def on_flow_removed(self,
                        handler: Callable[[str, "FlowRemoved"], None]) -> None:
        self._flow_removed_handlers.append(handler)

    def ping(self, dpid: str, data: str = "keepalive") -> int:
        """Send an echo request; RTT lands in :attr:`echo_rtt_ms`."""
        message = EchoRequest(data=data)
        self._pending_echoes[message.xid] = (
            self.simulator.now if self.simulator is not None else 0.0)
        self._channels[dpid].send_to_b(message)
        return message.xid

    def features(self, dpid: str) -> Optional[FeaturesReply]:
        return self._features.get(dpid)

    # -- control actions -------------------------------------------------------

    def send_flow_mod(self, dpid: str, *, match: Match, actions: list[Action],
                      priority: int = 100,
                      command: FlowModCommand = FlowModCommand.ADD,
                      idle_timeout: float = 0.0, hard_timeout: float = 0.0,
                      cookie: str = "") -> None:
        message = FlowMod(command=command, match=match, actions=actions,
                          priority=priority, idle_timeout=idle_timeout,
                          hard_timeout=hard_timeout, cookie=cookie)
        self.flow_mods_sent += 1
        self._channels[dpid].send_to_b(message)

    def delete_flows(self, dpid: str, *, match: Optional[Match] = None,
                     cookie: str = "") -> None:
        self.send_flow_mod(dpid, match=match or Match(), actions=[],
                           command=FlowModCommand.DELETE, cookie=cookie)

    def send_packet_out(self, dpid: str, packet, in_port: str,
                        actions: list[Action],
                        buffer_id: Optional[int] = None) -> None:
        """``buffer_id`` is the xid of the PacketIn being answered."""
        self._channels[dpid].send_to_b(
            PacketOut(packet=packet, in_port=in_port, actions=actions,
                      buffer_id=buffer_id))

    def barrier(self, dpid: str) -> int:
        message = BarrierRequest()
        self._pending_barriers.add(message.xid)
        self._channels[dpid].send_to_b(message)
        return message.xid

    def barrier_pending(self, xid: int) -> bool:
        return xid in self._pending_barriers

    def request_flow_stats(self, dpid: str) -> None:
        self._channels[dpid].send_to_b(FlowStatsRequest())

    def flow_stats(self, dpid: str) -> Optional[FlowStatsReply]:
        return self._stats_replies.get(dpid)

    def __repr__(self) -> str:
        return f"<ControllerEndpoint {self.name}: {len(self._channels)} switches>"
