"""Point-to-point links with bandwidth, delay and a bounded queue.

Transmission time = serialization (size / bandwidth) + propagation
delay.  The link serializes packets: a packet must wait for the
previous one to finish serializing (single transmit queue per
direction), which yields realistic queueing latency under load and
gives the dataplane benchmark its throughput ceiling.
"""

from __future__ import annotations

from repro.netem.packet import Packet
from repro.sim.kernel import Simulator


class Link:
    """Bidirectional link between two (node, port) endpoints."""

    def __init__(self, simulator: Simulator, *,
                 node_a: "NetworkNode", port_a: str,
                 node_b: "NetworkNode", port_b: str,
                 bandwidth_mbps: float = 1000.0, delay_ms: float = 1.0,
                 queue_packets: int = 256):
        self.simulator = simulator
        self.node_a, self.port_a = node_a, port_a
        self.node_b, self.port_b = node_b, port_b
        self.bandwidth_mbps = bandwidth_mbps
        self.delay_ms = delay_ms
        self.queue_packets = queue_packets
        #: per-direction state, keyed by sender node id
        self._busy_until = {node_a.id: 0.0, node_b.id: 0.0}
        self._queued = {node_a.id: 0, node_b.id: 0}
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        #: administrative/operational state; a down link drops traffic
        self.up = True

    def peer_of(self, sender: "NetworkNode") -> tuple["NetworkNode", str]:
        if sender is self.node_a:
            return self.node_b, self.port_b
        if sender is self.node_b:
            return self.node_a, self.port_a
        raise ValueError(f"{sender!r} is not an endpoint of this link")

    def send(self, sender: "NetworkNode", packet: Packet) -> None:
        """Queue a packet for transmission from ``sender``'s side."""
        if not self.up:
            self.dropped += 1
            return
        if self._queued[sender.id] >= self.queue_packets:
            self.dropped += 1
            return
        receiver, in_port = self.peer_of(sender)
        serialization = self._serialization_ms(packet)
        now = self.simulator.now
        start = max(now, self._busy_until[sender.id])
        done = start + serialization
        self._busy_until[sender.id] = done
        self._queued[sender.id] += 1
        arrival_delay = (done + self.delay_ms) - now
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        self.simulator.schedule(arrival_delay, self._deliver, sender.id,
                                receiver, packet, in_port)

    def _deliver(self, sender_id: str, receiver: "NetworkNode",
                 packet: Packet, in_port: str) -> None:
        self._queued[sender_id] -= 1
        receiver.receive(packet, in_port)

    def _serialization_ms(self, packet: Packet) -> float:
        if self.bandwidth_mbps <= 0:
            return 0.0
        bits = packet.size_bytes * 8
        return bits / (self.bandwidth_mbps * 1000.0)  # Mbit/s -> bits/ms

    def __repr__(self) -> str:
        return (f"<Link {self.node_a.id}.{self.port_a} <-> "
                f"{self.node_b.id}.{self.port_b} {self.bandwidth_mbps}Mbps "
                f"{self.delay_ms}ms>")


from repro.netem.node import NetworkNode  # noqa: E402  (circular typing)
