"""Click-style packet processing elements.

Each element has numbered output gates; :meth:`Element.push` consumes a
packet on an input gate and returns ``(out_gate, packet)`` pairs.  The
element set covers the NFs the UNIFY demos chain: firewall, NAT, DPI,
counters, rate limiting, VLAN manipulation.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional

from repro.netem.packet import Packet

Emission = list[tuple[int, Packet]]


class Element(abc.ABC):
    """One processing element with numbered input/output gates."""

    def __init__(self, name: str):
        self.name = name
        self.packets_in = 0
        self.packets_out = 0

    @abc.abstractmethod
    def process(self, packet: Packet, in_gate: int) -> Emission:
        """Transform a packet; return (out_gate, packet) emissions."""

    def push(self, packet: Packet, in_gate: int = 0) -> Emission:
        self.packets_in += 1
        emissions = self.process(packet, in_gate)
        self.packets_out += len(emissions)
        return emissions

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class FromPort(Element):
    """Ingress anchor: external port N enters the element graph here."""

    def __init__(self, name: str, port: int = 0):
        super().__init__(name)
        self.port = port

    def process(self, packet: Packet, in_gate: int) -> Emission:
        return [(0, packet)]


class ToPort(Element):
    """Egress anchor: emissions reaching this element leave on external
    port N.  The hosting process collects them."""

    def __init__(self, name: str, port: int = 1):
        super().__init__(name)
        self.port = port

    def process(self, packet: Packet, in_gate: int) -> Emission:
        return []


class Discard(Element):
    """Drop everything (and count it)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.dropped = 0

    def process(self, packet: Packet, in_gate: int) -> Emission:
        self.dropped += 1
        return []


class Counter(Element):
    """Pass-through byte/packet counter."""

    def __init__(self, name: str):
        super().__init__(name)
        self.count = 0
        self.bytes = 0

    def process(self, packet: Packet, in_gate: int) -> Emission:
        self.count += 1
        self.bytes += packet.size_bytes
        return [(0, packet)]


class Classifier(Element):
    """Send packets matching flowclass specs to dedicated gates.

    ``specs`` is an ordered list of flowclass strings; the first match
    wins and the packet leaves on that spec's gate index.  Non-matching
    packets leave on the gate after the last spec (default path).
    """

    def __init__(self, name: str, specs: Iterable[str]):
        super().__init__(name)
        self.specs = list(specs)

    def process(self, packet: Packet, in_gate: int) -> Emission:
        for index, spec in enumerate(self.specs):
            if packet.matches_flowclass(spec):
                return [(index, packet)]
        return [(len(self.specs), packet)]


class FirewallFilter(Element):
    """Stateless 5-tuple firewall.

    ``rules``: ordered ``("allow"|"deny", flowclass)`` pairs; the first
    matching rule decides, default policy applies otherwise.  Denied
    packets are dropped (gate-less).
    """

    def __init__(self, name: str, rules: Iterable[tuple[str, str]] = (),
                 default: str = "allow"):
        super().__init__(name)
        self.rules = [(verdict.lower(), spec) for verdict, spec in rules]
        self.default = default.lower()
        self.denied = 0

    def process(self, packet: Packet, in_gate: int) -> Emission:
        verdict = self.default
        for rule_verdict, spec in self.rules:
            if packet.matches_flowclass(spec):
                verdict = rule_verdict
                break
        if verdict == "deny":
            self.denied += 1
            packet.metadata.setdefault("fw_denied_by", self.name)
            return []
        packet.metadata.setdefault("fw_passed", []).append(self.name)
        return [(0, packet)]


class NATRewriter(Element):
    """Source NAT: rewrite ip_src to the public address, remember the
    mapping, and reverse-translate replies arriving on gate 1."""

    def __init__(self, name: str, public_ip: str = "192.0.2.1"):
        super().__init__(name)
        self.public_ip = public_ip
        self._sessions: dict[tuple, str] = {}

    def process(self, packet: Packet, in_gate: int) -> Emission:
        if in_gate == 0:  # inside -> outside
            key = (packet.ip_dst, packet.ip_proto, packet.tp_src, packet.tp_dst)
            self._sessions[key] = packet.ip_src
            packet.metadata["nat_original_src"] = packet.ip_src
            packet.ip_src = self.public_ip
            packet.metadata.setdefault("nat_by", self.name)
            return [(0, packet)]
        # outside -> inside: reverse translation
        key = (packet.ip_src, packet.ip_proto, packet.tp_dst, packet.tp_src)
        original = self._sessions.get(key)
        if original is None:
            return []
        packet.ip_dst = original
        return [(1, packet)]


class DPIElement(Element):
    """Payload inspection: tag packets whose payload matches signatures."""

    def __init__(self, name: str, signatures: Iterable[str] = ("malware",)):
        super().__init__(name)
        self.signatures = list(signatures)
        self.flagged = 0

    def process(self, packet: Packet, in_gate: int) -> Emission:
        hits = [sig for sig in self.signatures if sig in packet.payload]
        if hits:
            self.flagged += 1
            packet.metadata["dpi_flags"] = hits
            return [(1, packet)]
        packet.metadata.setdefault("dpi_clean_by", self.name)
        return [(0, packet)]


class RateLimiter(Element):
    """Token-bucket limiter on packet count per virtual ms."""

    def __init__(self, name: str, rate_pps_ms: float = 10.0,
                 burst: float = 20.0):
        super().__init__(name)
        self.rate = rate_pps_ms
        self.burst = burst
        self._tokens = burst
        self._last_time: Optional[float] = None
        self.dropped = 0

    def observe_time(self, now: float) -> None:
        if self._last_time is None:
            self._last_time = now
            return
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last_time) * self.rate)
        self._last_time = now

    def process(self, packet: Packet, in_gate: int) -> Emission:
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return [(0, packet)]
        self.dropped += 1
        return []


class Tee(Element):
    """Duplicate packets to N gates (mirror port)."""

    def __init__(self, name: str, outputs: int = 2):
        super().__init__(name)
        self.outputs = outputs

    def process(self, packet: Packet, in_gate: int) -> Emission:
        return [(gate, packet if gate == 0 else packet.copy())
                for gate in range(self.outputs)]


class VlanTagger(Element):
    def __init__(self, name: str, tag: int):
        super().__init__(name)
        self.tag = tag

    def process(self, packet: Packet, in_gate: int) -> Emission:
        packet.vlan = self.tag
        return [(0, packet)]


class VlanUntagger(Element):
    def __init__(self, name: str):
        super().__init__(name)

    def process(self, packet: Packet, in_gate: int) -> Emission:
        packet.vlan = None
        return [(0, packet)]


class PayloadRewriter(Element):
    """Substring replace in payloads (demo 'transcoder')."""

    def __init__(self, name: str, old: str, new: str):
        super().__init__(name)
        self.old, self.new = old, new

    def process(self, packet: Packet, in_gate: int) -> Emission:
        if self.old in packet.payload:
            packet.payload = packet.payload.replace(self.old, self.new)
            packet.metadata.setdefault("rewritten_by", self.name)
        return [(0, packet)]


class LatencyProbe(Element):
    """Record per-packet sojourn time (now - created_at) for telemetry."""

    def __init__(self, name: str):
        super().__init__(name)
        self.samples: list[float] = []
        self._now = 0.0

    def observe_time(self, now: float) -> None:
        self._now = now

    def process(self, packet: Packet, in_gate: int) -> Emission:
        self.samples.append(self._now - packet.created_at)
        return [(0, packet)]
