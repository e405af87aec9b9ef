"""The packet model: a flat header struct, not a byte parser.

Headers cover what SFC steering and the demo NFs need: Ethernet
addresses and type, one optional VLAN tag (used for inter-BiS-BiS
chain tagging), IPv4 addresses/protocol, transport ports and an opaque
payload.  ``trace`` accumulates the nodes the packet traversed so tests
can assert the exact path a chain steered it through.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Optional

_PACKET_SEQ = itertools.count(1)


class EtherType(int, enum.Enum):
    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100


class IPProto(int, enum.Enum):
    ICMP = 1
    TCP = 6
    UDP = 17


@dataclass
class Packet:
    """One simulated packet."""

    eth_src: str = "00:00:00:00:00:01"
    eth_dst: str = "00:00:00:00:00:02"
    eth_type: int = EtherType.IPV4
    vlan: Optional[int] = None
    ip_src: str = "10.0.0.1"
    ip_dst: str = "10.0.0.2"
    ip_proto: int = IPProto.TCP
    ip_ttl: int = 64
    tp_src: int = 10000
    tp_dst: int = 80
    payload: str = ""
    size_bytes: int = 1000
    #: unique id for tracing; preserved across copies/rewrites
    uid: int = field(default_factory=lambda: next(_PACKET_SEQ))
    #: virtual time the packet was first sent
    created_at: float = 0.0
    #: nodes traversed, appended by every forwarding element
    trace: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def copy(self) -> "Packet":
        clone = replace(self)
        clone.trace = list(self.trace)
        clone.metadata = dict(self.metadata)
        return clone

    def record(self, node_id: str) -> None:
        self.trace.append(node_id)

    def five_tuple(self) -> tuple[str, str, int, int, int]:
        return (self.ip_src, self.ip_dst, self.ip_proto,
                self.tp_src, self.tp_dst)

    def matches_flowclass(self, flowclass: str) -> bool:
        """Evaluate an NFFG flowclass spec (``k=v,k2=v2``) on headers."""
        if not flowclass:
            return True
        for key, text, number in parse_flowclass(flowclass):
            # an unknown key reads like an absent header (no vlan): refused
            actual = getattr(self, HEADER_FIELDS.get(key, ""), None)
            if actual is None:
                return False
            if actual != (number if isinstance(actual, int) else text):
                return False
        return True

    def __repr__(self) -> str:
        vlan = f" vlan={self.vlan}" if self.vlan is not None else ""
        return (f"<Packet #{self.uid} {self.ip_src}:{self.tp_src} -> "
                f"{self.ip_dst}:{self.tp_dst} proto={self.ip_proto}{vlan}>")


@lru_cache(maxsize=128)
def parse_flowclass(flowclass: str) -> tuple[
        tuple[str, str, Optional[int]], ...]:
    """The ``key=value`` tokens of a flowclass spec as ``(key, value,
    value as an int or None)``, tokenised once per spec: NF elements
    test the same few specs on every packet.  What an unknown key means
    is the caller's call (:meth:`Packet.matches_flowclass` refuses the
    packet, ``Match.from_flowclass`` ignores the token)."""
    tokens = []
    for token in flowclass.split(","):
        key, equals, value = token.partition("=")
        if not equals:
            continue
        value = value.strip()
        try:
            number: Optional[int] = int(value, 0)
        except ValueError:
            number = None
        tokens.append((key.strip(), value, number))
    return tuple(tokens)


#: flowclass key / OpenFlow match field -> the header attribute it reads
HEADER_FIELDS = {
    "dl_src": "eth_src", "dl_dst": "eth_dst", "dl_type": "eth_type",
    "dl_vlan": "vlan", "nw_src": "ip_src", "nw_dst": "ip_dst",
    "nw_proto": "ip_proto", "tp_src": "tp_src", "tp_dst": "tp_dst",
}


def tcp_packet(ip_src: str, ip_dst: str, *, tp_src: int = 10000,
               tp_dst: int = 80, payload: str = "", size: int = 1000) -> Packet:
    return Packet(ip_src=ip_src, ip_dst=ip_dst, ip_proto=IPProto.TCP,
                  tp_src=tp_src, tp_dst=tp_dst, payload=payload,
                  size_bytes=size)


def udp_packet(ip_src: str, ip_dst: str, *, tp_src: int = 10000,
               tp_dst: int = 53, payload: str = "", size: int = 512) -> Packet:
    return Packet(ip_src=ip_src, ip_dst=ip_dst, ip_proto=IPProto.UDP,
                  tp_src=tp_src, tp_dst=tp_dst, payload=payload,
                  size_bytes=size)
