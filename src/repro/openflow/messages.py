"""OpenFlow-like message and match/action structures.

Messages serialize to JSON for the channel byte counters; the field set
follows OpenFlow 1.0 with a VLAN push/pop extension (enough for chain
tagging across BiS-BiS boundaries).
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.netem.packet import Packet, parse_flowclass

#: reserved port numbers (string-typed like all port ids in this repo)
OFPP_CONTROLLER = "controller"
OFPP_FLOOD = "flood"
OFPP_IN_PORT = "in_port"

_XID = itertools.count(1)


@dataclass(frozen=True)
class Match:
    """OF 1.0-style match; ``None`` fields are wildcards."""

    in_port: Optional[str] = None
    dl_src: Optional[str] = None
    dl_dst: Optional[str] = None
    dl_type: Optional[int] = None
    dl_vlan: Optional[int] = None
    nw_src: Optional[str] = None
    nw_dst: Optional[str] = None
    nw_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    def matches(self, packet: Packet, in_port: str) -> bool:
        if self.in_port is not None and self.in_port != in_port:
            return False
        checks = (
            (self.dl_src, packet.eth_src), (self.dl_dst, packet.eth_dst),
            (self.dl_type, int(packet.eth_type)), (self.dl_vlan, packet.vlan),
            (self.nw_src, packet.ip_src), (self.nw_dst, packet.ip_dst),
            (self.nw_proto, int(packet.ip_proto)),
            (self.tp_src, packet.tp_src), (self.tp_dst, packet.tp_dst),
        )
        return all(wanted is None or wanted == actual
                   for wanted, actual in checks)

    def specificity(self) -> int:
        """How many fields are exact (used for debug, not priority)."""
        return sum(value is not None for value in (
            self.in_port, self.dl_src, self.dl_dst, self.dl_type,
            self.dl_vlan, self.nw_src, self.nw_dst, self.nw_proto,
            self.tp_src, self.tp_dst))

    def to_dict(self) -> dict[str, Any]:
        return {key: value for key, value in self.__dict__.items()
                if value is not None}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Match":
        return cls(**data)

    @classmethod
    def from_flowclass(cls, flowclass: str, in_port: Optional[str] = None) -> "Match":
        """Build a match from an NFFG flowclass spec string."""
        fields: dict[str, Any] = {}
        if in_port is not None:
            fields["in_port"] = in_port
        for key, value, _ in parse_flowclass(flowclass):
            if key in ("dl_type", "dl_vlan", "nw_proto", "tp_src", "tp_dst"):
                fields[key] = int(value, 0)
            elif key in ("dl_src", "dl_dst", "nw_src", "nw_dst"):
                fields[key] = value
        return cls(**fields)


class Action:
    """Base action."""

    kind = "base"

    def apply(self, packet: Packet) -> Optional[str]:
        """Mutate packet; return an output port or None."""
        return None

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Action":
        kind = data.get("kind")
        if kind == "output":
            return ActionOutput(data["port"])
        if kind == "push_vlan":
            return ActionPushVlan(data["vlan"])
        if kind == "pop_vlan":
            return ActionPopVlan()
        if kind == "set_field":
            return ActionSetField(data["field"], data["value"])
        raise ValueError(f"unknown action kind {kind!r}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Action) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_dict(), sort_keys=True))


class ActionOutput(Action):
    kind = "output"

    def __init__(self, port: str):
        self.port = str(port)

    def apply(self, packet: Packet) -> Optional[str]:
        return self.port

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "port": self.port}

    def __repr__(self) -> str:
        return f"<Output {self.port}>"


class ActionPushVlan(Action):
    kind = "push_vlan"

    def __init__(self, vlan: int):
        self.vlan = int(vlan)

    def apply(self, packet: Packet) -> Optional[str]:
        packet.vlan = self.vlan
        return None

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "vlan": self.vlan}


class ActionPopVlan(Action):
    kind = "pop_vlan"

    def apply(self, packet: Packet) -> Optional[str]:
        packet.vlan = None
        return None


class ActionSetField(Action):
    kind = "set_field"

    _SETTERS = {
        "dl_src": "eth_src", "dl_dst": "eth_dst",
        "nw_src": "ip_src", "nw_dst": "ip_dst",
        "tp_src": "tp_src", "tp_dst": "tp_dst",
    }

    def __init__(self, fieldname: str, value: Any):
        if fieldname not in self._SETTERS:
            raise ValueError(f"cannot set field {fieldname!r}")
        self.field = fieldname
        self.value = value

    def apply(self, packet: Packet) -> Optional[str]:
        setattr(packet, self._SETTERS[self.field], self.value)
        return None

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "field": self.field, "value": self.value}


class FlowModCommand(str, enum.Enum):
    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"
    DELETE_STRICT = "delete_strict"


@dataclass
class OFMessage:
    """Base message; subclasses add payload fields."""

    xid: int = field(default_factory=lambda: next(_XID))

    @property
    def msg_type(self) -> str:
        return type(self).__name__

    def to_wire(self) -> str:
        payload = {"type": self.msg_type}
        payload.update(self._payload())
        return json.dumps(payload, sort_keys=True, default=_default_json)

    def _payload(self) -> dict[str, Any]:
        return {"xid": self.xid}


def _default_json(value: Any) -> Any:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Packet):
        return {"uid": value.uid, "size": value.size_bytes}
    return str(value)


@dataclass
class FeaturesRequest(OFMessage):
    pass


@dataclass
class FeaturesReply(OFMessage):
    dpid: str = ""
    ports: list[str] = field(default_factory=list)
    n_tables: int = 1

    def _payload(self) -> dict[str, Any]:
        return {"xid": self.xid, "dpid": self.dpid, "ports": self.ports}


@dataclass
class EchoRequest(OFMessage):
    data: str = ""


@dataclass
class EchoReply(OFMessage):
    data: str = ""


@dataclass
class FlowMod(OFMessage):
    command: FlowModCommand = FlowModCommand.ADD
    match: Match = field(default_factory=Match)
    actions: list[Action] = field(default_factory=list)
    priority: int = 100
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: str = ""

    def _payload(self) -> dict[str, Any]:
        return {"xid": self.xid, "command": self.command.value,
                "match": self.match.to_dict(),
                "actions": [a.to_dict() for a in self.actions],
                "priority": self.priority, "cookie": self.cookie,
                "idle_timeout": self.idle_timeout,
                "hard_timeout": self.hard_timeout}


@dataclass
class PacketIn(OFMessage):
    dpid: str = ""
    in_port: str = ""
    packet: Optional[Packet] = None
    reason: str = "no_match"

    def _payload(self) -> dict[str, Any]:
        return {"xid": self.xid, "dpid": self.dpid, "in_port": self.in_port,
                "reason": self.reason,
                "packet": self.packet.uid if self.packet else None}


@dataclass
class PacketOut(OFMessage):
    packet: Optional[Packet] = None
    in_port: str = ""
    actions: list[Action] = field(default_factory=list)
    #: xid of the PacketIn this answers (its buffer slot on the switch is
    #: released); ``None`` for a packet the controller originates
    buffer_id: Optional[int] = None

    def _payload(self) -> dict[str, Any]:
        return {"xid": self.xid, "in_port": self.in_port,
                "buffer_id": self.buffer_id,
                "actions": [a.to_dict() for a in self.actions],
                "packet": self.packet.uid if self.packet else None}


@dataclass
class BarrierRequest(OFMessage):
    pass


@dataclass
class BarrierReply(OFMessage):
    pass


@dataclass
class FlowRemoved(OFMessage):
    dpid: str = ""
    cookie: str = ""
    reason: str = "idle_timeout"


@dataclass
class PortStatus(OFMessage):
    dpid: str = ""
    port: str = ""
    status: str = "up"


@dataclass
class FlowStatsRequest(OFMessage):
    pass


@dataclass
class FlowStatsReply(OFMessage):
    dpid: str = ""
    entries: list[dict[str, Any]] = field(default_factory=list)

    def _payload(self) -> dict[str, Any]:
        return {"xid": self.xid, "dpid": self.dpid, "entries": self.entries}
