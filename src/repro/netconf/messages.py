"""NETCONF message envelopes (JSON-framed for wire accounting)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Hello:
    """Capability advertisement (both directions at session start)."""

    session_id: int = 0
    capabilities: list[str] = field(default_factory=list)

    def to_wire(self) -> str:
        return json.dumps({"hello": {"session_id": self.session_id,
                                     "capabilities": self.capabilities}})


@dataclass
class RpcRequest:
    """An <rpc> envelope: operation name + params dict.  The
    ``message_id`` is the sending client's (RFC 6241 §4.1): see
    :class:`~repro.netconf.client.NetconfClient`."""

    op: str
    message_id: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> str:
        return json.dumps({"rpc": {"message_id": self.message_id,
                                   "op": self.op, "params": self.params}},
                          sort_keys=True, default=str)


@dataclass
class RpcError:
    tag: str
    message: str
    severity: str = "error"

    def to_dict(self) -> dict[str, str]:
        return {"tag": self.tag, "message": self.message,
                "severity": self.severity}


@dataclass
class RpcReply:
    message_id: str
    ok: bool = True
    data: Any = None
    error: Optional[RpcError] = None

    def to_wire(self) -> str:
        body: dict[str, Any] = {"message_id": self.message_id, "ok": self.ok}
        if self.data is not None:
            body["data"] = self.data
        if self.error is not None:
            body["error"] = self.error.to_dict()
        return json.dumps({"rpc-reply": body}, sort_keys=True, default=str)


@dataclass
class Notification:
    """Server-push event (e.g. VNF state change)."""

    event: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> str:
        return json.dumps({"notification": {"event": self.event,
                                            "data": self.data}},
                          sort_keys=True, default=str)


#: advertised by servers whose edit-config accepts ``operation="patch"``
#: (digest-guarded yang.diff edit scripts against the running config);
#: clients only attempt delta pushes after seeing it in the hello
DELTA_CAPABILITY = "urn:unify:edit-config:delta:1.0"

BASE_CAPABILITIES = [
    "urn:ietf:params:netconf:base:1.1",
    "urn:ietf:params:netconf:capability:candidate:1.0",
    "urn:ietf:params:netconf:capability:validate:1.1",
    "urn:ietf:params:netconf:capability:notification:1.0",
    DELTA_CAPABILITY,
]

UNIFY_CAPABILITY = "urn:unify:virtualizer:1.0"
