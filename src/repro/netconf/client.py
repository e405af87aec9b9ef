"""NETCONF client: synchronous RPC calls over a control channel."""

from __future__ import annotations

import collections
import itertools
from typing import Any, Callable, Optional

from repro.netconf.messages import Hello, Notification, RpcReply, RpcRequest
from repro.openflow.channel import ControlChannel

#: how many of the newest notifications a client keeps
NOTIFICATION_RING = 64


class NetconfError(RuntimeError):
    """Raised when the server returns an rpc-error."""

    def __init__(self, tag: str, message: str):
        super().__init__(f"[{tag}] {message}")
        self.tag = tag


class NetconfClient:
    """Client side of one NETCONF session.

    Channels in this reproduction deliver synchronously (or via the
    simulator, in which case callers run the simulator between request
    and reply); replies are correlated by message id.  ``notifications``
    keeps the newest :data:`NOTIFICATION_RING` notifications, not every
    one the session has received; ``on_notification`` sees each.
    """

    def __init__(self, name: str, channel: ControlChannel):
        self.name = name
        self.channel = channel
        channel.bind_a(self._on_message)
        self.server_capabilities: list[str] = []
        self.session_id: Optional[int] = None
        self.notifications: collections.deque[Notification] = \
            collections.deque(maxlen=NOTIFICATION_RING)
        self.on_notification: Optional[Callable[[Notification], None]] = None
        #: fault-injection hook (see repro.resilience.faults): called
        #: with the operation name before each RPC; may raise to
        #: simulate a lost/failed exchange
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._replies: dict[str, RpcReply] = {}
        #: numbers this session's requests 1, 2, ...; RFC 6241 §4.1
        #: makes the message-id the client's string, and one width keeps
        #: the bytes of a request independent of how many came before it
        self._message_ids = itertools.count(1)

    # -- session ------------------------------------------------------------

    def hello(self, capabilities: Optional[list[str]] = None) -> list[str]:
        self.channel.send_to_b(Hello(capabilities=capabilities or []))
        if self.session_id is None:
            raise NetconfError("timeout", "no hello reply")
        return self.server_capabilities

    def has_capability(self, capability: str) -> bool:
        return capability in self.server_capabilities

    def close(self) -> None:
        self.rpc("close-session")

    # -- rpc plumbing -----------------------------------------------------------

    def _on_message(self, message: Any) -> None:
        if isinstance(message, Hello):
            self.session_id = message.session_id
            self.server_capabilities = list(message.capabilities)
        elif isinstance(message, RpcReply):
            self._replies[message.message_id] = message
        elif isinstance(message, Notification):
            self.notifications.append(message)
            if self.on_notification is not None:
                self.on_notification(message)

    def rpc(self, op: str, **params: Any) -> Any:
        if self.fault_hook is not None:
            self.fault_hook(op)
        message_id = f"{next(self._message_ids):06d}"
        request = RpcRequest(op=op, message_id=message_id, params=params)
        self.channel.send_to_b(request)
        reply = self._replies.pop(request.message_id, None)
        if reply is None:
            raise NetconfError("timeout", f"no reply for {op!r}")
        if not reply.ok:
            error = reply.error
            raise NetconfError(error.tag if error else "unknown",
                               error.message if error else "rpc failed")
        return reply.data

    # -- standard operations --------------------------------------------------------

    def get_config(self, source: str = "running") -> Any:
        return self.rpc("get-config", source=source)

    def get(self) -> Any:
        return self.rpc("get")

    def edit_config(self, config: Any, *, target: str = "candidate",
                    operation: str = "merge") -> Any:
        return self.rpc("edit-config", target=target, operation=operation,
                        config=config)

    def edit_config_delta(self, base_digest: str, entries: list[dict[str, Any]],
                          *, target: str = "candidate") -> Any:
        """Ship a yang.diff edit script instead of a full config.

        The server verifies ``base_digest`` against its running config
        and answers with the non-retryable ``delta-mismatch`` tag when
        the bases have drifted — callers fall back to a full
        ``edit_config(..., operation="replace")`` on that error.
        """
        return self.rpc("edit-config", target=target, operation="patch",
                        config={"base_digest": base_digest,
                                "entries": entries})

    def validate(self, source: str = "candidate") -> Any:
        return self.rpc("validate", source=source)

    def commit(self) -> Any:
        return self.rpc("commit")

    def discard_changes(self) -> Any:
        return self.rpc("discard-changes")

    def lock(self) -> Any:
        return self.rpc("lock")

    def unlock(self) -> Any:
        return self.rpc("unlock")

    def __repr__(self) -> str:
        return f"<NetconfClient {self.name} session={self.session_id}>"
