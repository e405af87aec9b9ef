"""Priority-ordered flow table with stats and timeouts."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

from repro.netem.packet import Packet
from repro.openflow.messages import Action, FlowModCommand, FlowMod, Match


@dataclass
class FlowEntry:
    match: Match
    actions: list[Action]
    priority: int = 100
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: str = ""
    installed_at: float = 0.0
    last_hit: float = 0.0
    packets: int = 0
    bytes: int = 0

    def expired(self, now: float) -> bool:
        if self.hard_timeout and now - self.installed_at >= self.hard_timeout:
            return True
        if self.idle_timeout and now - self.last_hit >= self.idle_timeout:
            return True
        return False

    def to_stats(self) -> dict:
        return {"match": self.match.to_dict(), "priority": self.priority,
                "cookie": self.cookie, "packets": self.packets,
                "bytes": self.bytes}


class FlowTable:
    """A single OpenFlow table: highest priority match wins; ties are
    broken by install order (older first), like most real switches."""

    def __init__(self) -> None:
        self._entries: list[FlowEntry] = []
        self.lookups = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[FlowEntry]:
        return list(self._entries)

    def apply_flow_mod(self, msg: FlowMod, now: float = 0.0) -> None:
        if msg.command == FlowModCommand.ADD:
            entry = FlowEntry(match=msg.match, actions=list(msg.actions),
                              priority=msg.priority,
                              idle_timeout=msg.idle_timeout,
                              hard_timeout=msg.hard_timeout,
                              cookie=msg.cookie, installed_at=now,
                              last_hit=now)
            # ADD with identical match+priority replaces (OF semantics)
            self._entries = [e for e in self._entries
                             if not (e.match == msg.match
                                     and e.priority == msg.priority)]
            insort(self._entries, entry,
                   key=lambda e: (-e.priority, e.installed_at))
        elif msg.command == FlowModCommand.MODIFY:
            for entry in self._entries:
                if entry.match == msg.match:
                    entry.actions = list(msg.actions)
        elif msg.command == FlowModCommand.DELETE:
            self._entries = [e for e in self._entries
                             if not _subsumed(e.match, msg.match)
                             or (msg.cookie and e.cookie != msg.cookie)]
        elif msg.command == FlowModCommand.DELETE_STRICT:
            self._entries = [e for e in self._entries
                             if not (e.match == msg.match
                                     and e.priority == msg.priority)]

    def delete_by_cookie(self, cookie: str) -> int:
        before = len(self._entries)
        self._entries = [e for e in self._entries if e.cookie != cookie]
        return before - len(self._entries)

    def lookup(self, packet: Packet, in_port: str,
               now: float = 0.0) -> Optional[FlowEntry]:
        self.lookups += 1
        self.expire(now)
        for entry in self._entries:
            if entry.match.matches(packet, in_port):
                entry.packets += 1
                entry.bytes += packet.size_bytes
                entry.last_hit = now
                return entry
        self.misses += 1
        return None

    def expire(self, now: float) -> list[FlowEntry]:
        expired = [e for e in self._entries if e.expired(now)]
        if expired:
            self._entries = [e for e in self._entries if not e.expired(now)]
        return expired

    def stats(self) -> list[dict]:
        return [entry.to_stats() for entry in self._entries]


def _subsumed(specific: Match, general: Match) -> bool:
    """True if ``general`` wildcards-match everything ``specific`` does
    (OF DELETE semantics: delete all entries matched by the pattern)."""
    for fieldname, general_value in general.__dict__.items():
        if general_value is None:
            continue
        if getattr(specific, fieldname) != general_value:
            return False
    return True
