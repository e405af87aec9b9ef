"""Priority-ordered flow table with stats and timeouts, classifying by
tuple space search (one hash probe per mask, not one test per entry)."""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cache
from math import inf
from operator import attrgetter
from typing import Callable, Hashable, Optional

from repro.netem.packet import HEADER_FIELDS, Packet
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
    #: install sequence, numbered by the table: the last tie-break of its order
    seq: int = field(default=0, init=False, compare=False, repr=False)

    def deadline(self) -> float:
        """Earliest virtual time at which the entry is expired."""
        hard = self.installed_at + self.hard_timeout if self.hard_timeout else inf
        idle = self.last_hit + self.idle_timeout if self.idle_timeout else inf
        return min(hard, idle)

    def expired(self, now: float) -> bool:
        return now >= self.deadline()

    def to_stats(self) -> dict:
        return {"match": self.match.to_dict(), "priority": self.priority,
                "cookie": self.cookie, "packets": self.packets,
                "bytes": self.bytes}


def _order(entry: FlowEntry) -> tuple[int, float, int]:
    """Table order: highest priority first, ties oldest first, same
    virtual time in install sequence.  ``seq`` is unique in a table, so
    the key finds an entry by bisection."""
    return (-entry.priority, entry.installed_at, entry.seq)


def _getter(names: tuple[str, ...]) -> Callable[[object], Hashable]:
    return attrgetter(*names) if names else lambda _: ()


@cache
def _key_readers(mask: tuple[str, ...]) -> tuple[
        Callable[[Match], Hashable], Callable[[Packet, str], Hashable]]:
    """``(key of a match, key of a packet)`` for one mask: a match and
    the packets it hits read the same key.  One pair per mask for the
    whole process — there are at most 2**10 masks and a handful in use
    — so a table that empties and refills compiles nothing."""
    header = tuple(name for name in mask if name != "in_port")
    of_match = _getter(header)
    of_packet = _getter(tuple(HEADER_FIELDS[name] for name in header))
    if header == mask:
        return of_match, lambda packet, in_port: of_packet(packet)
    return (lambda match: (match.in_port, of_match(match)),
            lambda packet, in_port: (in_port, of_packet(packet)))


def _slot(match: Match) -> tuple[tuple[str, ...], Hashable]:
    """Where an entry with this match is filed: its mask (the fields it
    does not wildcard, in declaration order) and its key under it."""
    mask = tuple(match.to_dict())
    return mask, _key_readers(mask)[0](match)


class FlowTable:
    """A single OpenFlow table: highest priority match wins; ties are
    broken by install order (older first), like most real switches.

    ``_entries`` holds every entry in table order (:func:`_order`) and
    serves ``entries()`` / ``stats()`` / the wildcard deletes.  Packets
    are classified by tuple space search (Srinivasan et al., SIGCOMM
    1999; the Open vSwitch classifier): ``_masks`` groups the entries by
    mask — the set of fields their match does not wildcard — and maps,
    per mask, the values of those fields to the entries carrying them,
    in table order.  A lookup makes one hash probe per mask present
    (``probes`` counts them) and returns the first in table order among
    the heads of the buckets hit: the entry a scan of ``_entries`` with
    :meth:`Match.matches` would stop at.

    Expiry is gated by ``_floor``, a lower bound on the earliest
    :meth:`FlowEntry.deadline` in the table: an ADD can lower it, a hit
    only moves an idle deadline later and a removal leaves it low, so
    while ``now < _floor`` (``now`` never runs backwards) nothing can
    have expired and neither ``expire`` nor ``lookup`` looks; the scan
    that runs once it is crossed recomputes it from the survivors.
    """

    def __init__(self) -> None:
        self._entries: list[FlowEntry] = []
        #: mask -> (packet key reader, key -> its entries in table order)
        self._masks: dict[tuple[str, ...], tuple[
            Callable, dict[Hashable, list[FlowEntry]]]] = {}
        self._floor = inf
        self._seq = itertools.count()
        self.lookups = 0
        self.misses = 0
        #: hash probes made by lookups (one per mask present per lookup)
        self.probes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[FlowEntry]:
        return list(self._entries)

    def _bucket(self, mask: tuple[str, ...], key: Hashable) -> list[FlowEntry]:
        """The entries whose match is the one filed at this slot."""
        group = self._masks.get(mask)
        return group[1].get(key, []) if group is not None else []

    def _insert(self, entry: FlowEntry, mask: tuple[str, ...],
                key: Hashable) -> None:
        if mask not in self._masks:
            self._masks[mask] = (_key_readers(mask)[1], {})
        insort(self._masks[mask][1].setdefault(key, []), entry, key=_order)
        insort(self._entries, entry, key=_order)
        self._floor = min(self._floor, entry.deadline())

    def _remove(self, doomed: list[FlowEntry]) -> None:
        """Take these very objects (an equal twin may sit beside one) out
        of the list and the index: O(removed), nothing is rebuilt."""
        for entry in doomed:
            mask, key = _slot(entry.match)
            buckets = self._masks[mask][1]
            for ordered in (self._entries, buckets[key]):
                del ordered[bisect_left(ordered, _order(entry), key=_order)]
            if not buckets[key]:
                del buckets[key]
                if not buckets:
                    del self._masks[mask]

    def apply_flow_mod(self, msg: FlowMod, now: float = 0.0) -> None:
        if msg.command == FlowModCommand.DELETE:
            self._remove([e for e in self._entries
                          if _subsumed(e.match, msg.match)
                          and not (msg.cookie and e.cookie != msg.cookie)])
            return
        # the other commands name one match: one probe finds its entries
        mask, key = _slot(msg.match)
        if msg.command == FlowModCommand.MODIFY:
            for entry in self._bucket(mask, key):
                entry.actions = list(msg.actions)
            return
        # DELETE_STRICT removes the entry of identical match+priority,
        # and so does an ADD: it replaces it (OF semantics)
        self._remove([e for e in self._bucket(mask, key)
                      if e.priority == msg.priority])
        if msg.command == FlowModCommand.ADD:
            entry = FlowEntry(
                match=msg.match, actions=list(msg.actions),
                priority=msg.priority, idle_timeout=msg.idle_timeout,
                hard_timeout=msg.hard_timeout, cookie=msg.cookie,
                installed_at=now, last_hit=now)
            entry.seq = next(self._seq)
            self._insert(entry, mask, key)

    def delete_by_cookie(self, cookie: str) -> int:
        doomed = [e for e in self._entries if e.cookie == cookie]
        self._remove(doomed)
        return len(doomed)

    def lookup(self, packet: Packet, in_port: str,
               now: float = 0.0) -> Optional[FlowEntry]:
        self.lookups += 1
        self.expire(now)
        self.probes += len(self._masks)
        best = None
        for of_packet, buckets in self._masks.values():
            bucket = buckets.get(of_packet(packet, in_port))
            if bucket is not None and (
                    best is None or _order(bucket[0]) < _order(best)):
                best = bucket[0]
        if best is None:
            self.misses += 1
            return None
        best.packets += 1
        best.bytes += packet.size_bytes
        best.last_hit = now
        return best

    def expire(self, now: float) -> list[FlowEntry]:
        if now < self._floor:
            return []
        expired = [e for e in self._entries if e.expired(now)]
        self._remove(expired)
        self._floor = min((e.deadline() for e in self._entries), default=inf)
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
