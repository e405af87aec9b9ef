"""Property-based tests for flow tables and packet matching."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.netem.packet import HEADER_FIELDS, EtherType, IPProto, Packet
from repro.openflow import FlowMod, FlowModCommand, FlowTable, Match
from repro.openflow.messages import ActionOutput

packets = st.builds(
    Packet,
    ip_src=st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
    ip_dst=st.sampled_from(["10.0.1.1", "10.0.1.2"]),
    ip_proto=st.sampled_from([6, 17]),
    tp_src=st.integers(1024, 1030),
    tp_dst=st.sampled_from([22, 53, 80, 443]),
    size_bytes=st.integers(64, 1500),
)

matches = st.builds(
    Match,
    in_port=st.one_of(st.none(), st.sampled_from(["1", "2"])),
    nw_src=st.one_of(st.none(),
                     st.sampled_from(["10.0.0.1", "10.0.0.2"])),
    nw_proto=st.one_of(st.none(), st.sampled_from([6, 17])),
    tp_dst=st.one_of(st.none(), st.sampled_from([22, 80])),
)


@given(packets, matches)
def test_wildcarding_is_monotone(packet, match):
    """If a match hits, removing any constraint still hits."""
    in_port = "1"
    if match.matches(packet, in_port):
        for field_name in ("in_port", "nw_src", "nw_proto", "tp_dst"):
            relaxed = Match(**{**match.to_dict(), field_name: None})
            assert relaxed.matches(packet, in_port)


@given(packets)
def test_empty_match_hits_everything(packet):
    assert Match().matches(packet, "any-port")


@given(st.lists(st.tuples(matches, st.integers(1, 300)), min_size=1,
                max_size=8), packets)
@settings(max_examples=60, deadline=None)
def test_lookup_returns_highest_priority_hit(rules, packet):
    table = FlowTable()
    for index, (match, priority) in enumerate(rules):
        table.apply_flow_mod(FlowMod(
            command=FlowModCommand.ADD, match=match,
            actions=[ActionOutput(str(index))], priority=priority))
    entry = table.lookup(packet, "1")
    hits = [priority for match, priority in rules
            if match.matches(packet, "1")]
    if entry is None:
        assert not hits
    else:
        assert entry.priority == max(hits)


@given(st.lists(st.tuples(matches, st.integers(1, 300)), min_size=1,
                max_size=8))
@settings(max_examples=40, deadline=None)
def test_delete_all_empties_table(rules):
    table = FlowTable()
    for index, (match, priority) in enumerate(rules):
        table.apply_flow_mod(FlowMod(command=FlowModCommand.ADD,
                                     match=match,
                                     actions=[ActionOutput(str(index))],
                                     priority=priority))
    table.apply_flow_mod(FlowMod(command=FlowModCommand.DELETE,
                                 match=Match(), actions=[]))
    assert len(table) == 0


@given(packets)
def test_flowclass_matching_consistent_with_match(packet):
    """Match.from_flowclass and Packet.matches_flowclass agree."""
    spec = f"nw_src={packet.ip_src},tp_dst={packet.tp_dst}"
    assert packet.matches_flowclass(spec)
    assert Match.from_flowclass(spec).matches(packet, "x")
    wrong = "nw_src=203.0.113.9"
    assert not packet.matches_flowclass(wrong)
    assert not Match.from_flowclass(wrong).matches(packet, "x")


# -- the scan as the oracle ------------------------------------------------
#
# The table classifies by hash probes; the reference below is the scan it
# replaced: a plain list in table order, tested entry by entry with
# ``Match.matches``.  Every drawn field has two values (plus wildcard),
# priorities and install times tie on purpose, times are multiples of 0.5
# so deadlines are exact in floating point, and a looked-up packet is
# first dressed to hit one installed entry, so that lookups mostly hit and
# entries of different masks often compete for the same packet.

_FIELD_VALUES = {
    "in_port": ["1", "2"], "dl_src": ["aa", "bb"], "dl_dst": ["cc", "dd"],
    "dl_type": [0x0800, 0x0806], "dl_vlan": [10, 20],
    "nw_src": ["10.0.0.1", "10.0.0.2"], "nw_dst": ["10.0.1.1", "10.0.1.2"],
    "nw_proto": [6, 17], "tp_src": [1024, 1025], "tp_dst": [22, 80],
}
full_matches = st.builds(Match, **{
    name: st.one_of(*[st.none()] * 5, st.sampled_from(values))
    for name, values in _FIELD_VALUES.items()})
ported_packets = st.tuples(
    st.builds(Packet, eth_src=st.sampled_from(["aa", "bb"]),
              eth_dst=st.sampled_from(["cc", "dd"]),
              eth_type=st.sampled_from([0x0800, 0x0806]),
              vlan=st.sampled_from([None, 10, 20]),
              ip_src=st.sampled_from(["10.0.0.1", "10.0.0.2"]),
              ip_dst=st.sampled_from(["10.0.1.1", "10.0.1.2"]),
              ip_proto=st.sampled_from([6, 17]),
              tp_src=st.sampled_from([1024, 1025]),
              tp_dst=st.sampled_from([22, 80]),
              size_bytes=st.integers(64, 1500)),
    st.sampled_from(["1", "2"]))
priorities = st.sampled_from([10, 10, 20])
timeouts = st.sampled_from([0.0, 0.0, 2.0, 5.0])
cookies = st.sampled_from(["", "red", "blue"])
adds = st.tuples(st.just("add"), full_matches, priorities, cookies, timeouts,
                 timeouts)
_STEPS = {
    "add": adds,
    "lookup": st.tuples(st.just("lookup"), ported_packets,
                        st.integers(0, 7)),
    "modify": st.tuples(st.just("modify"), full_matches),
    "delete": st.tuples(st.just("delete"), full_matches, cookies),
    "delete_strict": st.tuples(st.just("delete_strict"), full_matches,
                               priorities),
    "delete_by_cookie": st.tuples(st.just("delete_by_cookie"), cookies),
    "advance": st.tuples(st.just("advance"),
                         st.sampled_from([0.5, 1.0, 3.0])),
    "expire": st.tuples(st.just("expire")),
}
#: half of all steps are lookups, a fifth are adds
steps = st.sampled_from(
    ["lookup"] * 10 + ["add"] * 4 + list(_STEPS)[2:]).flatmap(_STEPS.get)


class _Row:
    """One entry of the reference list; ``port`` is the serial number its
    (latest) actions output to — what tells two installs apart."""

    def __init__(self, match, priority, cookie, idle, hard, now, port):
        self.match, self.priority, self.cookie = match, priority, cookie
        self.idle, self.hard, self.port = idle, hard, port
        self.installed_at = self.last_hit = now
        self.packets = self.bytes = 0

    def expired(self, now):
        return bool(self.hard and now - self.installed_at >= self.hard
                    or self.idle and now - self.last_hit >= self.idle)

    def covered_by(self, pattern):
        return all(wanted is None or wanted == getattr(self.match, name)
                   for name, wanted in vars(pattern).items())

    def state(self):
        return (self.match, self.priority, self.cookie, self.port,
                self.installed_at, self.last_hit, self.packets, self.bytes)


def _entry_state(entry):
    return (entry.match, entry.priority, entry.cookie,
            int(entry.actions[0].port), entry.installed_at, entry.last_hit,
            entry.packets, entry.bytes)


def _drop(rows, doomed):
    rows[:] = [row for row in rows if row not in doomed]
    return doomed


@given(st.lists(adds, min_size=3, max_size=8),
       st.lists(steps, min_size=16, max_size=40))
# the oldest of three equal-priority, same-instant entries sits under the
# mask that is probed second: only the full tie-break returns it
@example([("add", Match(in_port="1", tp_dst=22), 10, "", 0.0, 0.0),
          ("add", Match(in_port="1"), 10, "", 0.0, 0.0),
          ("add", Match(in_port="1", tp_dst=80), 10, "", 0.0, 0.0)],
         [("lookup", (Packet(), "2"), 2)])
@settings(max_examples=200, deadline=None)
def test_table_agrees_with_the_scan_it_replaced(installs, sequence):
    table, rows, now = FlowTable(), [], 0.0
    lookups = misses = 0
    for serial, (kind, *args) in enumerate(installs + sequence):
        actions = [ActionOutput(str(serial))]
        if kind == "add":
            match, priority, cookie, idle, hard = args
            table.apply_flow_mod(FlowMod(
                match=match, actions=actions, priority=priority,
                cookie=cookie, idle_timeout=idle, hard_timeout=hard), now=now)
            _drop(rows, [row for row in rows if row.match == match
                         and row.priority == priority])
            rows.append(_Row(match, priority, cookie, idle, hard, now, serial))
            # stable: equal (priority, time) keep install sequence
            rows.sort(key=lambda row: (-row.priority, row.installed_at))
        elif kind == "modify":
            table.apply_flow_mod(FlowMod(command=FlowModCommand.MODIFY,
                                         match=args[0], actions=actions))
            for row in rows:
                if row.match == args[0]:
                    row.port = serial
        elif kind == "delete":
            table.apply_flow_mod(FlowMod(command=FlowModCommand.DELETE,
                                         match=args[0], cookie=args[1]))
            _drop(rows, [row for row in rows if row.covered_by(args[0])
                         and args[1] in ("", row.cookie)])
        elif kind == "delete_strict":
            table.apply_flow_mod(FlowMod(
                command=FlowModCommand.DELETE_STRICT, match=args[0],
                priority=args[1]))
            _drop(rows, [row for row in rows if row.match == args[0]
                         and row.priority == args[1]])
        elif kind == "delete_by_cookie":
            doomed = _drop(rows, [r for r in rows if r.cookie == args[0]])
            assert table.delete_by_cookie(args[0]) == len(doomed)
        elif kind == "advance":
            now += args[0]
        elif kind == "expire":
            doomed = _drop(rows, [row for row in rows if row.expired(now)])
            assert [_entry_state(e) for e in table.expire(now)] == [
                row.state() for row in doomed]
        elif kind == "lookup":
            packet, in_port = args[0]
            _drop(rows, [row for row in rows if row.expired(now)])
            if rows:
                aimed_at = rows[args[1] % len(rows)].match.to_dict()
                in_port = aimed_at.pop("in_port", in_port)
                for name, value in aimed_at.items():
                    setattr(packet, HEADER_FIELDS[name], value)
            hit = next((row for row in rows
                        if row.match.matches(packet, in_port)), None)
            lookups += 1
            if hit is None:
                misses += 1
            else:
                hit.packets += 1
                hit.bytes += packet.size_bytes
                hit.last_hit = now
            entry = table.lookup(packet, in_port, now=now)
            assert (entry and _entry_state(entry)) == (hit and hit.state())
        assert [_entry_state(e) for e in table.entries()] == [
            row.state() for row in rows]
        assert (table.lookups, table.misses) == (lookups, misses)
        assert len(table) == len(rows)


def test_enum_header_values_hit_integer_matches():
    """``Packet`` defaults carry ``EtherType`` / ``IPProto`` members; the
    index files entries under plain ints, so the members have to hash and
    compare as the ints they are."""
    packet = Packet(eth_type=EtherType.IPV4, ip_proto=IPProto.TCP)
    assert hash(EtherType.IPV4) == hash(0x0800)
    assert hash(IPProto.TCP) == hash(6)
    table = FlowTable()
    table.apply_flow_mod(FlowMod(match=Match(dl_type=0x0800, nw_proto=6),
                                 actions=[ActionOutput("1")]))
    assert Match(dl_type=0x0800, nw_proto=6).matches(packet, "1")
    assert table.lookup(packet, "1") is not None
    assert table.lookup(Packet(eth_type=EtherType.ARP), "1") is None
