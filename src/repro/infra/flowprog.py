"""NFFG flow rule -> OpenFlow translation and the flow-table diff.

Every domain orchestrator performs the same last-mile translation from
the abstract BiS-BiS flow rules produced by the mapping layer
(``in_port=...;flowclass=...;tag=...`` / ``output=...;tag|untag``) to
concrete OpenFlow messages, and the same reconciliation of what the
switches carry with what the config wants; this module
centralizes both.  A :class:`FlowProgrammer` holds the record of what
its owner installed and is the only writer of those table entries: a
sync sends FlowMods for the rules that changed and for nothing else, so
an established chain's entries (and their packet counters) outlive any
neighbour's deploy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence

from repro.infra.tags import vlan_for_hop
from repro.nffg.graph import NFFG
from repro.nffg.model import Flowrule, NodeInfra
from repro.openflow.controller import ControllerEndpoint
from repro.openflow.messages import (
    Action,
    ActionOutput,
    ActionPopVlan,
    ActionPushVlan,
    FlowModCommand,
    Match,
)


def flowrule_to_flowmod(rule: Flowrule) -> tuple[Match, list[Action], int]:
    """Translate one NFFG flow rule; returns (match, actions, priority)."""
    match_fields = rule.match_fields()
    in_port = match_fields.get("in_port")
    flowclass = match_fields.get("flowclass", "")
    match = Match.from_flowclass(flowclass, in_port=in_port)
    if "tag" in match_fields:
        match = Match(**{**match.to_dict(),
                         "dl_vlan": vlan_for_hop(match_fields["tag"])})
    actions: list[Action] = []
    action_fields = rule.action_fields()
    if "tag" in action_fields:
        actions.append(ActionPushVlan(vlan_for_hop(action_fields["tag"])))
    if "untag" in action_fields:
        actions.append(ActionPopVlan())
    output = action_fields.get("output")
    if output:
        actions.append(ActionOutput(output))
    # more specific matches shadow the per-port defaults
    priority = 100 + 10 * match.specificity()
    return match, actions, priority


@dataclass(frozen=True)
class Flow:
    """One flow-table entry on one switch."""

    dpid: str
    match: Match
    actions: tuple[Action, ...]
    priority: int
    cookie: str = ""

    @property
    def slot(self) -> tuple[str, Match, int]:
        """What an entry occupies in a table: an ADD with an equal slot
        replaces, a ``DELETE_STRICT`` removes exactly it."""
        return self.dpid, self.match, self.priority


def rule_flow(dpid: str, port_id: str, rule: Flowrule,
              cookie: str = "") -> Flow:
    """The entry a flow rule on infra port ``port_id`` becomes on switch
    ``dpid`` (the rule's port is its in-port unless it names one)."""
    match, actions, priority = flowrule_to_flowmod(rule)
    if match.in_port is None:
        match = Match(**{**match.to_dict(), "in_port": port_id})
    return Flow(dpid, match, tuple(actions), priority,
                cookie or (rule.hop_id or ""))


#: an infra port of a config: (infra id, port id)
PortKey = tuple[str, str]


def port_flows(port: PortKey, key: str, rule: Flowrule) -> tuple[Flow, ...]:
    """:meth:`FlowProgrammer.sync` translation for domains whose infra
    ids are the dataplane switch ids."""
    return (rule_flow(port[0], port[1], rule),)


def install_rules(install: NFFG) -> dict[PortKey, dict[str, Flowrule]]:
    """The flow rules an install graph wants, for an adapter that
    programs switches itself: by infra port, then the rule's hop id."""
    wanted: dict[PortKey, dict[str, Flowrule]] = {}
    for infra in install.infras:
        for port in infra.ports.values():
            rules = wanted[infra.id, port.id] = {}
            for index, rule in enumerate(port.flowrules):
                key = rule.hop_id
                if key is None or key in rules:
                    key = f"{key}#{index}"
                rules[key] = rule
    return wanted


class FlowProgrammer:
    """The flow entries one orchestrator installed through a controller
    endpoint, and the diff that keeps them equal to what it wants.

    The record is two levels deep — a *group* (an infra port, a path
    cookie) holds keyed *sources* (a flow rule, a path spec) and the
    entries each was translated into.  Only :meth:`sync` and
    :meth:`clear` write it.  Entries are tracked per table slot, so two
    sources that claim one slot shadow each other instead of the later
    one's removal deleting the earlier one's entry.
    """

    def __init__(self, controller: ControllerEndpoint):
        self.controller = controller
        self._installed: dict[Hashable,
                              dict[str, tuple[Any, tuple[Flow, ...]]]] = {}
        #: slot -> the entries claiming it, oldest first; the table
        #: holds the newest
        self._claims: dict[tuple, list[Flow]] = {}

    def sources(self, group: Hashable) -> dict[str, Any]:
        """The sources recorded for ``group``, by key."""
        return {key: source for key, (source, _)
                in self._installed.get(group, {}).items()}

    def invalidate(self) -> None:
        """Forget the sources, keep the entries: the next sync translates
        every source again (for when the translation itself moved, e.g.
        an NF changed hosts) and still sends only what differs."""
        self._installed = {
            group: {key: (None, flows) for key, (_, flows) in members.items()}
            for group, members in self._installed.items()}

    def clear(self) -> None:
        """Forget everything (the owner wiped the switches)."""
        self._installed.clear()
        self._claims.clear()

    def sync(self, wanted: Mapping[Hashable, Mapping[str, Any]],
             translate: Callable[[Hashable, str, Any], Sequence[Flow]], *,
             full: bool = False) -> None:
        """Make the groups named by ``wanted`` carry exactly its sources
        (``full``: and remove every group it does not name).

        A source equal to the recorded one is skipped untranslated; the
        others go through ``translate(group, key, source)`` and their
        entries are diffed against the recorded ones.  All ADDs go out
        before any ``DELETE_STRICT`` — a rule that moved is never absent
        in between — then one barrier per switch that was sent anything.
        """
        groups = list(wanted)
        if full:
            groups += [group for group in self._installed
                       if group not in wanted]
        adds: list[Flow] = []
        removes: list[Flow] = []
        for group in groups:
            new = wanted.get(group, {})
            old = self._installed.get(group, {})
            members: dict[str, tuple[Any, tuple[Flow, ...]]] = {}
            for key, (_, flows) in old.items():
                if key not in new:
                    removes += flows
            for key, source in new.items():
                have_source, have = old.get(key, (None, ()))
                if have_source == source:  # sources are never None
                    members[key] = old[key]
                    continue
                flows = tuple(translate(group, key, source))
                adds += [flow for flow in flows if flow not in have]
                removes += [flow for flow in have if flow not in flows]
                members[key] = (source, flows)
            if members:
                self._installed[group] = members
            else:
                self._installed.pop(group, None)
        touched: dict[str, None] = {}
        for flow in adds:
            self._claims.setdefault(flow.slot, []).append(flow)
            self._send(flow, FlowModCommand.ADD, touched)
        for flow in removes:
            claims = self._claims[flow.slot]
            held = claims[-1] == flow
            claims.remove(flow)
            if not claims:
                del self._claims[flow.slot]
                self._send(flow, FlowModCommand.DELETE_STRICT, touched)
            elif held and claims[-1] != flow:
                # the entry it shadowed comes back
                self._send(claims[-1], FlowModCommand.ADD, touched)
        for dpid in touched:
            self.controller.barrier(dpid)

    def _send(self, flow: Flow, command: FlowModCommand,
              touched: dict[str, None]) -> None:
        self.controller.send_flow_mod(
            flow.dpid, match=flow.match, actions=list(flow.actions),
            priority=flow.priority, command=command, cookie=flow.cookie)
        touched[flow.dpid] = None


def program_infra_flows(controller: ControllerEndpoint, dpid: str,
                        infra: NodeInfra, *, cookie: str = "",
                        hop_filter: Optional[set[str]] = None) -> int:
    """Install every flow rule of an NFFG infra node on a switch, without
    a record (one-shot set-ups; orchestrators use :class:`FlowProgrammer`).

    ``cookie`` (typically the service id) enables later teardown via
    :func:`remove_service_flows`.  Returns the number of FlowMods sent.
    """
    sent = 0
    for port, rule in infra.iter_flowrules():
        if hop_filter is not None and rule.hop_id not in hop_filter:
            continue
        flow = rule_flow(dpid, port.id, rule, cookie)
        controller.send_flow_mod(dpid, match=flow.match,
                                 actions=list(flow.actions),
                                 priority=flow.priority, cookie=flow.cookie)
        sent += 1
    return sent


def remove_service_flows(controller: ControllerEndpoint, dpid: str,
                         cookie: str) -> None:
    controller.delete_flows(dpid, cookie=cookie)
