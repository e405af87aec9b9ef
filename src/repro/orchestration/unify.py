"""The recursive Unify interface.

"The manager - virtualizer relationship is recursive, thus Unify
domains can be stacked into a multi-level control hierarchy similar to
ONF's SDN architecture.  The recursive interface is the Unify
interface."

North side (:class:`UnifyAgent`): the
:class:`~repro.infra.orchestrator.LocalOrchestrator` in front of an
:class:`~repro.orchestration.escape.EscapeOrchestrator`.  It advertises
a virtual view (by default a single BiS-BiS) as a virtualizer tree and
accepts edits of it, which it reads as a set of independent client
services — *parts* — and reconciles against the parts it deployed last
time: one chain added at the top is one ``deploy`` at every level below.

South side (:class:`UnifyDomainAdapter`): makes a whole child
orchestrator look like one more technology domain to its parent — the
parent places NFs on the child's advertised BiS-BiS and edits its
flowtable exactly as it would for any other domain, edit scripts and all.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.infra.flowprog import PortKey
from repro.infra.orchestrator import NFS, LocalOrchestrator
from repro.netconf.messages import UNIFY_CAPABILITY
from repro.nffg.graph import NFFG
from repro.nffg.model import DomainType, Flowrule, NodeNF
from repro.orchestration.adapters import _NetconfAdapter
from repro.orchestration.escape import EscapeOrchestrator
from repro.perf import counters
from repro.virtualizer.convert import nffg_to_virtualizer, virtualizer_to_nffg
from repro.virtualizer.model import Virtualizer
from repro.virtualizer.views import SingleBiSBiSView, ViewPolicy
from repro.yang.data import DataNode

#: an SG hop as flow rules spell it: (src, dst, flowclass, bandwidth,
#: delay), an end being (node id, port id) with port None at a SAP
Hop = tuple[tuple, tuple, str, float, float]


def _hop_key(port_id: str, rule: Flowrule) -> str:
    """The SG hop a flow rule at ``port_id`` belongs to: its hop id, or
    for a rule without one, its ingress and output ports."""
    if rule.hop_id:
        return rule.hop_id
    in_port = rule.match_fields().get("in_port", port_id)
    return f"hop-{in_port}-{rule.action_fields().get('output', '')}"


def _hops(rules: Iterable[tuple[str, Flowrule]], nf_ids) -> dict[str, Hop]:
    """The SG hops behind ``(ingress port, flow rule)`` pairs, by id.

    Flow rules carry their SG hop id, bandwidth and delay budget.  A hop
    routed across several virtual nodes leaves one rule per node; its
    ends are the edge (SAP/NF) ports of its first and last rule."""

    def classify(port_id: str) -> Optional[tuple[str, Optional[str]]]:
        # SAP and NF attachment ports; None for transit/unknown ports
        if port_id.startswith("sap-"):
            return port_id[len("sap-"):], None
        nf_id, _, nf_port = port_id.rpartition("-")
        return (nf_id, nf_port) if nf_id in nf_ids else None

    found: dict[str, list] = {}
    for port_id, rule in rules:
        match_fields = rule.match_fields()
        in_port = match_fields.get("in_port", port_id)
        out_port = rule.action_fields().get("output", "")
        hop = found.setdefault(_hop_key(port_id, rule),
                               [None, None, "", 0.0, 0.0])
        hop[0] = hop[0] or classify(in_port)
        hop[1] = classify(out_port) or hop[1]
        hop[2] = match_fields.get("flowclass") or hop[2]
        hop[3] = max(hop[3], rule.bandwidth)
        hop[4] = max(hop[4], rule.delay)
    # an end still missing: pure transit of a hop terminating elsewhere
    return {hop_id: tuple(hop) for hop_id, hop in found.items()
            if hop[0] and hop[1]}


def _service(service_id: str, nfs: Iterable[NodeNF],
             hops: dict[str, Hop]) -> NFFG:
    """The SAP/NF-level service graph of some NFs and hops, which the
    child can re-map freely onto its own resources."""
    service = NFFG(id=service_id)
    for nf in nfs:
        service.add_node_copy(nf)
    for hop_id, (src, dst, flowclass, bandwidth, delay) in sorted(hops.items()):
        ends: list[str] = []
        for node_id, port_id in (src, dst):
            if port_id is None:
                if not service.has_node(node_id):
                    service.add_sap(node_id)
                port_id = next(iter(service.sap(node_id).ports))
            ends += [node_id, port_id]
        service.add_sg_hop(*ends, id=hop_id, flowclass=flowclass,
                           bandwidth=bandwidth, delay=delay)
    return service


def service_from_virtual_install(install: NFFG,
                                 service_id: str = "unify-client") -> NFFG:
    """Reconstruct a service graph from an edited virtual view: the
    parent expressed it as NF instances on virtual BiS-BiS nodes and
    flow entries steering between SAP ports and NF ports."""
    nfs = {nf.id: nf for nf in install.nfs}
    rules = ((port.id, rule) for infra in install.infras
             for port, rule in infra.iter_flowrules())
    service = _service(service_id, nfs.values(), _hops(rules, nfs))
    service.name = f"reconstructed from {install.id}"
    return service


def _split(nfs: dict[str, NodeNF], hops: dict[str, Hop],
           ) -> dict[str, tuple[list[NodeNF], dict[str, Hop]]]:
    """Independent client services: the connected components of NFs and
    hops (a SAP joins nothing: two chains between the same SAPs stay
    two).  A part is named after its smallest hop id — its smallest NF
    id without hops — so it keeps its name while its content changes."""
    leader = {nf_id: nf_id for nf_id in nfs}

    def find_leader(member: str) -> str:
        while leader[member] != member:
            member = leader[member]
        return member

    for src, dst, *_ in hops.values():
        ends = [find_leader(node_id) for node_id, _ in (src, dst)
                if node_id in leader]
        if ends:
            leader[ends[0]] = ends[-1]
    groups: dict[str, tuple[list[NodeNF], dict[str, Hop]]] = {}
    for nf_id in sorted(nfs):
        groups.setdefault(find_leader(nf_id), ([], {}))[0].append(nfs[nf_id])
    for hop_id, hop in hops.items():
        home = next((find_leader(node_id) for node_id, _ in hop[:2]
                     if node_id in leader), hop_id)  # SAP to SAP: alone
        groups.setdefault(home, ([], {}))[1][hop_id] = hop
    return {min(part_hops, default=part_nfs and part_nfs[0].id): (
        part_nfs, part_hops) for part_nfs, part_hops in groups.values()}


class UnifyAgent(LocalOrchestrator):
    """North-side Unify interface of an orchestrator."""

    def __init__(self, orchestrator: EscapeOrchestrator, *,
                 view_policy: Optional[ViewPolicy] = None):
        super().__init__(f"{orchestrator.name}-unify")
        self.orchestrator = orchestrator
        self.view_policy = view_policy or SingleBiSBiSView(
            bisbis_id=f"{orchestrator.name}-bisbis")
        #: part id -> content of the client services deployed below
        self._parts: dict[str, tuple] = {}
        #: NF id / hop key -> the part holding it
        self._part_of: dict[str, str] = {}
        #: the decoded flow entries again, by hop key: (virtual node,
        #: entry key) -> (ingress port, rule); and the NFs' hosts by id
        self._by_hop: dict[str, dict[tuple[str, str], tuple]] = {}
        self._nf_host: dict[str, str] = {}
        #: hop keys with rules but no two ends (pure transit), in no part
        self._dangling: set[str] = set()
        #: hop keys the running fold re-read
        self._hops_named: set[str] = set()
        #: what the last edit did: verb -> part ids
        self.last_edit: dict[str, list[str]] = {}
        self.register_rpc("get-virtualizer",
                          lambda params: self.current_virtualizer().to_dict())

    # -- view generation ------------------------------------------------------

    def current_view(self) -> NFFG:
        # free of everything except this client's own parts: it books
        # those itself, so netting them out here would count them twice
        remaining = self.orchestrator.cal.resource_view_without(self._parts)
        view = self.view_policy.build_view(
            remaining, view_id=f"{self.orchestrator.name}-virtual-view")
        # Advertise decomposable abstract NF types: "an NF mapped to a
        # BiS-BiS in the client virtualization can be replaced with an
        # interconnection of NFs during the mapping process" — clients
        # may place e.g. a vCPE here and this level will decompose it.
        library = self.orchestrator.ro.decomposition_library
        if library is not None:
            abstract_types = set(library.decomposable_types())
            for infra in view.infras:
                if infra.supported_types:
                    infra.supported_types |= abstract_types
        return view

    def current_virtualizer(self) -> Virtualizer:
        return nffg_to_virtualizer(self.current_view(),
                                   virtualizer_id=self.orchestrator.name)

    # -- configuration hooks ------------------------------------------------------

    def state_data(self) -> dict[str, Any]:
        return {"deployed_services": self.orchestrator.deployed_services(),
                "edits": self.deploy_count, "last_edit": self.last_edit}

    def _fold(self, change: Any):
        self._hops_named = set()
        if not isinstance(change, list):  # a replace: read all anew
            self._by_hop.clear()
            self._nf_host.clear()
        return super()._fold(change)

    def _read(self, node_id: str, kind: str, key: str,
              instance: Optional[DataNode]) -> Iterable[PortKey]:
        """The base's decode, kept by hop key and NF id besides, and the
        hops it moved noted."""
        if kind == NFS:
            if instance is not None:
                self._nf_host[key] = node_id
            elif self._nf_host.get(key) == node_id:
                del self._nf_host[key]
            return super()._read(node_id, kind, key, instance)
        entry = (node_id, key)
        old = self.entries.get(entry)
        moved = super()._read(node_id, kind, key, instance)
        new = self.entries.get(entry)
        was, now = (None if rule is None else _hop_key(*rule)
                    for rule in (old, new))
        if was is not None and was != now:
            held = self._by_hop[was]
            del held[entry]
            if not held:
                del self._by_hop[was]
        if now is not None:
            self._by_hop.setdefault(now, {})[entry] = new
        self._hops_named.update(filter(None, (was, now)))
        return moved

    def _region(self, nf_ids: set[str], hop_keys: set[str],
                ) -> tuple[set[str], dict[str, Hop], set[str]]:
        """What an edit naming NFs ``nf_ids`` and hops ``hop_keys`` (both
        grown in place) re-derives: those members, whole the parts that
        hold one and, through the hops, the parts they now join.
        Returns its NF ids, its hops that have two ends (by key) and the
        ids of the parts it re-derives."""
        stale: set[str] = set()
        hops: dict[str, Hop] = {}
        unread, unplaced = set(hop_keys), [*nf_ids, *hop_keys]
        while unread or unplaced:
            while unplaced:
                part_id = self._part_of.get(unplaced.pop())
                if part_id is None or part_id in stale:
                    continue
                stale.add(part_id)
                part_nfs, part_hops = self._parts[part_id]
                for nf_id in (nf["id"] for nf in part_nfs):
                    if nf_id not in nf_ids:
                        nf_ids.add(nf_id)
                        unplaced.append(nf_id)
                for hop_key in part_hops.keys() - hop_keys:
                    hop_keys.add(hop_key)
                    unread.add(hop_key)
            read = _hops((rule for hop_key in unread
                          for rule in self._by_hop.get(hop_key, {}).values()),
                         self._nf_host)
            unread = set()
            hops.update(read)
            for node_id, port_id in (end for hop in read.values()
                                     for end in hop[:2]):
                if port_id is not None and node_id not in nf_ids:
                    nf_ids.add(node_id)
                    unplaced.append(node_id)
        return nf_ids, hops, stale

    def _reconcile(self, nfs, ports) -> None:
        """Reconcile the parts the orchestrator below runs with the ones
        the committed config holds — the parts that hold a member the
        edit named, with every part those now join (all of them after a
        replace): what joins NFs and hops into a part is not local to
        one member.  A vanished part is one teardown, a new one one
        deploy, a changed one one update, and an unchanged one is not
        touched — nor, holding no named member, compared.  A part the
        orchestrator refuses raises — it is not recorded, and every
        other part stays as it was."""
        if nfs is None:
            self._part_of.clear()
            self._dangling.clear()
            nf_ids, hops, stale = (set(self._nf_host), _hops(
                self.entries.values(), self._nf_host), set(self._parts))
            named = set(self._by_hop)
        else:
            named = self._hops_named | (self._dangling if nfs else set())
            nf_ids, hops, stale = self._region(
                {nf_id for _, nf_id in nfs}, named)
        self._dangling -= named
        self._dangling |= {key for key in named
                           if key in self._by_hop and key not in hops}
        by_id = {nf_id: self.nfs[self._nf_host[nf_id], nf_id]
                 for nf_id in nf_ids if nf_id in self._nf_host}
        wanted = {
            f"{self.orchestrator.name}-client-{key}": part
            for key, part in _split(by_id, hops).items()}
        counters.incr("unify.parts_rederived", len(wanted))
        for part_id in stale:
            for member in self._members(part_id):
                if self._part_of.get(member) == part_id:
                    del self._part_of[member]
        self.last_edit = edit = {"removed": [], "updated": [], "deployed": [],
                                 "kept": []}
        try:
            for part_id in [p for p in self._parts
                            if p in stale and p not in wanted]:
                self.orchestrator.teardown(part_id)
                del self._parts[part_id]
                edit["removed"].append(part_id)
            for part_id, (part_nfs, part_hops) in sorted(wanted.items()):
                content = ([nf.to_dict() for nf in part_nfs], part_hops)
                known = part_id in self._parts
                if not (known and self._parts[part_id] == content):
                    # update() is a deploy for a service the books do
                    # not hold
                    report = self.orchestrator.update(
                        _service(part_id, part_nfs, part_hops))
                    if not report.success:
                        raise RuntimeError(
                            f"child mapping failed: {report.error}")
                    self._parts[part_id] = content
                    edit["updated" if known else "deployed"].append(part_id)
                self._part_of.update(
                    (member, part_id) for member in self._members(part_id))
        finally:
            changed = {*edit["removed"], *edit["updated"], *edit["deployed"]}
            edit["kept"] = sorted(part_id for part_id in self._parts
                                  if part_id not in changed)
            self.notify("deploy-finished", edit)

    def _members(self, part_id: str) -> Iterable[str]:
        """The NF ids and hop keys of a recorded part."""
        part_nfs, part_hops = self._parts[part_id]
        return [*(nf["id"] for nf in part_nfs), *part_hops]


class UnifyDomainAdapter(_NetconfAdapter):
    """South-side: a child Unify domain as seen by the parent."""

    def __init__(self, name: str, agent: UnifyAgent):
        super().__init__(name, DomainType.UNIFY, agent)
        self.agent = agent
        if UNIFY_CAPABILITY not in self.client.server_capabilities:
            raise RuntimeError(f"{name}: peer does not speak Unify")

    def get_view(self) -> NFFG:
        data = self.client.rpc("get-virtualizer")
        view = virtualizer_to_nffg(Virtualizer.from_dict(data))
        for infra in view.infras:
            infra.domain = DomainType.UNIFY
        return view

    def ready(self) -> bool:
        return self.agent.orchestrator.cal.ready()
