"""Whole-graph NFFG operations used by the orchestration layers.

- :func:`merge_nffgs` stitches per-domain views into one global view
  (inter-domain SAP ports carrying the same ``sap_tag`` are fused with
  an inter-domain static link);
- :func:`available_resources` / :func:`remaining_nffg` compute what is
  left of a resource view after the currently placed NFs and reserved
  SG hops are subtracted — this is what a virtualizer advertises
  northbound;
- :func:`nffg_facts` flattens a graph into named facts, the
  order-independent form two graphs are compared in;
- :func:`refresh_members` re-reads the members a :class:`Touched` set
  names from one graph into another — how an install view follows the
  DoV at the cost of an edit;
- :func:`differing_members` finds that set between two graphs nobody
  recorded an edit for: a re-derived install view against the one it
  replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.nffg.graph import NFFG, NFFGError
from repro.nffg.model import (
    EdgeLink,
    NodeInfra,
    NodeNF,
    ResourceVector,
)


def merge_nffgs(views: Iterable[NFFG],
                merged_id: str = "global-view") -> NFFG:
    """Merge domain views into a single global resource view.

    Node ids must be globally unique across domains (domain managers
    prefix their node ids); a collision raises :class:`NFFGError`
    naming both offending views.  Infra ports tagged with the same
    ``sap_tag`` on *different* nodes are connected with an inter-domain
    link of zero cost; the tag is treated as the physical hand-off
    between providers.
    """
    merged = NFFG(id=merged_id, name="merged global view")
    tag_endpoints: dict[str, list[tuple[str, str]]] = {}
    node_owner: dict[str, str] = {}
    for view in views:
        for node in view.nodes:
            if node.id in node_owner:
                raise NFFGError(
                    f"cannot merge domain views: node id {node.id!r} "
                    f"appears in both {node_owner[node.id]!r} and "
                    f"{view.id!r}; domain managers must prefix their "
                    "node ids to keep them globally unique")
            node_owner[node.id] = view.id
            merged.add_node_copy(node)
        for edge in view.edges:
            merged.add_edge_copy(edge)
        for infra in view.infras:
            for port in infra.ports.values():
                if port.sap_tag is not None:
                    tag_endpoints.setdefault(port.sap_tag, []).append(
                        (infra.id, port.id))
    for tag, endpoints in sorted(tag_endpoints.items()):
        if len(endpoints) < 2:
            continue
        if len(endpoints) > 2:
            raise NFFGError(
                f"sap_tag {tag!r} appears on {len(endpoints)} ports; "
                "inter-domain tags must pair exactly two ports")
        (node_a, port_a), (node_b, port_b) = endpoints
        merged.add_link(node_a, port_a, node_b, port_b,
                        id=f"interdomain-{tag}",
                        delay=_INTERDOMAIN_DELAY, bandwidth=_INTERDOMAIN_BW)
    return merged


#: defaults for the stitched inter-domain links; real systems learn these
#: from BGP-LS / peering contracts, the prototype hard-wires the peering.
_INTERDOMAIN_DELAY = 1.0
_INTERDOMAIN_BW = 10_000.0


def consumed_resources(view: NFFG, infra_id: str) -> ResourceVector:
    """Sum of resource demands of NFs currently placed on ``infra_id``."""
    total = ResourceVector()
    for nf in view.nfs_on(infra_id):
        total = total + nf.resources
    return total


def available_resources(view: NFFG, infra_id: str) -> ResourceVector:
    """Capacity minus consumption for one infra node."""
    infra = view.infra(infra_id)
    return infra.resources - consumed_resources(view, infra_id)


def remaining_nffg(view: NFFG, new_id: Optional[str] = None, *,
                   include_deployed: bool = True) -> NFFG:
    """A copy of ``view`` whose infra capacities are the *free* resources
    and link bandwidths the *unreserved* bandwidths.

    This is the graph a virtualizer exposes northbound: the client plans
    against what is actually left.

    With ``include_deployed=False`` the deployed NFs, their dynamic
    links and the carried SG hop/requirement edges are left out: the
    advertised view is substrate + SAPs + net capacities only.  That is
    what a real virtualizer shows a client (tenant internals are not
    advertised), it keeps the view's size independent of how much has
    been deployed, and it makes downstream accounting correct — a
    ledger built over a view that nets out the deployed NFs *and* still
    contains them would subtract their demands a second time.
    """
    if include_deployed:
        result = view.copy(new_id or f"{view.id}-remaining")
    else:
        result = view.copy_subgraph(
            new_id or f"{view.id}-remaining",
            [node.id for node in view.nodes if not isinstance(node, NodeNF)],
            name=f"{view.name} (remaining)")
    # one pass over the edge table for all placements instead of a
    # per-infra nfs_on scan (this runs on every resource_view call)
    consumed: dict[str, ResourceVector] = {}
    for infra_id, nf in view.placed_nfs():
        total = consumed.get(infra_id)
        consumed[infra_id] = (nf.resources if total is None
                              else total + nf.resources)
    for infra in result.infras:
        used = consumed.get(infra.id)
        free = infra.resources if used is None else infra.resources - used
        infra.resources = ResourceVector(
            cpu=max(free.cpu, 0.0), mem=max(free.mem, 0.0),
            storage=max(free.storage, 0.0),
            bandwidth=max(infra.resources.bandwidth, 0.0),
            delay=infra.resources.delay)
    for link in result.links:
        link.bandwidth = max(link.available_bandwidth, 0.0)
        link.reserved = 0.0
    return result


@dataclass
class Touched:
    """The members of an install graph an edit wrote, by id: whole nodes
    (NFs and SAPs come and go with their links), single infra ports
    (flow rules, NF attachment ports) and links (reservations).  On the
    named ports, flow rules came or went under the ``hops`` ids only."""

    nodes: set[str] = field(default_factory=set)
    ports: set[tuple[str, str]] = field(default_factory=set)
    hops: set[str] = field(default_factory=set)
    edges: set[str] = field(default_factory=set)

    def __bool__(self) -> bool:
        return bool(self.nodes or self.ports or self.edges)


def _differs_only_in(held: object, fresh: object, name: str) -> bool:
    """``held`` and ``fresh`` are records of one type whose fields agree
    on everything but ``name``."""
    return (type(held) is type(fresh) and {**held.__dict__, name: None}
            == {**fresh.__dict__, name: None})


def refresh_members(target: NFFG, source: NFFG, touched: Touched) -> set[str]:
    """Re-read the members ``touched`` names from ``source`` into
    ``target``, in place; a member ``source`` does not have leaves
    ``target``.  A port that differs only in its flow rules keeps its
    object and takes a copy of the rule list (rules are immutable and
    shared), a link that differs only in ``reserved`` takes that value,
    anything else is replaced by a copy.  A re-read node brings the
    links that join it to nodes ``target`` holds, and an NF goes where
    its host is: one hosted outside ``target`` leaves it too.  Returns
    the ids of the links that left or entered with a node."""
    for node_id, port_id in touched.ports:
        if not target.has_node(node_id):
            continue
        fresh = (source.node(node_id).ports.get(port_id)
                 if source.has_node(node_id) else None)
        ports = target.node(node_id).ports
        held = ports.get(port_id)
        if fresh is None:
            ports.pop(port_id, None)
        elif held is not None and _differs_only_in(held, fresh, "flowrules"):
            held.flowrules = list(fresh.flowrules)
        else:
            ports[port_id] = fresh.clone()

    def reread_link(edge: object) -> bool:
        if (isinstance(edge, EdgeLink) and edge.src_node in target
                and edge.dst_node in target
                and not target.has_edge(edge.id)):
            target.add_edge_copy(edge)
            return True
        return False

    moved: set[str] = set()
    for node_id in touched.nodes:
        if target.has_node(node_id):
            moved.update(edge.id for edge in target.edges_of(node_id))
            target.remove_node(node_id)
        host = source.host_of(node_id)
        if source.has_node(node_id) and (host is None or host in target):
            target.add_node_copy(source.node(node_id))
            moved.update(edge.id for edge in source.edges_of(node_id)
                         if reread_link(edge))
    for edge_id in touched.edges - moved:
        fresh = source.edge(edge_id) if source.has_edge(edge_id) else None
        if target.has_edge(edge_id):
            held = target.edge(edge_id)
            if isinstance(fresh, EdgeLink) and _differs_only_in(
                    held, fresh, "reserved"):
                held.reserved = fresh.reserved
                continue
            target.remove_edge(edge_id)
        if fresh is not None:
            reread_link(fresh)
    return moved


def differing_members(old: NFFG, new: NFFG) -> Optional[Touched]:
    """The :class:`Touched` set an edit from ``old`` to ``new`` would
    have recorded: NFs and SAPs whose record or host differs or that
    only one graph has, infra ports that differ (with the hop ids of
    exactly the flow rules that came or went on them) and edges that
    differ.  None when no such edit exists — the graphs go by different
    ids, or an infra came, went or changed besides its ports."""
    if old.id != new.id:
        return None
    touched = Touched()
    gone = {node.id: node for node in old.nodes}
    for node in new.nodes:
        was = gone.pop(node.id, None)
        if not isinstance(node, NodeInfra):
            if (was is None or was.__dict__ != node.__dict__
                    or old.host_of(node.id) != new.host_of(node.id)):
                touched.nodes.add(node.id)
            continue
        if not isinstance(was, NodeInfra) or (
                {**was.__dict__, "ports": None}
                != {**node.__dict__, "ports": None}):
            return None
        for port_id in was.ports.keys() | node.ports.keys():
            before, after = was.ports.get(port_id), node.ports.get(port_id)
            if before != after:
                touched.ports.add((node.id, port_id))
                touched.hops.update(
                    rule.hop_id for rule in
                    set(before.flowrules if before else ())
                    ^ set(after.flowrules if after else ()) if rule.hop_id)
    if any(isinstance(node, NodeInfra) for node in gone.values()):
        return None
    touched.nodes.update(gone)
    left = {edge.id: edge for edge in old.edges}
    touched.edges.update(edge.id for edge in new.edges
                         if left.pop(edge.id, None) != edge)
    touched.edges.update(left)
    return touched


def nffg_facts(what: str, graph: NFFG) -> dict[str, object]:
    """A graph as flat named facts — elements, infra capacities, flow
    rules per port, link bandwidth and reservation — each keyed by a
    readable name prefixed with ``what``.  Two graphs agree exactly when
    their fact maps do, whatever order their elements were inserted in
    (``ControllerAdaptationLayer.verify`` diffs them)."""
    facts: dict[str, object] = {}
    for node in graph.nodes:
        facts[f"{what} node {node.id}"] = type(node).__name__
        if isinstance(node, NodeInfra):
            free = node.resources
            facts[f"{what} capacity of {node.id}"] = (
                free.cpu, free.mem, free.storage)
            for port in node.ports.values():
                facts[f"{what} flow rules on {node.id}.{port.id}"] = sorted(
                    (rule.hop_id, rule.match, rule.action, rule.bandwidth)
                    for rule in port.flowrules)
    for edge in graph.edges:
        facts[f"{what} edge {edge.id}"] = (edge.src_node, edge.src_port,
                                           edge.dst_node, edge.dst_port)
        if isinstance(edge, EdgeLink):
            facts[f"{what} bandwidth of {edge.id}"] = (edge.bandwidth,
                                                       edge.reserved)
    return facts
