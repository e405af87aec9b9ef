"""The NFFG container: a typed multigraph of NFs, SAPs and BiS-BiS nodes.

The adjacency is plain dicts the NFFG keeps itself, so a dropped graph is
freed by reference counting; :meth:`NFFG.infra_topology` hands a fresh
:mod:`networkx` graph to the code that runs graph algorithms on it.
Orchestration code goes through the typed API, never raw dictionaries.
"""

from __future__ import annotations

import copy as _copy
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from repro.perf import counters
from repro.nffg.model import (
    DomainType,
    EdgeLink,
    EdgeReq,
    EdgeSGHop,
    InfraType,
    LinkType,
    NodeInfra,
    NodeNF,
    NodeSAP,
    ResourceVector,
)

if TYPE_CHECKING:
    import networkx as nx

NodeObj = NodeNF | NodeSAP | NodeInfra
EdgeObj = EdgeLink | EdgeSGHop | EdgeReq


def _is_dynamic(edge: EdgeObj) -> bool:
    return isinstance(edge, EdgeLink) and edge.link_type == LinkType.DYNAMIC


class NFFGError(ValueError):
    """Raised for structurally invalid NFFG operations."""


class NFFG:
    """NF Forwarding Graph.

    One class serves three roles, exactly as in UNIFY:

    - a *service graph*: SAPs + NFs + SG hops + requirement edges;
    - a *resource view*: infra (BiS-BiS) nodes + static links;
    - a *mapped graph*: both, with NFs bound to infras via dynamic
      links and flow rules on infra ports.
    """

    def __init__(self, id: str = "NFFG", name: str = "", version: str = "1.0"):
        self.id = id
        self.name = name or id
        self.version = version
        self.metadata: dict[str, Any] = {}
        self._nodes: dict[str, NodeObj] = {}
        self._edges: dict[str, EdgeObj] = {}
        # _succ[u][v] and _pred[v][u] are one {edge id: edge} dict per
        # node pair, in insertion order, dropped when it empties
        self._succ: dict[str, dict[str, dict[str, EdgeObj]]] = {}
        self._pred: dict[str, dict[str, dict[str, EdgeObj]]] = {}
        self._id_seq = 0

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------

    def _register_node(self, node: NodeObj) -> NodeObj:
        if node.id in self._nodes:
            raise NFFGError(f"duplicate node id {node.id!r} in NFFG {self.id!r}")
        self._nodes[node.id] = node
        self._succ[node.id] = {}
        self._pred[node.id] = {}
        return node

    def add_nf(self, id: str, functional_type: str, *, name: str = "",
               deployment_type: str = "",
               resources: ResourceVector | None = None,
               num_ports: int = 0) -> NodeNF:
        nf = NodeNF(id=id, functional_type=functional_type, name=name,
                    deployment_type=deployment_type, resources=resources)
        for _ in range(num_ports):
            nf.add_port()
        self._register_node(nf)
        return nf

    def add_sap(self, id: str, *, name: str = "", binding: Optional[str] = None,
                num_ports: int = 1) -> NodeSAP:
        sap = NodeSAP(id=id, name=name, binding=binding)
        for _ in range(num_ports):
            sap.add_port()
        self._register_node(sap)
        return sap

    def add_infra(self, id: str, *, name: str = "",
                  infra_type: InfraType = InfraType.BISBIS,
                  domain: DomainType = DomainType.INTERNAL,
                  resources: ResourceVector | None = None,
                  supported_types: Iterable[str] = (),
                  cost_per_cpu: float = 1.0,
                  num_ports: int = 0) -> NodeInfra:
        infra = NodeInfra(id=id, name=name, infra_type=infra_type, domain=domain,
                          resources=resources, supported_types=supported_types,
                          cost_per_cpu=cost_per_cpu)
        for _ in range(num_ports):
            infra.add_port()
        self._register_node(infra)
        return infra

    def add_node_copy(self, node: NodeObj) -> NodeObj:
        """Deep-copy a node object (with ports/flowrules) into this NFFG."""
        return self._register_node(node.clone())

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise NFFGError(f"unknown node {node_id!r}")
        for edge in list(self.edges_of(node_id)):
            self.remove_edge(edge.id)
        del self._nodes[node_id], self._succ[node_id], self._pred[node_id]

    # -- typed accessors ------------------------------------------------

    def node(self, node_id: str) -> NodeObj:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NFFGError(f"unknown node {node_id!r} in NFFG {self.id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def nfs(self) -> list[NodeNF]:
        return [n for n in self._nodes.values() if isinstance(n, NodeNF)]

    @property
    def saps(self) -> list[NodeSAP]:
        return [n for n in self._nodes.values() if isinstance(n, NodeSAP)]

    @property
    def infras(self) -> list[NodeInfra]:
        return [n for n in self._nodes.values() if isinstance(n, NodeInfra)]

    @property
    def nodes(self) -> list[NodeObj]:
        return list(self._nodes.values())

    def infra(self, node_id: str) -> NodeInfra:
        node = self.node(node_id)
        if not isinstance(node, NodeInfra):
            raise NFFGError(f"node {node_id!r} is not an infra node")
        return node

    def nf(self, node_id: str) -> NodeNF:
        node = self.node(node_id)
        if not isinstance(node, NodeNF):
            raise NFFGError(f"node {node_id!r} is not an NF node")
        return node

    def sap(self, node_id: str) -> NodeSAP:
        node = self.node(node_id)
        if not isinstance(node, NodeSAP):
            raise NFFGError(f"node {node_id!r} is not a SAP node")
        return node

    # ------------------------------------------------------------------
    # edge management
    # ------------------------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        # namespaced by graph id so views built independently can be
        # merged without auto-id collisions
        while True:
            self._id_seq += 1
            candidate = f"{self.id}:{prefix}{self._id_seq}"
            if candidate not in self._edges:
                return candidate

    def _check_endpoint(self, node_id: str, port_id: str) -> None:
        node = self.node(node_id)
        if not node.has_port(port_id):
            raise NFFGError(f"node {node_id!r} has no port {port_id!r}")

    def _register_edge(self, edge: EdgeObj) -> EdgeObj:
        if edge.id in self._edges:
            raise NFFGError(f"duplicate edge id {edge.id!r}")
        src, dst = edge.src_node, edge.dst_node
        self._check_endpoint(src, edge.src_port)
        self._check_endpoint(dst, edge.dst_port)
        self._edges[edge.id] = edge
        pair = self._succ[src].get(dst)
        if pair is None:
            pair = self._succ[src][dst] = self._pred[dst][src] = {}
        pair[edge.id] = edge
        return edge

    def add_link(self, src_node: str, src_port: str, dst_node: str, dst_port: str,
                 *, id: Optional[str] = None, delay: float = 0.0,
                 bandwidth: float = 0.0,
                 link_type: LinkType = LinkType.STATIC,
                 bidirectional: bool = True) -> EdgeLink:
        """Add a static/dynamic link; by default also its reverse pair."""
        link_id = id or self._next_id("link")
        link = EdgeLink(id=link_id, src_node=src_node, src_port=str(src_port),
                        dst_node=dst_node, dst_port=str(dst_port),
                        link_type=link_type, delay=delay, bandwidth=bandwidth)
        self._register_edge(link)
        if bidirectional:
            back = EdgeLink(id=f"{link_id}-back", src_node=dst_node,
                            dst_node=src_node, src_port=str(dst_port),
                            dst_port=str(src_port), link_type=link_type,
                            delay=delay, bandwidth=bandwidth)
            self._register_edge(back)
        return link

    def add_sg_hop(self, src_node: str, src_port: str, dst_node: str, dst_port: str,
                   *, id: Optional[str] = None, flowclass: str = "",
                   bandwidth: float = 0.0, delay: float = 0.0) -> EdgeSGHop:
        hop = EdgeSGHop(id=id or self._next_id("hop"),
                        src_node=src_node, src_port=str(src_port),
                        dst_node=dst_node, dst_port=str(dst_port),
                        flowclass=flowclass, bandwidth=bandwidth, delay=delay)
        self._register_edge(hop)
        return hop

    def add_requirement(self, src_node: str, src_port: str, dst_node: str,
                        dst_port: str, *, sg_path: Iterable[str],
                        id: Optional[str] = None, bandwidth: float = 0.0,
                        max_delay: float = float("inf")) -> EdgeReq:
        req = EdgeReq(id=id or self._next_id("req"),
                      src_node=src_node, src_port=str(src_port),
                      dst_node=dst_node, dst_port=str(dst_port),
                      sg_path=[str(hop) for hop in sg_path],
                      bandwidth=bandwidth, max_delay=max_delay)
        for hop_id in req.sg_path:
            if hop_id not in self._edges:
                raise NFFGError(f"requirement {req.id!r} references unknown hop {hop_id!r}")
        self._register_edge(req)
        return req

    def add_edge_copy(self, edge: EdgeObj) -> EdgeObj:
        return self._register_edge(edge.clone())

    def remove_edge(self, edge_id: str) -> None:
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            raise NFFGError(f"unknown edge {edge_id!r}")
        src, dst = edge.src_node, edge.dst_node
        pair = self._succ[src][dst]
        del pair[edge_id]
        if not pair:
            del self._succ[src][dst], self._pred[dst][src]

    # -- typed edge accessors -------------------------------------------

    def edge(self, edge_id: str) -> EdgeObj:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise NFFGError(f"unknown edge {edge_id!r} in NFFG {self.id!r}") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edges

    @property
    def links(self) -> list[EdgeLink]:
        return [e for e in self._edges.values()
                if isinstance(e, EdgeLink) and e.link_type == LinkType.STATIC]

    @property
    def dynamic_links(self) -> list[EdgeLink]:
        return [e for e in self._edges.values()
                if isinstance(e, EdgeLink) and e.link_type == LinkType.DYNAMIC]

    @property
    def sg_hops(self) -> list[EdgeSGHop]:
        return [e for e in self._edges.values() if isinstance(e, EdgeSGHop)]

    @property
    def requirements(self) -> list[EdgeReq]:
        return [e for e in self._edges.values() if isinstance(e, EdgeReq)]

    @property
    def edges(self) -> list[EdgeObj]:
        return list(self._edges.values())

    def edges_of(self, node_id: str) -> Iterator[EdgeObj]:
        """All edges incident to a node in O(deg): out-edges, then in-edges,
        each by neighbour, then by edge, in insertion order."""
        if node_id not in self._succ:
            return
        yield from [edge for pair in self._succ[node_id].values()
                    for edge in pair.values()]
        # a self-loop's pair is on both sides: it was yielded above
        yield from [edge for src, pair in self._pred[node_id].items()
                    if src != node_id for edge in pair.values()]

    def edges_between(self, node_a: str, node_b: str) -> Iterator[EdgeObj]:
        """The edges joining two nodes, either way round, by lookup."""
        yield from self._succ.get(node_a, {}).get(node_b, {}).values()
        if node_b != node_a:
            yield from self._succ.get(node_b, {}).get(node_a, {}).values()

    def out_links(self, node_id: str) -> list[EdgeLink]:
        if node_id not in self._succ:
            return []
        return [edge for pair in self._succ[node_id].values()
                for edge in pair.values() if isinstance(edge, EdgeLink)
                and edge.link_type == LinkType.STATIC]

    def link_between(self, src_node: str, dst_node: str) -> Optional[EdgeLink]:
        pair = self._succ.get(src_node, {}).get(dst_node, {})
        return next((edge for edge in pair.values()
                     if isinstance(edge, EdgeLink)
                     and edge.link_type == LinkType.STATIC), None)

    # ------------------------------------------------------------------
    # deployment bookkeeping (NF placement)
    # ------------------------------------------------------------------

    def place_nf(self, nf_id: str, infra_id: str,
                 port_pairs: Optional[list[tuple[str, str]]] = None) -> list[EdgeLink]:
        """Bind an NF to a hosting BiS-BiS with dynamic links.

        ``port_pairs`` maps NF ports to (newly created) infra ports; by
        default every NF port gets a fresh infra port.
        """
        nf = self.nf(nf_id)
        infra = self.infra(infra_id)
        if not infra.supports(nf.functional_type):
            raise NFFGError(
                f"infra {infra_id!r} does not support NF type {nf.functional_type!r}")
        created: list[EdgeLink] = []
        if port_pairs is None:
            port_pairs = []
            for nf_port in nf.ports.values():
                infra_port = infra.add_port(f"{nf_id}-{nf_port.id}")
                port_pairs.append((nf_port.id, infra_port.id))
        for nf_port_id, infra_port_id in port_pairs:
            link = self.add_link(nf_id, nf_port_id, infra_id, infra_port_id,
                                 id=f"dyn-{nf_id}-{nf_port_id}",
                                 link_type=LinkType.DYNAMIC, bidirectional=True)
            created.append(link)
        nf.status = "placed"
        return created

    def host_of(self, nf_id: str) -> Optional[str]:
        """The infra node hosting ``nf_id``, or None if unplaced."""
        if nf_id not in self._succ:
            return None
        for dst, pair in self._succ[nf_id].items():
            if (isinstance(self._nodes[dst], NodeInfra)
                    and any(map(_is_dynamic, pair.values()))):
                return dst
        return None

    def nfs_on(self, infra_id: str) -> list[NodeNF]:
        if infra_id not in self._pred:
            return []
        return [self._nodes[src]
                for src, pair in self._pred[infra_id].items()
                if isinstance(self._nodes[src], NodeNF)
                and any(map(_is_dynamic, pair.values()))]

    def infra_port_of_nf(self, nf_id: str, nf_port_id: str) -> Optional[tuple[str, str]]:
        """(infra_id, infra_port_id) bound to the given NF port."""
        nf_port_id = str(nf_port_id)
        if nf_id not in self._succ:
            return None
        for pair in self._succ[nf_id].values():
            for edge in pair.values():
                if _is_dynamic(edge) and edge.src_port == nf_port_id:
                    return edge.dst_node, edge.dst_port
        return None

    # ------------------------------------------------------------------
    # whole-graph operations
    # ------------------------------------------------------------------

    def copy(self, new_id: Optional[str] = None) -> "NFFG":
        """Structured clone of the whole graph.

        Hand-rolled fast path: nodes, ports, flowrules and edges are
        cloned field-by-field (see ``clone()`` on the model classes)
        and the adjacency dicts are filled directly — an order of
        magnitude cheaper than ``copy.deepcopy``'s generic memo walk on
        control-plane-sized views.
        """
        clone = NFFG(id=self.id if new_id is None else new_id,
                     name=self.name, version=self.version)
        clone.metadata = _copy.deepcopy(self.metadata) if self.metadata else {}
        clone._id_seq = self._id_seq
        nodes, succ, pred = clone._nodes, clone._succ, clone._pred
        for node_id, node in self._nodes.items():
            nodes[node_id] = node.clone()
            succ[node_id] = {}
            pred[node_id] = {}
        edges = clone._edges
        for edge_id, edge in self._edges.items():
            cloned = edges[edge_id] = edge.clone()
            src, dst = cloned.src_node, cloned.dst_node
            pair = succ[src].get(dst)
            if pair is None:
                pair = succ[src][dst] = pred[dst][src] = {}
            pair[edge_id] = cloned
        counters.incr("nffg.copy.calls")
        counters.incr("nffg.copy.nodes", len(nodes))
        counters.incr("nffg.copy.edges", len(edges))
        return clone

    def copy_subgraph(self, new_id: str, node_ids: Iterable[str],
                      name: str = "") -> "NFFG":
        """Clone of the subgraph spanning ``node_ids`` keeping only the
        *links* (static/dynamic) whose both endpoints are kept.

        SG hops and requirement edges are dropped: the result is a
        deployment-only view — exactly what the CAL's ``_install_for``
        hands to a domain adapter.  Same direct-fill fast path as
        :meth:`copy`; the links are found by walking the kept nodes'
        adjacency, so the clone costs the subgraph and not this graph
        (edges come out in that walk's order).
        """
        clone = NFFG(id=new_id, name=name or new_id, version=self.version)
        clone._id_seq = self._id_seq
        nodes, succ, pred = clone._nodes, clone._succ, clone._pred
        for node_id in node_ids:
            nodes[node_id] = self._nodes[node_id].clone()
            succ[node_id] = {}
            pred[node_id] = {}
        edges = clone._edges
        for src in nodes:
            for dst, own_pair in self._succ[src].items():
                if dst not in nodes:
                    continue
                pair = None
                for edge_id, edge in own_pair.items():
                    if not isinstance(edge, EdgeLink):
                        continue
                    if pair is None:
                        pair = succ[src][dst] = pred[dst][src] = {}
                    pair[edge_id] = edges[edge_id] = edge.clone()
        return clone

    def placed_nfs(self) -> list[tuple[str, NodeNF]]:
        """``(hosting_infra_id, NF)`` for every bound NF — one pass over
        the edge table instead of a per-infra ``nfs_on`` scan."""
        result: list[tuple[str, NodeNF]] = []
        seen: set[str] = set()
        for edge in self._edges.values():
            if (not isinstance(edge, EdgeLink)
                    or edge.link_type != LinkType.DYNAMIC
                    or edge.src_node in seen):
                continue
            nf = self._nodes.get(edge.src_node)
            if (isinstance(nf, NodeNF)
                    and isinstance(self._nodes.get(edge.dst_node), NodeInfra)):
                seen.add(edge.src_node)
                result.append((edge.dst_node, nf))
        return result

    def clear_flowrules(self) -> None:
        for infra in self.infras:
            for port in infra.ports.values():
                port.clear_flowrules()

    def infra_topology(self) -> nx.MultiDiGraph:
        """Subgraph of infra nodes and static links, as a fresh networkx
        graph for the callers that run graph algorithms on it."""
        import networkx as nx

        topo = nx.MultiDiGraph()
        for infra in self.infras:
            topo.add_node(infra.id, obj=infra)
        for link in self.links:
            if link.src_node in topo and link.dst_node in topo:
                topo.add_edge(link.src_node, link.dst_node, key=link.id,
                              obj=link, delay=link.delay,
                              bandwidth=link.bandwidth)
        return topo

    def connected_infra(self, infra_id: str) -> list[tuple[EdgeLink, NodeInfra]]:
        result = []
        for link in self.out_links(infra_id):
            dst = self.node(link.dst_node)
            if isinstance(dst, NodeInfra):
                result.append((link, dst))
        return result

    def sap_bindings(self) -> dict[str, tuple[str, str]]:
        """Map SAP id -> (infra_id, port_id) via sap-tagged infra ports."""
        bindings: dict[str, tuple[str, str]] = {}
        for infra in self.infras:
            for port in infra.ports.values():
                if port.sap_tag is not None:
                    bindings[port.sap_tag] = (infra.id, port.id)
        return bindings

    def validate(self) -> list[str]:
        """Return a list of structural problems (empty = valid)."""
        problems: list[str] = []
        for edge in self._edges.values():
            for node_id, port_id, role in ((edge.src_node, edge.src_port, "src"),
                                           (edge.dst_node, edge.dst_port, "dst")):
                if node_id not in self._nodes:
                    problems.append(f"edge {edge.id}: {role} node {node_id!r} missing")
                elif not self._nodes[node_id].has_port(port_id):
                    problems.append(
                        f"edge {edge.id}: {role} port {node_id}.{port_id} missing")
        for hop in self.sg_hops:
            for endpoint in (hop.src_node, hop.dst_node):
                node = self._nodes.get(endpoint)
                if node is not None and isinstance(node, NodeInfra):
                    problems.append(f"SG hop {hop.id} touches infra node {endpoint}")
        for req in self.requirements:
            for hop_id in req.sg_path:
                if hop_id not in self._edges:
                    problems.append(f"requirement {req.id}: unknown hop {hop_id!r}")
        for link in self.links:
            if link.reserved - link.bandwidth > 1e-9:
                problems.append(f"link {link.id}: reserved {link.reserved} "
                                f"exceeds capacity {link.bandwidth}")
        return problems

    def is_valid(self) -> bool:
        return not self.validate()

    # -- statistics ------------------------------------------------------

    def summary(self) -> dict[str, int]:
        return {
            "nfs": len(self.nfs),
            "saps": len(self.saps),
            "infras": len(self.infras),
            "static_links": len(self.links),
            "dynamic_links": len(self.dynamic_links),
            "sg_hops": len(self.sg_hops),
            "requirements": len(self.requirements),
            "flowrules": sum(len(p.flowrules) for n in self.infras
                             for p in n.ports.values()),
        }

    def filter_nodes(self, predicate: Callable[[NodeObj], bool]) -> list[NodeObj]:
        return [node for node in self._nodes.values() if predicate(node)]

    def __repr__(self) -> str:
        s = self.summary()
        return (f"<NFFG {self.id}: {s['nfs']} NFs, {s['saps']} SAPs, "
                f"{s['infras']} infras, {s['sg_hops']} hops>")
