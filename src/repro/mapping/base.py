"""Shared machinery of the embedding algorithms.

:class:`ResourceLedger` tracks tentative allocations against a resource
view without mutating it — embedders allocate/release while searching
and only :meth:`MappingContext.commit` materializes the winning solution
into a mapped NFFG copy.  :func:`apply_mapping` is the one writer of a
mapping (NF placements, link reservations, flow rules, carried service
edges) into any graph — the context's copy and the CAL's live DoV both
go through it — and :func:`remove_mapping` its exact inverse.
"""

from __future__ import annotations

import abc
import itertools
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mapping.index import SubstrateIndex
    from repro.mapping.pathcache import PathCache

from repro.perf import counters

from repro.nffg.graph import NFFG
from repro.nffg.model import (
    EdgeLink,
    EdgeSGHop,
    NodeInfra,
    NodeNF,
    ResourceVector,
)


class MappingError(RuntimeError):
    """Raised when a service graph cannot be embedded."""


@dataclass
class HopRoute:
    """The substrate realization of one SG hop."""

    hop_id: str
    #: infra node ids in traversal order (length >= 1)
    infra_path: list[str]
    #: static link ids between consecutive infras (length = len(path)-1)
    link_ids: list[str]
    #: accumulated delay: links + infra internal forwarding
    delay: float
    bandwidth: float


@dataclass
class MappingResult:
    """Outcome of an embedding run.

    Only a direct :meth:`Embedder.map` caller gets the graphs
    (``mapped``, ``touched``); the RO hands everyone else
    :meth:`without_graphs`, the plain record the books, reports and
    journal keep for as long as the service is installed."""

    success: bool
    mapped: Optional[NFFG] = None
    #: the mapped graph restricted to the infras this mapping writes to
    #: (NF hosts + routed BiS-BiSes): what the validator dry-runs flow
    #: rules against, at O(service) instead of O(substrate) cost.  The
    #: RO drops it once that check passed: kept per resident service it
    #: would hold a copy of every infra the service writes to, with
    #: their ports and links
    touched: Optional[NFFG] = None
    #: the (possibly decomposition-expanded) service graph that was mapped
    service: Optional[NFFG] = None
    nf_placement: dict[str, str] = field(default_factory=dict)
    hop_routes: dict[str, HopRoute] = field(default_factory=dict)
    #: which decomposition option was chosen per original NF (if any)
    decompositions: dict[str, str] = field(default_factory=dict)
    cost: float = 0.0
    runtime_s: float = 0.0
    failure_reason: str = ""
    #: search effort metrics
    nodes_examined: int = 0
    backtracks: int = 0
    #: name of the embedder that produced this result
    embedder: str = ""

    def __bool__(self) -> bool:
        return self.success

    def without_graphs(self) -> "MappingResult":
        """This result with placement, routes, decompositions, cost and
        search effort but no graph and no factory: O(service) plain
        data, the same facts a journal record holds."""
        return MappingResult(**{
            f.name: getattr(self, f.name) for f in fields(MappingResult)
            if f.name not in ("mapped", "touched")})


class _LazyMappedResult(MappingResult):
    """A successful result whose full ``mapped`` graph is materialized
    on first access.

    Only direct :meth:`Embedder.map` callers (renderers, virtualizer
    exports, tests) ever see this class, and they get the same graph
    the eager commit used to produce; the O(substrate) copy behind
    ``mapped`` is paid only if they ask.  The factory holds the whole
    mapping context, its resource view included, and reads that view
    when called: materialize promptly, and never keep this result past
    the request — the RO returns :meth:`without_graphs` instead."""

    def __init__(self, *args, **kwargs):
        self._mapped_factory = None
        super().__init__(*args, **kwargs)

    @property
    def mapped(self) -> Optional[NFFG]:
        if self._mapped is None and self._mapped_factory is not None:
            self._mapped = self._mapped_factory()
            self._mapped_factory = None
        return self._mapped

    @mapped.setter
    def mapped(self, value: Optional[NFFG]) -> None:
        self._mapped = value

    def __repr__(self) -> str:  # the dataclass repr would materialize
        return (f"<MappingResult success={self.success} "
                f"nfs={len(self.nf_placement)} hops={len(self.hop_routes)}>")


#: NF metadata keys understood by the placement machinery
CONSTRAINT_DOMAIN = "constraint:domain"          #: DomainType value string
CONSTRAINT_INFRA = "constraint:infra"            #: pin to a specific node
CONSTRAINT_ANTI_AFFINITY = "constraint:anti_affinity"  #: list of NF ids


def placement_allowed(ctx: "MappingContext", nf: NodeNF,
                      infra: NodeInfra) -> bool:
    """Evaluate the NF's placement constraints against a candidate.

    Constraints ride in ``NodeNF.metadata`` (set via the service
    builder's ``domain=``/``pin_to=``/``not_with=`` arguments):

    - ``constraint:domain`` — host must belong to this technology
      domain;
    - ``constraint:infra`` — host must be exactly this node;
    - ``constraint:anti_affinity`` — host must not already hold any of
      the listed NFs (of the same service).
    """
    wanted_domain = nf.metadata.get(CONSTRAINT_DOMAIN)
    if wanted_domain is not None and infra.domain.value != wanted_domain:
        return False
    pinned = nf.metadata.get(CONSTRAINT_INFRA)
    if pinned is not None and infra.id != pinned:
        return False
    rivals = nf.metadata.get(CONSTRAINT_ANTI_AFFINITY, ())
    for rival in rivals:
        if ctx.placement.get(rival) == infra.id:
            return False
    return True


class _CowMap:
    """Copy-on-write overlay over a shared base dict.

    A seeded :class:`ResourceLedger` reads through to the substrate
    index's free maps and keeps its tentative allocations in a small
    private overlay — O(service) memory, O(1) construction, and the
    shared base is never written."""

    __slots__ = ("_base", "_over")

    def __init__(self, base: dict):
        self._base = base
        self._over: dict = {}

    def __getitem__(self, key):
        over = self._over
        if key in over:
            return over[key]
        return self._base[key]

    def get(self, key, default=None):
        over = self._over
        if key in over:
            return over[key]
        return self._base.get(key, default)

    def __setitem__(self, key, value) -> None:
        self._over[key] = value

    def __contains__(self, key) -> bool:
        return key in self._over or key in self._base


class ResourceLedger:
    """Tentative compute + bandwidth accounting over a resource view.

    ``generation`` counts bandwidth-affecting mutations (link alloc /
    release); together with a per-instance sequence number it forms
    ``token``, the staleness tag of path-cache entries computed against
    this ledger state.
    """

    #: atomic under the GIL — ledgers may be built off the orchestrator
    #: thread (dispatcher workers, tests), so no read-modify-write races
    _seq = itertools.count(1)

    def __init__(self, resource: NFFG, seed: Optional[tuple] = None):
        self.resource = resource
        self._instance = next(ResourceLedger._seq)
        self.generation = 0
        if seed is not None:
            # free maps provided by the substrate index: overlay them
            # copy-on-write instead of rescanning the whole view
            free_base, link_base = seed
            self._free = _CowMap(free_base)
            self._link_free = _CowMap(link_base)
            return
        self._free: dict[str, ResourceVector] = {}
        self._link_free: dict[str, float] = {}
        # one pass over the edge table for all placements instead of a
        # per-infra nfs_on scan (a ledger is built for every mapping run)
        consumed: dict[str, ResourceVector] = {}
        for infra_id, nf in resource.placed_nfs():
            total = consumed.get(infra_id)
            consumed[infra_id] = (nf.resources if total is None
                                  else total + nf.resources)
        for infra in resource.infras:
            used = consumed.get(infra.id)
            self._free[infra.id] = (infra.resources if used is None
                                    else infra.resources - used)
        for link in resource.links:
            self._link_free[link.id] = link.available_bandwidth

    @property
    def token(self) -> tuple[int, int]:
        """Globally unique tag of this exact allocation state."""
        return (self._instance, self.generation)

    # -- compute ---------------------------------------------------------

    def free(self, infra_id: str) -> ResourceVector:
        return self._free[infra_id]

    def can_host(self, nf: NodeNF, infra: NodeInfra) -> bool:
        if not infra.supports(nf.functional_type):
            return False
        return nf.resources.fits_within(self._free[infra.id])

    def alloc_nf(self, nf: NodeNF, infra_id: str) -> None:
        free = self._free[infra_id]
        if not nf.resources.fits_within(free):
            raise MappingError(
                f"infra {infra_id!r} cannot host {nf.id!r}: "
                f"need {nf.resources}, free {free}")
        self._free[infra_id] = free - nf.resources

    def release_nf(self, nf: NodeNF, infra_id: str) -> None:
        self._free[infra_id] = self._free[infra_id] + nf.resources

    # -- bandwidth ----------------------------------------------------------

    def link_free(self, link_id: str) -> float:
        return self._link_free[link_id]

    def can_route(self, link: EdgeLink, bandwidth: float) -> bool:
        return self._link_free[link.id] + 1e-9 >= bandwidth

    def can_route_ids(self, link_ids: list[str], bandwidth: float) -> bool:
        """Like :meth:`can_route` but over link *ids* (path-cache entries
        store ids, which stay valid across NFFG copies)."""
        for link_id in link_ids:
            free = self._link_free.get(link_id)
            if free is None or free + 1e-9 < bandwidth:
                return False
        return True

    def alloc_links(self, link_ids: list[str], bandwidth: float) -> None:
        for link_id in link_ids:
            if self._link_free[link_id] + 1e-9 < bandwidth:
                raise MappingError(f"link {link_id!r} lacks bandwidth")
        for link_id in link_ids:
            self._link_free[link_id] -= bandwidth
        if link_ids:
            self.generation += 1

    def release_links(self, link_ids: list[str], bandwidth: float) -> None:
        for link_id in link_ids:
            self._link_free[link_id] += bandwidth
        if link_ids:
            self.generation += 1


def build_sap_attachments(resource: NFFG) -> dict[str, tuple[str, str]]:
    """SAP id -> (infra_id, infra_port_id) attachment map of a view.

    Primary source is sap-tagged infra ports (``sap_bindings``); SAP
    nodes directly linked to an infra are accepted as a fallback.
    """
    attach: dict[str, tuple[str, str]] = dict(resource.sap_bindings())
    for sap in resource.saps:
        if sap.id in attach:
            continue
        for edge in resource.edges_of(sap.id):
            if not isinstance(edge, EdgeLink):
                continue
            other = (edge.dst_node if edge.src_node == sap.id else edge.src_node)
            other_port = (edge.dst_port if edge.src_node == sap.id
                          else edge.src_port)
            node = resource.node(other)
            if isinstance(node, NodeInfra):
                attach[sap.id] = (other, other_port)
                break
    return attach


def install_hop_flowrules(mapped: NFFG, hop: EdgeSGHop, route: HopRoute,
                          in_port: str,
                          out_port_final: str) -> list[tuple[str, str]]:
    """Install one flow rule per traversed BiS-BiS for one SG hop.

    ``in_port`` is the infra-side ingress port on the first infra of the
    route, ``out_port_final`` the egress port on the last.  Returns the
    ``(infra_id, port_id)`` pairs that received a rule.
    """
    touched: list[tuple[str, str]] = []
    path = route.infra_path
    needs_tag = len(path) > 1
    for index, infra_id in enumerate(path):
        infra = mapped.infra(infra_id)
        if index < len(path) - 1:
            link = mapped.edge(route.link_ids[index])
            assert isinstance(link, EdgeLink)
            out_port = link.src_port
        else:
            out_port = out_port_final
        match = f"in_port={in_port}"
        if hop.flowclass:
            match += f";flowclass={hop.flowclass}"
        if needs_tag and index > 0:
            match += f";tag={hop.id}"
        action = f"output={out_port}"
        if needs_tag and index == 0:
            action += f";tag={hop.id}"
        if needs_tag and index == len(path) - 1:
            action += ";untag"
        infra.port(in_port).add_flowrule(
            match=match, action=action, bandwidth=route.bandwidth,
            delay=hop.delay, hop_id=hop.id)
        touched.append((infra_id, in_port))
        if index < len(path) - 1:
            link = mapped.edge(route.link_ids[index])
            assert isinstance(link, EdgeLink)
            in_port = link.dst_port
    return touched


def touched_infra_ids(placement: dict[str, str],
                      routes: dict[str, HopRoute]) -> set[str]:
    """The substrate infras a mapping writes to: NF hosts plus every
    BiS-BiS traversed by a route."""
    ids = set(placement.values())
    for route in routes.values():
        ids.update(route.infra_path)
    return ids


@dataclass
class ServiceDelta:
    """Everything one :func:`apply_mapping` added to a graph (the
    inverse record :func:`remove_mapping` undoes exactly), per NF and hop."""

    #: NF node ids added (removal also drops their dynamic links)
    nf_ids: list[str] = field(default_factory=list)
    #: NF id -> infra-side ports ``place_nf`` created: (infra_id, port_id)
    nf_ports: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    #: SAP nodes this apply introduced (shared SAPs are only removed
    #: once no other service's edges still touch them)
    sap_ids: list[str] = field(default_factory=list)
    #: SG hop + requirement edge ids added
    edge_ids: list[str] = field(default_factory=list)
    #: hop id -> its bandwidth reservation: (link_ids, bandwidth)
    reservations: dict[str, tuple[tuple[str, ...], float]] = field(default_factory=dict)
    #: hop id -> the ports that received its flow rules: (infra_id, port_id)
    flow_ports: dict[str, list[tuple[str, str]]] = field(default_factory=dict)


def apply_mapping(graph: NFFG, service: NFFG, placement: dict[str, str],
                  routes: dict[str, HopRoute],
                  sap_attach: dict[str, tuple[str, str]]) -> ServiceDelta:
    """Write a mapping into ``graph`` in place: NF placements, link
    reservations, one flow rule per hop and traversed BiS-BiS, and the
    service's SAPs, SG hops and requirements (carried for teardown and
    audit).  ``sap_attach`` is the graph's SAP attachment table
    (:func:`build_sap_attachments`, or the substrate index's per-epoch
    copy of it).  Returns the record that undoes exactly this apply."""
    delta = ServiceDelta()
    for nf_id, infra_id in placement.items():
        if not graph.has_node(nf_id):
            graph.add_node_copy(service.nf(nf_id))
            delta.nf_ids.append(nf_id)
        delta.nf_ports[nf_id] = [(link.dst_node, link.dst_port)
                                 for link in graph.place_nf(nf_id, infra_id)]
        graph.nf(nf_id).status = "deployed"
    for hop_id, route in routes.items():
        if route.bandwidth > 1e-9 and route.link_ids:
            for link_id in route.link_ids:
                graph.edge(link_id).reserved += route.bandwidth
            delta.reservations[hop_id] = (tuple(route.link_ids),
                                          route.bandwidth)

    def endpoint_port(node_id: str, port_id: str) -> str:
        """The infra-side port where a service endpoint attaches."""
        if isinstance(service.node(node_id), NodeNF):
            bound = graph.infra_port_of_nf(node_id, port_id)
            if bound is None:
                raise MappingError(
                    f"NF {node_id!r} not bound in {graph.id!r}")
            return bound[1]
        if node_id not in sap_attach:
            raise MappingError(
                f"service SAP {node_id!r} has no attachment point in "
                f"{graph.id!r}")
        return sap_attach[node_id][1]

    for hop in service.sg_hops:
        route = routes.get(hop.id)
        if route is None:
            continue
        delta.flow_ports[hop.id] = install_hop_flowrules(
            graph, hop, route,
            endpoint_port(hop.src_node, hop.src_port),
            endpoint_port(hop.dst_node, hop.dst_port))
    for sap in service.saps:
        if not graph.has_node(sap.id):
            graph.add_node_copy(sap)
            delta.sap_ids.append(sap.id)
    for edge in (*service.sg_hops, *service.requirements):
        if not graph.has_edge(edge.id):
            graph.add_edge_copy(edge)
            delta.edge_ids.append(edge.id)
    return delta


def remove_mapping(graph: NFFG, delta: ServiceDelta) -> None:
    """Undo exactly what :func:`apply_mapping` recorded in ``delta``."""
    for infra_id, port_id in set().union(*delta.flow_ports.values()):
        if not graph.has_node(infra_id):
            continue
        port = graph.infra(infra_id).ports.get(port_id)
        if port is not None:
            port.flowrules = [rule for rule in port.flowrules
                              if rule.hop_id not in delta.flow_ports]
    for link_ids, bandwidth in delta.reservations.values():
        for link_id in link_ids:
            if graph.has_edge(link_id):
                link = graph.edge(link_id)
                link.reserved = max(0.0, link.reserved - bandwidth)
    for edge_id in delta.edge_ids:
        if graph.has_edge(edge_id):
            graph.remove_edge(edge_id)
    for nf_id in delta.nf_ids:
        if graph.has_node(nf_id):
            graph.remove_node(nf_id)  # also drops its dynamic links
    for infra_id, port_id in itertools.chain(*delta.nf_ports.values()):
        if graph.has_node(infra_id):
            graph.infra(infra_id).ports.pop(port_id, None)
    for sap_id in delta.sap_ids:
        if graph.has_node(sap_id) \
                and next(graph.edges_of(sap_id), None) is None:
            graph.remove_node(sap_id)


class MappingContext:
    """Mutable state of one embedding run.

    Holds the service graph, the pristine resource view, a ledger, the
    placements/routes decided so far, and materializes everything into a
    mapped NFFG on :meth:`commit`.
    """

    def __init__(self, service: NFFG, resource: NFFG,
                 path_cache: Optional["PathCache"] = None,
                 index: Optional["SubstrateIndex"] = None):
        self.service = service
        self.resource = resource
        if index is not None and not index.covers(resource):
            # offered an index built over a different view object (a
            # copy, or a stale one): fall back to the full rescan path
            counters.incr("mapping.index.skip")
            index = None
        self.index = index
        self.path_cache = path_cache
        self.placement: dict[str, str] = {}
        self.routes: dict[str, HopRoute] = {}
        self.decompositions: dict[str, str] = {}
        self.nodes_examined = 0
        self.backtracks = 0
        self._sg_hops: Optional[list[EdgeSGHop]] = None
        self._hops_in: Optional[dict[str, list[EdgeSGHop]]] = None
        self._hops_out: Optional[dict[str, list[EdgeSGHop]]] = None
        if index is not None:
            counters.incr("mapping.index.hit")
            self.ledger = ResourceLedger(resource, seed=index.ledger_seed())
            self._sap_attach = index.sap_attachments()
            self._adjacency = index.adjacency()
            self._node_delays = index.node_delays()
            # topology-only Dijkstra memo shared across runs
            self._delay_from = index.delay_memo
        else:
            self.ledger = ResourceLedger(resource)
            self._sap_attach = build_sap_attachments(resource)
            self._adjacency: Optional[dict[str, list[EdgeLink]]] = None
            self._node_delays: Optional[dict[str, float]] = None
            self._delay_from: dict[str, dict[str, float]] = {}

    # -- service-graph hop index (built once per run) ---------------------

    def sg_hop_list(self) -> list[EdgeSGHop]:
        """The service's SG hops as a cached list (the ``sg_hops``
        property rebuilds it on every access)."""
        if self._sg_hops is None:
            self._sg_hops = list(self.service.sg_hops)
        return self._sg_hops

    def _build_hop_index(self) -> None:
        hops_in: dict[str, list[EdgeSGHop]] = {}
        hops_out: dict[str, list[EdgeSGHop]] = {}
        for hop in self.sg_hop_list():
            hops_out.setdefault(hop.src_node, []).append(hop)
            hops_in.setdefault(hop.dst_node, []).append(hop)
        self._hops_in = hops_in
        self._hops_out = hops_out

    def in_hops(self, node_id: str) -> list[EdgeSGHop]:
        """SG hops entering a service node (indexed once per run)."""
        if self._hops_in is None:
            self._build_hop_index()
        return self._hops_in.get(node_id, [])

    def out_hops(self, node_id: str) -> list[EdgeSGHop]:
        """SG hops leaving a service node (indexed once per run)."""
        if self._hops_out is None:
            self._build_hop_index()
        return self._hops_out.get(node_id, [])

    def hops_touching(self, node_id: str) -> list[EdgeSGHop]:
        """SG hops with this service node as either endpoint."""
        return self.in_hops(node_id) + self.out_hops(node_id)

    # -- candidate selection (index-backed front door) --------------------

    def candidates(self, nf: NodeNF, k: Optional[int] = None, *,
                   anchor: Optional[str] = None) -> list[str]:
        """Candidate host ids for an NF.

        With a substrate index attached this is a pruned top-K query
        (capacity buckets + anchor neighbourhood); without one it
        returns every infra id, preserving the full-scan behaviour.
        A pinned NF always resolves to exactly its pinned host."""
        pinned = nf.metadata.get(CONSTRAINT_INFRA)
        if pinned is not None:
            if (self.resource.has_node(pinned)
                    and isinstance(self.resource.node(pinned), NodeInfra)):
                return [pinned]
            return []
        if self.index is not None:
            return self.index.candidate_ids(
                nf.functional_type,
                domain=nf.metadata.get(CONSTRAINT_DOMAIN),
                k=k, min_cpu=nf.resources.cpu, near=anchor)
        return [infra.id for infra in self.resource.infras]

    # -- cached topology helpers (hot path of every embedder) -----------

    def adjacency(self) -> dict[str, list[EdgeLink]]:
        """Static infra-infra adjacency of the resource view (cached —
        topology does not change during one mapping run)."""
        if self._adjacency is None:
            from repro.mapping.paths import build_infra_adjacency
            self._adjacency = build_infra_adjacency(self.resource)
        return self._adjacency

    def node_delays(self) -> dict[str, float]:
        if self._node_delays is None:
            from repro.mapping.paths import build_node_delays
            self._node_delays = build_node_delays(self.resource)
        return self._node_delays

    # -- routing (path-cache-aware front door for embedders) -------------

    def find_route(self, hop_id: str, src_infra: str, dst_infra: str,
                   bandwidth: float,
                   max_delay: float = float("inf")) -> HopRoute:
        """Route one hop, through the shared path cache when one is
        attached; raises :class:`MappingError` when infeasible."""
        if self.path_cache is not None:
            return self.path_cache.find_route(
                self, hop_id, src_infra, dst_infra, bandwidth, max_delay)
        from repro.mapping.paths import find_route
        return find_route(self.resource, self.ledger, hop_id, src_infra,
                          dst_infra, bandwidth, max_delay,
                          adjacency=self.adjacency(),
                          node_delay=self.node_delays())

    def route_or_none(self, hop_id: str, src_infra: str, dst_infra: str,
                      bandwidth: float,
                      max_delay: float = float("inf")) -> Optional[HopRoute]:
        try:
            return self.find_route(hop_id, src_infra, dst_infra,
                                   bandwidth, max_delay)
        except MappingError:
            return None

    def delay_estimate(self, src_infra: str, dst_infra: str) -> float:
        """Unconstrained shortest-path delay between two infras, with
        per-source caching (used as heuristic guidance only)."""
        cached = self._delay_from.get(src_infra)
        if cached is None:
            cached = self._single_source_delays(src_infra)
            self._delay_from[src_infra] = cached
        return cached.get(dst_infra, float("inf"))

    def _single_source_delays(self, source: str) -> dict[str, float]:
        import heapq

        node_delay = self.node_delays()
        adjacency = self.adjacency()
        best = {source: node_delay.get(source, 0.0)}
        heap = [(best[source], source)]
        visited: set[str] = set()
        while heap:
            delay, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for link in adjacency.get(node, ()):
                neighbour = link.dst_node
                candidate = delay + link.delay + node_delay.get(neighbour, 0.0)
                if candidate < best.get(neighbour, float("inf")) - 1e-12:
                    best[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))
        return best

    # -- sap handling -----------------------------------------------------

    def sap_attachment(self, sap_id: str) -> tuple[str, str]:
        try:
            return self._sap_attach[sap_id]
        except KeyError:
            raise MappingError(
                f"service SAP {sap_id!r} has no attachment point in "
                f"resource view {self.resource.id!r}") from None

    # -- endpoint resolution ------------------------------------------------

    def endpoint_infra(self, node_id: str) -> Optional[str]:
        """Infra hosting a service-graph endpoint (SAP or placed NF)."""
        node = self.service.node(node_id)
        if isinstance(node, NodeNF):
            return self.placement.get(node_id)
        return self.sap_attachment(node_id)[0]

    # -- placement / routing records -----------------------------------------

    def place(self, nf_id: str, infra_id: str) -> None:
        nf = self.service.nf(nf_id)
        self.ledger.alloc_nf(nf, infra_id)
        self.placement[nf_id] = infra_id

    def unplace(self, nf_id: str) -> None:
        infra_id = self.placement.pop(nf_id)
        self.ledger.release_nf(self.service.nf(nf_id), infra_id)

    def record_route(self, route: HopRoute) -> None:
        self.ledger.alloc_links(route.link_ids, route.bandwidth)
        self.routes[route.hop_id] = route

    def drop_route(self, hop_id: str) -> None:
        route = self.routes.pop(hop_id)
        self.ledger.release_links(route.link_ids, route.bandwidth)

    # -- requirement checking ---------------------------------------------------

    def requirement_violations(self) -> list[str]:
        """Check every requirement edge against the recorded routes."""
        problems: list[str] = []
        for req in self.service.requirements:
            total_delay = 0.0
            incomplete = False
            for hop_id in req.sg_path:
                route = self.routes.get(hop_id)
                if route is None:
                    incomplete = True
                    break
                total_delay += route.delay
            if incomplete:
                continue
            if total_delay > req.max_delay + 1e-9:
                problems.append(
                    f"requirement {req.id}: delay {total_delay:.3f} > "
                    f"max {req.max_delay:.3f}")
        return problems

    def partial_delay(self, req_sg_path: list[str]) -> float:
        return sum(self.routes[h].delay for h in req_sg_path if h in self.routes)

    # -- solution materialization --------------------------------------------------

    def total_cost(self) -> float:
        """Cost = weighted CPU placement cost + bandwidth-hops."""
        cost = 0.0
        for nf_id, infra_id in self.placement.items():
            nf = self.service.nf(nf_id)
            infra = self.resource.infra(infra_id)
            cost += nf.resources.cpu * infra.cost_per_cpu
        for route in self.routes.values():
            cost += route.bandwidth * len(route.link_ids) * 0.01
        return cost

    def commit(self, mapped_id: Optional[str] = None, *,
               touched_only: bool = False) -> NFFG:
        """Write placements, reservations and flow rules into a copy of
        the resource view and return it.

        With ``touched_only`` the copy is restricted to the infras the
        mapping actually writes to (O(service), not O(substrate)) — the
        validator checks flow rules against it, and the full mapped
        graph is only materialized if someone asks for it."""
        if touched_only:
            mapped = self.resource.copy_subgraph(
                mapped_id or f"{self.resource.id}-mapped",
                touched_infra_ids(self.placement, self.routes))
        else:
            mapped = self.resource.copy(
                mapped_id or f"{self.resource.id}-mapped")
        apply_mapping(mapped, self.service, self.placement, self.routes,
                      self._sap_attach)
        return mapped

    def to_result(self, success: bool, runtime_s: float,
                  failure_reason: str = "",
                  mapped_id: Optional[str] = None) -> MappingResult:
        if not success:
            return MappingResult(success=False, failure_reason=failure_reason,
                                 runtime_s=runtime_s, service=self.service,
                                 nodes_examined=self.nodes_examined,
                                 backtracks=self.backtracks)
        result = _LazyMappedResult(
            success=True, service=self.service,
            touched=self.commit(mapped_id, touched_only=True),
            nf_placement=dict(self.placement),
            hop_routes=dict(self.routes), decompositions=dict(self.decompositions),
            cost=self.total_cost(), runtime_s=runtime_s,
            nodes_examined=self.nodes_examined, backtracks=self.backtracks)
        result._mapped_factory = lambda: self.commit(mapped_id)
        return result


class Embedder(abc.ABC):
    """Base class of pluggable embedding algorithms."""

    name: str = "abstract"

    @abc.abstractmethod
    def _run(self, ctx: MappingContext) -> None:
        """Fill ``ctx.placement`` and ``ctx.routes`` or raise MappingError."""

    def map(self, service: NFFG, resource: NFFG,
            mapped_id: Optional[str] = None,
            path_cache: Optional["PathCache"] = None,
            index: Optional["SubstrateIndex"] = None) -> MappingResult:
        """Embed ``service`` into ``resource``; never raises on mapping
        failure — inspect :attr:`MappingResult.success`.  ``path_cache``
        (shared across requests by the orchestrator) memoizes substrate
        path searches; ``index`` (the CAL's :class:`SubstrateIndex`)
        seeds the run's ledger and candidate sets when it covers
        ``resource``."""
        result = self._map(service, resource, mapped_id=mapped_id,
                           path_cache=path_cache, index=index)
        result.embedder = self.name
        return result

    def _map(self, service: NFFG, resource: NFFG,
             mapped_id: Optional[str],
             path_cache: Optional["PathCache"],
             index: Optional["SubstrateIndex"]) -> MappingResult:
        started = time.perf_counter()
        ctx = MappingContext(service, resource, path_cache=path_cache,
                             index=index)
        try:
            self._run(ctx)
            violations = ctx.requirement_violations()
            if violations:
                raise MappingError("; ".join(violations))
        except MappingError as exc:
            return ctx.to_result(False, time.perf_counter() - started,
                                 failure_reason=str(exc))
        except ValueError as exc:  # NFFGError and port/graph conflicts
            return ctx.to_result(False, time.perf_counter() - started,
                                 failure_reason=f"graph error: {exc}")
        try:
            return ctx.to_result(True, time.perf_counter() - started,
                                 mapped_id=mapped_id)
        except ValueError as exc:
            # materialization can still fail (e.g. port-name conflicts
            # with foreign state in the resource view)
            return MappingResult(
                success=False, service=ctx.service,
                failure_reason=f"commit error: {exc}",
                runtime_s=time.perf_counter() - started,
                nodes_examined=ctx.nodes_examined,
                backtracks=ctx.backtracks)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
