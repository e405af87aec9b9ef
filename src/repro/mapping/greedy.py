"""Greedy chain-order embedder.

Walks the service graph from its SAPs in topological (chain) order and
places each NF on the feasible BiS-BiS that minimizes a local score
(placement cost + delay detour from the previous element), routing each
SG hop as soon as both endpoints are fixed.  Fast, no backtracking —
the default ESCAPE-style baseline.

With a :class:`~repro.mapping.index.SubstrateIndex` attached to the
context the per-NF host scan runs over a pruned candidate set instead
of the whole substrate; when the pruned set yields no feasible host the
scan widens to the full supporting set, so pruning never costs
acceptance.

Scarce NF types are protected (the AccaSim "balanced" dispatcher): a
host that supports a scarce type other than the NF's own is a second
candidate tier, taken only when no other candidate is feasible, so a
firewall never burns the last DPI-capable box while plain boxes sit
idle.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.mapping.base import (Embedder, MappingContext, MappingError,
                                MappingResult, placement_allowed)
from repro.nffg.graph import NFFG
from repro.nffg.model import InfraType, NodeNF
from repro.perf import counters

#: a functional type is scarce when its supporters (explicit plus
#: wildcard hosts) number at most this share of the NF-capable hosts
SCARCE_RATIO = 0.25


def service_order(service: NFFG) -> list[str]:
    """NF ids in chain-traversal order starting from SAP-adjacent hops.

    Falls back to insertion order for NFs unreachable from any SAP
    (isolated fragments still get mapped).
    """
    out_hops: dict[str, list] = {}
    for hop in service.sg_hops:
        out_hops.setdefault(hop.src_node, []).append(hop)
    order: list[str] = []
    seen: set[str] = set()
    frontier: deque[str] = deque(sap.id for sap in service.saps)
    visited_nodes: set[str] = set(frontier)
    while frontier:
        current = frontier.popleft()
        for hop in out_hops.get(current, ()):
            dst = hop.dst_node
            if dst in visited_nodes:
                continue
            visited_nodes.add(dst)
            node = service.node(dst)
            if isinstance(node, NodeNF) and dst not in seen:
                seen.add(dst)
                order.append(dst)
            frontier.append(dst)
    for nf in service.nfs:
        if nf.id not in seen:
            order.append(nf.id)
    return order


def scarce_specialists(resource: NFFG) -> dict[str, frozenset[str]]:
    """Infra id -> the scarce functional types it supports, for every
    NF-capable infra that supports one (empty when nothing is scarce).

    A type is scarce when its explicit supporters plus the wildcard
    hosts number at most ``SCARCE_RATIO`` of the NF-capable hosts."""
    supporters: dict[str, int] = {}
    hosts = wildcard = 0
    for infra in resource.infras:
        if infra.infra_type == InfraType.SDN_SWITCH:
            continue
        hosts += 1
        if not infra.supported_types:
            wildcard += 1
        for functional_type in infra.supported_types:
            supporters[functional_type] = \
                supporters.get(functional_type, 0) + 1
    scarce = frozenset(
        functional_type for functional_type, count in supporters.items()
        if count + wildcard <= SCARCE_RATIO * hosts)
    if not scarce:
        return {}
    return {infra.id: scarce.intersection(infra.supported_types)
            for infra in resource.infras
            if infra.infra_type != InfraType.SDN_SWITCH
            and not scarce.isdisjoint(infra.supported_types)}


def hop_delay_budget(service: NFFG, ctx: MappingContext, hop_id: str) -> float:
    """Remaining delay budget for a hop from its tightest requirement."""
    budget = float("inf")
    for req in service.requirements:
        if hop_id not in req.sg_path or req.max_delay == float("inf"):
            continue
        spent = ctx.partial_delay(req.sg_path)
        remaining_hops = sum(1 for h in req.sg_path if h not in ctx.routes)
        slack = req.max_delay - spent
        if remaining_hops > 0:
            budget = min(budget, slack)
    hop = service.edge(hop_id)
    if getattr(hop, "delay", 0.0):
        budget = min(budget, hop.delay)
    return budget


def anchor_infra(ctx: MappingContext, nf_id: str) -> Optional[str]:
    """Infra of the closest already-resolved neighbour in the SG."""
    for hop in ctx.in_hops(nf_id):
        infra = ctx.endpoint_infra(hop.src_node)
        if infra is not None:
            return infra
    for hop in ctx.out_hops(nf_id):
        infra = ctx.endpoint_infra(hop.dst_node)
        if infra is not None:
            return infra
    return None


def route_ready_hops(ctx: MappingContext, routed: set[str],
                     around: Optional[str] = None) -> None:
    """Route every not-yet-routed hop whose endpoints are resolved.

    A hop only becomes ready when its last unresolved endpoint is
    placed, so after placing one NF only the hops touching it
    (``around``) need checking — O(degree), not O(hops)."""
    hops = ctx.hops_touching(around) if around is not None \
        else ctx.sg_hop_list()
    for hop in hops:
        if hop.id in routed:
            continue
        src = ctx.endpoint_infra(hop.src_node)
        dst = ctx.endpoint_infra(hop.dst_node)
        if src is None or dst is None:
            continue
        budget = hop_delay_budget(ctx.service, ctx, hop.id)
        route = ctx.find_route(hop.id, src, dst,
                               bandwidth=hop.bandwidth, max_delay=budget)
        ctx.record_route(route)
        routed.add(hop.id)


def route_remaining_hops(ctx: MappingContext, routed: set[str]) -> None:
    """Route every hop not in ``routed``, or raise: all NFs are placed."""
    route_ready_hops(ctx, routed)
    unrouted = [hop.id for hop in ctx.sg_hop_list() if hop.id not in routed]
    if unrouted:
        raise MappingError(f"unrouted SG hops: {unrouted}")


class RerouteEmbedder(Embedder):
    """Repairs ``kept``: its placements (a gone host fails the run) and
    the routes the view still holds stay, the other hops are routed
    with greedy's delay budgets.  Examines no host."""

    name = "reroute"

    def __init__(self, kept: MappingResult):
        self.kept = kept

    def _run(self, ctx: MappingContext) -> None:
        resource, kept = ctx.resource, self.kept
        if not all(map(resource.has_node, kept.nf_placement.values())):
            raise MappingError("an NF host of the kept mapping is gone")
        for nf_id, infra_id in kept.nf_placement.items():
            ctx.place(nf_id, infra_id)
        ctx.decompositions.update(kept.decompositions)
        routes = {hop_id: route for hop_id, route in kept.hop_routes.items()
                  if all(map(resource.has_node, route.infra_path))
                  and all(map(resource.has_edge, route.link_ids))}
        for route in routes.values():
            ctx.record_route(route)
        route_remaining_hops(ctx, set(routes))


class GreedyEmbedder(Embedder):
    """Place NFs chain-first on locally cheapest feasible hosts."""

    name = "greedy"
    delay_weight = 1.0
    cost_weight = 1.0
    #: pruned candidate-set size per NF when an index is attached
    candidate_k = 32

    def _run(self, ctx: MappingContext) -> None:
        service = ctx.service
        specialists = (ctx.index.scarce_specialists()
                       if ctx.index is not None
                       else scarce_specialists(ctx.resource))
        routed: set[str] = set()
        for nf_id in service_order(service):
            nf = service.nf(nf_id)
            anchor = anchor_infra(ctx, nf_id)
            pruned = ctx.candidates(nf, self.candidate_k, anchor=anchor)
            best_host = self._best_host(ctx, nf, anchor, pruned, specialists)
            if best_host is None and ctx.index is not None:
                # pruned set infeasible: widen to the full supporting set
                counters.incr("mapping.index.fallback")
                best_host = self._best_host(ctx, nf, anchor,
                                            ctx.candidates(nf), specialists)
            if best_host is None:
                raise MappingError(
                    f"no feasible host for NF {nf_id!r} "
                    f"(type {nf.functional_type!r})")
            ctx.place(nf_id, best_host)
            route_ready_hops(ctx, routed, around=nf_id)
        route_remaining_hops(ctx, routed)

    def _best_host(self, ctx: MappingContext, nf: NodeNF,
                   anchor: Optional[str], candidate_ids: list[str],
                   specialists: dict[str, frozenset[str]]) -> Optional[str]:
        """The cheapest feasible candidate, hosts that would burn a
        scarce type other than ``nf``'s own taken only when no other
        candidate is feasible."""
        if not specialists:
            return self._cheapest(ctx, nf, anchor, candidate_ids)
        own = {nf.functional_type}
        spare: list[str] = []
        burning: list[str] = []
        for infra_id in candidate_ids:
            if specialists.get(infra_id, own) - own:
                burning.append(infra_id)
            else:
                spare.append(infra_id)
        return (self._cheapest(ctx, nf, anchor, spare)
                or self._cheapest(ctx, nf, anchor, burning))

    def _cheapest(self, ctx: MappingContext, nf: NodeNF,
                  anchor: Optional[str],
                  candidate_ids: list[str]) -> Optional[str]:
        resource = ctx.resource
        best_host = None
        best_score = float("inf")
        for infra_id in candidate_ids:
            infra = resource.infra(infra_id)
            ctx.nodes_examined += 1
            if not ctx.ledger.can_host(nf, infra):
                continue
            if not placement_allowed(ctx, nf, infra):
                continue
            score = self.cost_weight * nf.resources.cpu * infra.cost_per_cpu
            if anchor is not None:
                detour = ctx.delay_estimate(anchor, infra.id)
                if detour == float("inf"):
                    continue
                score += self.delay_weight * detour
            if score < best_score:
                best_score = score
                best_host = infra.id
        return best_host
