"""Independent validation of a mapping result.

Used by tests, property-based checks and the orchestrator's "verify
before deploy" step: re-derives every constraint from scratch instead of
trusting the embedder's own bookkeeping.

Violations are reported as structured
:class:`~repro.lint.diagnostics.Diagnostic` objects (rule ids ``MP0xx``,
category ``mapping``) so they compose with the static-analysis
subsystem; :meth:`~repro.lint.diagnostics.DiagnosticList.as_strings`
recovers the bare messages for callers that only want text.
"""

from __future__ import annotations

from typing import Optional

from repro.lint.diagnostics import Diagnostic, DiagnosticList, Severity
from repro.mapping.base import MappingResult
from repro.nffg.graph import NFFG
from repro.nffg.model import EdgeLink, NodeInfra, ResourceVector

#: rule ids of the post-mapping validator
MP_FAILED = "MP001"          #: embedder itself reported failure
MP_PLACEMENT = "MP010"       #: NF placement missing/invalid/constrained
MP_CAPACITY = "MP020"        #: infra capacity overcommitted
MP_ROUTE = "MP030"           #: hop route missing or disconnected
MP_BANDWIDTH = "MP040"       #: link bandwidth oversubscribed
MP_REQUIREMENT = "MP050"     #: end-to-end delay requirement violated
MP_FLOWRULES = "MP060"       #: installed flow rules inconsistent


def _diag(rule_id: str, message: str, *, node: Optional[str] = None,
          edge: Optional[str] = None) -> Diagnostic:
    return Diagnostic(rule_id=rule_id, severity=Severity.ERROR,
                      category="mapping", message=message,
                      node=node, edge=edge)


def validate_mapping(service: NFFG, resource: NFFG,
                     result: MappingResult) -> DiagnosticList:
    """Return the violations of a mapping (empty = mapping is sound)."""
    if not result.success:
        return DiagnosticList([_diag(
            MP_FAILED, f"mapping failed: {result.failure_reason}")])
    problems = DiagnosticList()
    problems += _check_placements(service, resource, result)
    problems += _check_capacities(service, resource, result)
    problems += _check_routes(service, resource, result)
    problems += _check_bandwidth(service, resource, result)
    problems += _check_requirements(service, result)
    problems += _check_flowrules(service, result)
    return problems


def _check_placements(service: NFFG, resource: NFFG,
                      result: MappingResult) -> list[Diagnostic]:
    problems = []
    for nf in service.nfs:
        host = result.nf_placement.get(nf.id)
        if host is None:
            problems.append(_diag(MP_PLACEMENT, f"NF {nf.id!r} unplaced",
                                  node=nf.id))
            continue
        if not resource.has_node(host):
            problems.append(_diag(
                MP_PLACEMENT,
                f"NF {nf.id!r} placed on unknown infra {host!r}",
                node=nf.id))
            continue
        infra = resource.infra(host)
        if not infra.supports(nf.functional_type):
            problems.append(_diag(
                MP_PLACEMENT,
                f"NF {nf.id!r} ({nf.functional_type}) on unsupporting "
                f"infra {host!r}", node=nf.id))
        wanted_domain = nf.metadata.get("constraint:domain")
        if wanted_domain is not None and infra.domain.value != wanted_domain:
            problems.append(_diag(
                MP_PLACEMENT,
                f"NF {nf.id!r}: domain constraint {wanted_domain!r} "
                f"violated by host {host!r} ({infra.domain.value})",
                node=nf.id))
        pinned = nf.metadata.get("constraint:infra")
        if pinned is not None and host != pinned:
            problems.append(_diag(
                MP_PLACEMENT,
                f"NF {nf.id!r}: pinned to {pinned!r}, placed on {host!r}",
                node=nf.id))
        for rival in nf.metadata.get("constraint:anti_affinity", ()):
            if result.nf_placement.get(rival) == host:
                problems.append(_diag(
                    MP_PLACEMENT,
                    f"NF {nf.id!r}: anti-affinity with {rival!r} violated "
                    f"on {host!r}", node=nf.id))
    for nf_id in result.nf_placement:
        if not service.has_node(nf_id):
            problems.append(_diag(
                MP_PLACEMENT,
                f"placement contains non-service NF {nf_id!r}",
                node=nf_id))
    return problems


def _check_capacities(service: NFFG, resource: NFFG,
                      result: MappingResult) -> list[Diagnostic]:
    problems = []
    demand: dict[str, ResourceVector] = {}
    for nf_id, host in result.nf_placement.items():
        if not service.has_node(nf_id) or not resource.has_node(host):
            continue
        nf = service.nf(nf_id)
        demand[host] = demand.get(host, ResourceVector()) + nf.resources
    from repro.nffg.ops import available_resources
    for host, total in demand.items():
        free = available_resources(resource, host)
        if not total.fits_within(free):
            problems.append(_diag(
                MP_CAPACITY,
                f"infra {host!r} over-committed: demand {total}, free {free}",
                node=host))
    return problems


def _check_routes(service: NFFG, resource: NFFG,
                  result: MappingResult) -> list[Diagnostic]:
    problems = []
    # a SAP resolves through its own link; the scan of every port of the
    # view is for SAPs the view holds no (linked) node of, once for all
    bindings = (resource.sap_bindings() if any(
        _linked_infra(resource, sap.id) is None for sap in service.saps)
        else {})
    for hop in service.sg_hops:
        route = result.hop_routes.get(hop.id)
        if route is None:
            problems.append(_diag(MP_ROUTE, f"hop {hop.id!r} unrouted",
                                  edge=hop.id))
            continue
        expected_src = _endpoint_infra(service, resource, result, bindings,
                                       hop.src_node)
        expected_dst = _endpoint_infra(service, resource, result, bindings,
                                       hop.dst_node)
        if expected_src is not None and route.infra_path[0] != expected_src:
            problems.append(_diag(
                MP_ROUTE,
                f"hop {hop.id!r}: path starts at {route.infra_path[0]!r}, "
                f"endpoint on {expected_src!r}", edge=hop.id))
        if expected_dst is not None and route.infra_path[-1] != expected_dst:
            problems.append(_diag(
                MP_ROUTE,
                f"hop {hop.id!r}: path ends at {route.infra_path[-1]!r}, "
                f"endpoint on {expected_dst!r}", edge=hop.id))
        # link ids must form a connected chain along infra_path
        for index, link_id in enumerate(route.link_ids):
            if not resource.has_edge(link_id):
                problems.append(_diag(
                    MP_ROUTE, f"hop {hop.id!r}: unknown link {link_id!r}",
                    edge=hop.id))
                continue
            link = resource.edge(link_id)
            assert isinstance(link, EdgeLink)
            if (link.src_node != route.infra_path[index]
                    or link.dst_node != route.infra_path[index + 1]):
                problems.append(_diag(
                    MP_ROUTE,
                    f"hop {hop.id!r}: link {link_id!r} does not connect "
                    f"{route.infra_path[index]!r}->"
                    f"{route.infra_path[index + 1]!r}", edge=hop.id))
    return problems


def _check_bandwidth(service: NFFG, resource: NFFG,
                     result: MappingResult) -> list[Diagnostic]:
    problems = []
    load: dict[str, float] = {}
    for route in result.hop_routes.values():
        for link_id in route.link_ids:
            load[link_id] = load.get(link_id, 0.0) + route.bandwidth
    for link_id, used in load.items():
        if not resource.has_edge(link_id):
            continue
        link = resource.edge(link_id)
        assert isinstance(link, EdgeLink)
        if used - link.available_bandwidth > 1e-9:
            problems.append(_diag(
                MP_BANDWIDTH,
                f"link {link_id!r} over-subscribed: {used} of "
                f"{link.available_bandwidth} Mbps free", edge=link_id))
    return problems


def _check_requirements(service: NFFG,
                        result: MappingResult) -> list[Diagnostic]:
    problems = []
    for req in service.requirements:
        total = 0.0
        complete = True
        for hop_id in req.sg_path:
            route = result.hop_routes.get(hop_id)
            if route is None:
                complete = False
                break
            total += route.delay
        if complete and total > req.max_delay + 1e-9:
            problems.append(_diag(
                MP_REQUIREMENT,
                f"requirement {req.id!r}: delay {total:.3f} > "
                f"{req.max_delay:.3f}", edge=req.id))
    return problems


def _check_flowrules(service: NFFG,
                     result: MappingResult) -> list[Diagnostic]:
    """Every routed hop must have one flow rule per traversed BiS-BiS."""
    problems = []
    # the touched-subgraph commit carries every installed flow rule
    # (rules only land on touched infras) at O(service) size; fall
    # back to the full mapped graph for hand-built results
    mapped = result.touched if result.touched is not None else result.mapped
    if mapped is None:
        return [_diag(MP_FLOWRULES, "mapped NFFG missing")]
    rules_per_hop: dict[str, int] = {}
    for infra in mapped.infras:
        for _, flowrule in infra.iter_flowrules():
            if flowrule.hop_id:
                rules_per_hop[flowrule.hop_id] = \
                    rules_per_hop.get(flowrule.hop_id, 0) + 1
    for hop in service.sg_hops:
        route = result.hop_routes.get(hop.id)
        if route is None:
            continue
        expected = len(route.infra_path)
        actual = rules_per_hop.get(hop.id, 0)
        if actual != expected:
            problems.append(_diag(
                MP_FLOWRULES,
                f"hop {hop.id!r}: {actual} flow rules installed, "
                f"expected {expected}", edge=hop.id))
    return problems


def _endpoint_infra(service: NFFG, resource: NFFG, result: MappingResult,
                    bindings: dict[str, tuple[str, str]], node_id: str):
    node = service.node(node_id)
    if node.type.value == "NF":
        return result.nf_placement.get(node_id)
    if node_id in bindings:
        return bindings[node_id][0]
    return _linked_infra(resource, node_id)


def _linked_infra(resource: NFFG, node_id: str):
    for edge in resource.edges_of(node_id):
        if isinstance(edge, EdgeLink):
            other = edge.dst_node if edge.src_node == node_id else edge.src_node
            if resource.has_node(other) and isinstance(resource.node(other), NodeInfra):
                return other
    return None
