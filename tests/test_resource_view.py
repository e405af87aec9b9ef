"""The CAL keeps one ledger: the live DoV plus the substrate index.

Embedders map against ``cal.resource_view()`` — the live DoV, whose
deployed NFs, their links and the carried SG hops path search never
reaches — with free capacity read from the CAL's index.  Northbound
callers get a private view built on demand from the pristine stitch and
the index.  Two things must hold for that to be one ledger and not a
new behaviour:

- mapping a request against the live DoV and the CAL's index gives the
  same placement, routes, cost and search effort as mapping it against
  the northbound copy with a fresh index synced to that copy;
- the northbound view ``resource_view_without(ids)`` states the same
  facts as a reference built without the index: every other service
  replayed from scratch onto a pristine stitch, then netted out by
  ``remaining_nffg``.
"""

import pytest

from repro.emu import EmulatedDomain
from repro.mapping.base import apply_mapping, build_sap_attachments
from repro.mapping.index import SubstrateIndex
from repro.mapping.pathcache import PathCache
from repro.netem import Network
from repro.nffg.ops import nffg_facts, remaining_nffg
from repro.orchestration import EmuDomainAdapter, EscapeOrchestrator
from repro.orchestration import UnifyAgent, UnifyDomainAdapter
from repro.orchestration.cal import _differences

from tests.test_cyclic_garbage import chain
from tests.test_resident_retention import Federation, Fig1

NF_TYPES = ("firewall", "nat")


def _probe(prefix: str, src: str = "sap1", dst: str = "sap2"):
    return chain(prefix, src, dst, NF_TYPES, bandwidth=1.0, tp_dst=20000).sg


def _fig1():
    built = Fig1()
    for index in range(3):
        built.deploy(index)
    yield built.escape, _probe("probe")


def _federation():
    built = Federation()
    for index in range(4):
        built.deploy(index)
    yield built.escape, Federation.request(4)


def _emu_ring(switches: int):
    network = Network()
    ids = [f"ring-bb{i}" for i in range(switches)]
    links = [(ids[i], ids[(i + 1) % switches]) for i in range(switches)]
    domain = EmulatedDomain("emu", network, node_ids=ids, links=links)
    domain.add_sap("sap1", ids[0])
    domain.add_sap("sap2", ids[switches // 2])
    return network, links, domain


def _unify_stack():
    """Two orchestrator levels joined by a Unify agent."""
    network, _, domain = _emu_ring(3)
    child = EscapeOrchestrator("level0", simulator=network.simulator)
    child.add_domain(EmuDomainAdapter("emu", domain))
    top = EscapeOrchestrator("level1", simulator=network.simulator)
    top.add_domain(UnifyDomainAdapter("level0-dom", UnifyAgent(child)))
    for index in range(3):
        report = top.deploy(chain(f"uni{index}", "sap1", "sap2", NF_TYPES,
                                  bandwidth=1.0, tp_dst=10000 + index).sg)
        assert report.success, report.error
    yield top, _probe("probe")
    yield child, _probe("probe-child")


def _heal_ring():
    """HEAL-1's ring: 12 resident chains, a link of one arc failed and
    healed around, then restored."""
    network, links, domain = _emu_ring(6)
    escape = EscapeOrchestrator("ring", simulator=network.simulator)
    escape.add_domain(EmuDomainAdapter("emu", domain))
    for index in range(12):
        src, dst = ("sap2", "sap1") if index % 2 else ("sap1", "sap2")
        assert escape.deploy(chain(f"day{index}", src, dst, ("firewall",),
                                   bandwidth=2.0,
                                   tp_dst=10000 + index).sg).success
    network.fail_link(*links[1])
    healed = escape.heal()
    assert healed and all(report.success for report in healed.values())
    yield escape, _probe("probe")
    network.restore_link(*links[1])
    assert escape.heal() == {}
    yield escape, _probe("probe")


SCENARIOS = {"fig1": _fig1, "federation": _federation,
             "unify_stack2": _unify_stack, "heal_ring": _heal_ring}


def _mapped(escape: EscapeOrchestrator, request, view, index) -> tuple:
    result = escape.ro.orchestrate(
        request, view, path_cache=PathCache().sync(
            escape.cal.topology_generation), index=index)
    assert result.success, result.failure_reason
    return (result.nf_placement, result.hop_routes, result.cost,
            result.nodes_examined)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_the_live_view_maps_like_the_northbound_copy(scenario):
    for escape, request in SCENARIOS[scenario]():
        cal = escape.cal
        view = cal.resource_view()
        assert cal.substrate_index.covers(view)
        copy = escape.resource_view()
        assert _mapped(escape, request, view, cal.substrate_index) == \
            _mapped(escape, request, copy, SubstrateIndex().sync(copy))
        assert cal.verify() == []


def _reference(escape: EscapeOrchestrator, without) -> object:
    """A pristine stitch carrying the free capacities of every service
    but ``without`` replayed from scratch onto another stitch, as
    ``remaining_nffg`` takes them from the placed NFs and the link
    reservations."""
    cal = escape.cal
    view, graph = (cal.pristine_view(refresh=False) for _ in range(2))
    attach = build_sap_attachments(graph)
    for service_id in cal.deployed_services():
        if service_id not in without:
            service, result = cal.snapshot_service(service_id)
            apply_mapping(graph, service, result.nf_placement,
                          result.hop_routes, attach)
    free = remaining_nffg(graph, include_deployed=False)
    for infra in view.infras:
        infra.resources = free.infra(infra.id).resources
    for link in view.links:
        link.bandwidth, link.reserved = (free.edge(link.id).bandwidth,
                                         free.edge(link.id).reserved)
    return view


def _assert_same_facts(view, reference) -> None:
    assert _differences(nffg_facts("view", view),
                        nffg_facts("view", reference)) == []


@pytest.mark.parametrize("scenario", ["fig1", "federation"])
def test_the_northbound_view_matches_a_replay_without_the_index(scenario):
    (escape, _), = list(SCENARIOS[scenario]())
    services = escape.deployed_services()
    for without in ((), services[:1], services):
        _assert_same_facts(escape.cal.resource_view_without(without),
                           _reference(escape, set(without)))
    _assert_same_facts(escape.resource_view(), _reference(escape, set()))


def test_a_unify_agents_view_matches_a_replay_without_the_index():
    (top, _), (child, _) = list(_unify_stack())
    agent = top.cal.adapters["level0-dom"].agent
    assert agent._parts
    reference = agent.view_policy.build_view(
        _reference(child, set(agent._parts)),
        view_id=f"{child.name}-virtual-view")
    _assert_same_facts(agent.current_view(), reference)
