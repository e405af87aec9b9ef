"""Direct tests for MappingContext / ResourceLedger internals —
the bookkeeping every embedder depends on."""

import pytest

from repro.mapping import MappingContext, MappingError, ResourceLedger
from repro.mapping.base import HopRoute
from repro.nffg import NFFGBuilder, ResourceVector
from repro.nffg.builder import linear_substrate


@pytest.fixture
def case():
    substrate = linear_substrate(3, id="s",
                                 supported_types=["firewall", "nat"])
    service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
               .nf("fw", "firewall",
                   cpu=2.0, mem=256.0, storage=2.0)
               .chain("sap1", "fw", "sap2", bandwidth=10.0)
               .requirement("sap1", "sap2", max_delay=30.0).build())
    return service, substrate


class TestResourceLedger:
    def test_alloc_and_release_nf(self, case):
        service, substrate = case
        ledger = ResourceLedger(substrate)
        nf = service.nf("fw")
        before = ledger.free("s-bb0").cpu
        ledger.alloc_nf(nf, "s-bb0")
        assert ledger.free("s-bb0").cpu == before - 2.0
        ledger.release_nf(nf, "s-bb0")
        assert ledger.free("s-bb0").cpu == before

    def test_alloc_beyond_capacity_raises(self, case):
        service, substrate = case
        ledger = ResourceLedger(substrate)
        big = service.nf("fw")
        big.resources = ResourceVector(cpu=1000.0)
        with pytest.raises(MappingError):
            ledger.alloc_nf(big, "s-bb0")

    def test_can_host_respects_types(self, case):
        service, substrate = case
        ledger = ResourceLedger(substrate)
        nf = service.nf("fw")
        assert ledger.can_host(nf, substrate.infra("s-bb0"))
        substrate.infra("s-bb0").supported_types = {"nat"}
        assert not ledger.can_host(nf, substrate.infra("s-bb0"))

    def test_link_bandwidth_accounting(self, case):
        _, substrate = case
        ledger = ResourceLedger(substrate)
        link = substrate.links[0]
        ledger.alloc_links([link.id], 600.0)
        assert ledger.link_free(link.id) == link.bandwidth - 600.0
        assert not ledger.can_route(link, 600.0)
        ledger.release_links([link.id], 600.0)
        assert ledger.can_route(link, 600.0)

    def test_alloc_links_atomic(self, case):
        _, substrate = case
        ledger = ResourceLedger(substrate)
        first, second = substrate.links[0], substrate.links[1]
        ledger.alloc_links([second.id], 900.0)
        with pytest.raises(MappingError):
            ledger.alloc_links([first.id, second.id], 500.0)
        # nothing was deducted from first
        assert ledger.link_free(first.id) == first.bandwidth


class TestMappingContext:
    def test_sap_attachment_resolution(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        assert ctx.sap_attachment("sap1") == ("s-bb0", "sap-sap1")
        with pytest.raises(MappingError):
            ctx.sap_attachment("ghost")

    def test_endpoint_infra(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        assert ctx.endpoint_infra("sap1") == "s-bb0"
        assert ctx.endpoint_infra("fw") is None
        ctx.place("fw", "s-bb1")
        assert ctx.endpoint_infra("fw") == "s-bb1"

    def test_place_unplace_roundtrip(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        free_before = ctx.ledger.free("s-bb0").cpu
        ctx.place("fw", "s-bb0")
        ctx.unplace("fw")
        assert ctx.ledger.free("s-bb0").cpu == free_before
        assert "fw" not in ctx.placement

    def test_record_and_drop_route(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        link = substrate.links[0]
        route = HopRoute(hop_id="h", infra_path=["s-bb0", "s-bb1"],
                         link_ids=[link.id], delay=2.0, bandwidth=100.0)
        ctx.record_route(route)
        assert ctx.ledger.link_free(link.id) == link.bandwidth - 100.0
        ctx.drop_route("h")
        assert ctx.ledger.link_free(link.id) == link.bandwidth

    def test_requirement_violations(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        hop_ids = [hop.id for hop in service.sg_hops]
        for hop_id in hop_ids:
            ctx.routes[hop_id] = HopRoute(hop_id=hop_id,
                                          infra_path=["s-bb0"],
                                          link_ids=[], delay=20.0,
                                          bandwidth=0.0)
        violations = ctx.requirement_violations()
        assert violations and "delay" in violations[0]
        for hop_id in hop_ids:
            ctx.routes[hop_id].delay = 10.0
        assert ctx.requirement_violations() == []

    def test_partial_delay(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        hop_ids = [hop.id for hop in service.sg_hops]
        ctx.routes[hop_ids[0]] = HopRoute(hop_id=hop_ids[0],
                                          infra_path=["s-bb0"],
                                          link_ids=[], delay=7.0,
                                          bandwidth=0.0)
        assert ctx.partial_delay(hop_ids) == 7.0

    def test_adjacency_cache_is_stable(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        first = ctx.adjacency()
        assert ctx.adjacency() is first
        assert all(link.src_node in ctx.node_delays()
                   for links in first.values() for link in links)

    def test_delay_estimate_matches_route(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        from repro.mapping.paths import find_route
        route = find_route(substrate, ctx.ledger, "probe", "s-bb0",
                           "s-bb2", bandwidth=0.0)
        assert ctx.delay_estimate("s-bb0", "s-bb2") == \
            pytest.approx(route.delay)

    def test_delay_estimate_unreachable(self, case):
        service, substrate = case
        from repro.nffg import NFFG
        island = NFFG(id="island")
        island.add_infra("alone")
        substrate.add_node_copy(island.node("alone"))
        ctx = MappingContext(service, substrate)
        assert ctx.delay_estimate("s-bb0", "alone") == float("inf")

    def test_total_cost_components(self, case):
        service, substrate = case
        ctx = MappingContext(service, substrate)
        ctx.place("fw", "s-bb0")
        cost_placement_only = ctx.total_cost()
        link = substrate.links[0]
        ctx.record_route(HopRoute(hop_id="h", infra_path=["s-bb0", "s-bb1"],
                                  link_ids=[link.id], delay=1.0,
                                  bandwidth=10.0))
        assert ctx.total_cost() > cost_placement_only


class TestApplyRemove:
    def test_remove_mapping_undoes_apply_exactly(self, case):
        """Also when the view advertises its SAPs only as tagged ports:
        the SAP nodes the service carried in must leave with it."""
        from repro.mapping import GreedyEmbedder
        from repro.mapping.base import (apply_mapping,
                                        build_sap_attachments,
                                        remove_mapping)
        from repro.nffg import nffg_to_dict

        service, substrate = case
        for sap in substrate.saps:
            substrate.remove_node(sap.id)
        result = GreedyEmbedder().map(service, substrate)
        assert result.success, result.failure_reason
        before = nffg_to_dict(substrate)
        delta = apply_mapping(substrate, service, result.nf_placement,
                              result.hop_routes,
                              build_sap_attachments(substrate))
        assert delta.sap_ids == ["sap1", "sap2"]
        assert substrate.nfs and nffg_to_dict(substrate) != before
        remove_mapping(substrate, delta)
        assert nffg_to_dict(substrate) == before


class TestInstallHopFlowrules:
    def test_one_rule_per_traversed_bisbis_tagged_then_untagged(self, case):
        """A hop routed over three BiS-BiS gets one rule on each, on the
        port it enters by: the first tags, the last untags."""
        from repro.mapping.base import install_hop_flowrules

        service, substrate = case
        hop = service.sg_hops[0]
        route = HopRoute(hop_id=hop.id,
                         infra_path=["s-bb0", "s-bb1", "s-bb2"],
                         link_ids=["s:link1", "s:link2"], delay=2.3,
                         bandwidth=10.0)
        ports = install_hop_flowrules(substrate, hop, route, "sap-sap1",
                                      "sap-sap2")
        assert ports == [("s-bb0", "sap-sap1"), ("s-bb1", "to-s-bb0"),
                         ("s-bb2", "to-s-bb1")]
        rules = [substrate.infra(infra_id).port(port_id).flowrules
                 for infra_id, port_id in ports]
        assert [(rule.match, rule.action) for rule, in rules] == [
            ("in_port=sap-sap1", f"output=to-s-bb1;tag={hop.id}"),
            (f"in_port=to-s-bb0;tag={hop.id}", "output=to-s-bb2"),
            (f"in_port=to-s-bb1;tag={hop.id}", "output=sap-sap2;untag")]
        assert {rule.hop_id for rule, in rules} == {hop.id}
        assert sum(len(port.flowrules) for infra in substrate.infras
                   for port in infra.ports.values()) == 3
