"""Tests for the two built-in embedding algorithms (shared behaviours +
algorithm-specific ones)."""

import pytest

from repro.mapping import (
    BacktrackingEmbedder,
    GreedyEmbedder,
    validate_mapping,
)
from repro.mapping.greedy import service_order
from repro.nffg import NFFG, NFFGBuilder, ResourceVector
from repro.nffg.builder import linear_substrate, mesh_substrate

from tests.mapped import mapped_graph

ALL_EMBEDDERS = [GreedyEmbedder, BacktrackingEmbedder]


def simple_service(bandwidth=10.0, max_delay=None):
    builder = (NFFGBuilder("svc").sap("sap1").sap("sap2")
               .nf("fw", "firewall").nf("nat", "nat")
               .chain("sap1", "fw", "nat", "sap2", bandwidth=bandwidth))
    if max_delay is not None:
        builder.requirement("sap1", "sap2", max_delay=max_delay)
    return builder.build()


@pytest.fixture
def substrate():
    return linear_substrate(4, id="s",
                            supported_types=["firewall", "nat", "dpi"])


class TestSharedBehaviour:
    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_successful_mapping_is_valid(self, embedder_cls, substrate):
        service = simple_service(max_delay=30.0)
        result = embedder_cls().map(service, substrate)
        assert result.success, result.failure_reason
        assert validate_mapping(service, substrate, result) == []

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_all_nfs_placed_all_hops_routed(self, embedder_cls, substrate):
        service = simple_service()
        result = embedder_cls().map(service, substrate)
        assert set(result.nf_placement) == {"fw", "nat"}
        assert set(result.hop_routes) == {hop.id for hop in service.sg_hops}

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_unsupported_type_fails(self, embedder_cls):
        substrate = linear_substrate(3, supported_types=["nat"])
        result = embedder_cls().map(simple_service(), substrate)
        assert not result.success
        assert "fw" in result.failure_reason or "host" in result.failure_reason

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_insufficient_cpu_fails(self, embedder_cls):
        substrate = linear_substrate(2, cpu=0.5)
        result = embedder_cls().map(simple_service(), substrate)
        assert not result.success

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_insufficient_bandwidth_fails(self, embedder_cls):
        substrate = linear_substrate(3, link_bw=5.0)
        result = embedder_cls().map(simple_service(bandwidth=50.0), substrate)
        assert not result.success

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_impossible_delay_fails(self, embedder_cls):
        substrate = linear_substrate(5, link_delay=100.0)
        result = embedder_cls().map(simple_service(max_delay=5.0), substrate)
        # either refuses during routing or via requirement check
        assert not result.success

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_failure_does_not_raise(self, embedder_cls):
        empty = NFFG(id="nothing")
        result = embedder_cls().map(simple_service(), empty)
        assert not result.success

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_mapped_graph_carries_flowrules(self, embedder_cls, substrate):
        service = simple_service()
        result = embedder_cls().map(service, substrate)
        total_rules = mapped_graph(substrate, result).summary()["flowrules"]
        expected = sum(len(route.infra_path)
                       for route in result.hop_routes.values())
        assert total_rules == expected

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_mesh_substrate(self, embedder_cls):
        substrate = mesh_substrate(20, degree=3, seed=7,
                                   supported_types=["firewall", "nat"])
        service = simple_service(bandwidth=5.0)
        result = embedder_cls().map(service, substrate)
        assert result.success, result.failure_reason
        assert validate_mapping(service, substrate, result) == []

    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_source_views_not_mutated(self, embedder_cls, substrate):
        service = simple_service()
        before_sub = substrate.summary()
        before_svc = service.summary()
        embedder_cls().map(service, substrate)
        assert substrate.summary() == before_sub
        assert service.summary() == before_svc
        assert all(link.reserved == 0 for link in substrate.links)


class TestServiceOrder:
    def test_chain_order_from_sap(self):
        service = simple_service()
        assert service_order(service) == ["fw", "nat"]

    def test_isolated_nf_still_ordered(self):
        sg = NFFG(id="iso")
        sg.add_nf("lonely", "firewall", num_ports=1)
        assert service_order(sg) == ["lonely"]

    def test_branching_order_visits_all(self):
        sg = (NFFGBuilder("b").sap("u").sap("s")
              .nf("a", "x").nf("b", "y")
              .hop("u", "a").hop("u", "b").hop("a", "s").hop("b", "s")
              .build())
        assert set(service_order(sg)) == {"a", "b"}


class TestBacktracking:
    def test_finds_solution_greedy_misses(self):
        """A delay-tight chain on a 4-node mesh: greedy's locally
        cheapest hosts leave the last hop no path inside the budget,
        backtracking re-places NFs until the whole chain fits."""
        substrate = mesh_substrate(
            4, degree=3, seed=22, cpu=3.83, link_bw=1395.6,
            supported_types=["firewall", "nat", "dpi", "monitor"])
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("nat1", "nat", cpu=2.2).nf("nat2", "nat", cpu=3.05)
                   .nf("dpi", "dpi", cpu=1.07)
                   .nf("fw", "firewall", cpu=1.9)
                   .chain("sap1", "nat1", "nat2", "dpi", "fw", "sap2",
                          bandwidth=19.5)
                   .requirement("sap1", "sap2", max_delay=2.88).build())
        greedy = GreedyEmbedder().map(service, substrate)
        assert not greedy.success
        assert "svc-hop5" in greedy.failure_reason
        result = BacktrackingEmbedder().map(service, substrate)
        assert result.success, result.failure_reason
        assert result.backtracks == 10
        assert validate_mapping(service, substrate, result) == []

    def test_backtrack_budget_respected(self):
        substrate = linear_substrate(2, cpu=0.1)
        embedder = BacktrackingEmbedder(max_backtracks=5)
        result = embedder.map(simple_service(), substrate)
        assert not result.success
        assert result.backtracks <= 6


class TestScarcityTier:
    """Greedy keeps hosts of a scarce type (here DPI: 1 of 4 hosts)
    for NFs of that type while any other host is feasible."""

    @staticmethod
    def _substrate():
        substrate = linear_substrate(4, id="s", supported_types=["firewall"])
        specialist = substrate.infra("s-bb0")  # where sap1 attaches
        specialist.supported_types |= {"dpi"}
        specialist.cost_per_cpu = 0.1
        return substrate

    @staticmethod
    def _firewall():
        return (NFFGBuilder("svc").sap("sap1").sap("sap2")
                .nf("fw", "firewall", cpu=2.0)
                .chain("sap1", "fw", "sap2", bandwidth=1.0).build())

    def test_generic_host_spares_the_specialist(self):
        result = GreedyEmbedder().map(self._firewall(), self._substrate())
        assert result.success, result.failure_reason
        assert result.nf_placement["fw"] == "s-bb1"

    def test_specialist_taken_when_only_feasible(self):
        substrate = self._substrate()
        for infra_id in ("s-bb1", "s-bb2", "s-bb3"):
            substrate.infra(infra_id).resources = ResourceVector(cpu=1.0)
        result = GreedyEmbedder().map(self._firewall(), substrate)
        assert result.success, result.failure_reason
        assert result.nf_placement["fw"] == "s-bb0"
