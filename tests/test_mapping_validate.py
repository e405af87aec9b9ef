"""Tests for the independent mapping validator."""

import pytest

from repro.lint import Severity
from repro.mapping import GreedyEmbedder, validate_mapping
from repro.mapping.base import MappingResult
from repro.nffg import NFFGBuilder
from repro.nffg.builder import linear_substrate


@pytest.fixture
def scenario():
    substrate = linear_substrate(3, id="s",
                                 supported_types=["firewall", "nat"])
    service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
               .nf("fw", "firewall")
               .chain("sap1", "fw", "sap2", bandwidth=10.0)
               .requirement("sap1", "sap2", max_delay=30.0).build())
    result = GreedyEmbedder().map(service, substrate)
    assert result.success
    return substrate, service, result


def test_clean_mapping_validates(scenario):
    substrate, service, result = scenario
    assert validate_mapping(service, substrate, result) == []


def test_failed_mapping_reports_reason():
    substrate = linear_substrate(1)
    result = MappingResult(success=False, failure_reason="nope")
    problems = validate_mapping(NFFGBuilder("x").sap("sap1").build(),
                                substrate, result)
    assert [d.message for d in problems] == ["mapping failed: nope"]
    assert problems[0].rule_id == "MP001"
    assert problems[0].severity is Severity.ERROR


def test_detects_unplaced_nf(scenario):
    substrate, service, result = scenario
    del result.nf_placement["fw"]
    assert any("unplaced" in d.message for d in
               validate_mapping(service, substrate, result))


def test_detects_unknown_host(scenario):
    substrate, service, result = scenario
    result.nf_placement["fw"] = "ghost"
    assert any("unknown infra" in d.message for d in
               validate_mapping(service, substrate, result))


def test_detects_unsupporting_host(scenario):
    substrate, service, result = scenario
    substrate.infra(result.nf_placement["fw"]).supported_types = {"nat"}
    assert any("unsupporting" in d.message for d in
               validate_mapping(service, substrate, result))


def test_detects_overcommit(scenario):
    substrate, service, result = scenario
    host = result.nf_placement["fw"]
    substrate.infra(host).resources = \
        substrate.infra(host).resources.scaled(0.0)
    assert any("over-committed" in d.message for d in
               validate_mapping(service, substrate, result))


def test_detects_unrouted_hop(scenario):
    substrate, service, result = scenario
    first_hop = service.sg_hops[0].id
    del result.hop_routes[first_hop]
    assert any("unrouted" in d.message for d in
               validate_mapping(service, substrate, result))


def test_detects_wrong_endpoint(scenario):
    substrate, service, result = scenario
    hop = service.sg_hops[0]
    route = result.hop_routes[hop.id]
    route.infra_path[0] = "s-bb2"
    problems = validate_mapping(service, substrate, result)
    assert any("starts at" in d.message or "does not connect" in d.message
               for d in problems)
    assert all(d.rule_id == "MP030" for d in problems)


def test_detects_disconnected_link_chain(scenario):
    substrate, service, result = scenario
    multi = [r for r in result.hop_routes.values() if r.link_ids]
    assert multi, "expected at least one multi-node route"
    # point the first link somewhere that does not connect the path
    wrong_link = substrate.links[-1].id
    if wrong_link == multi[0].link_ids[0]:
        wrong_link = substrate.links[-2].id
    multi[0].link_ids[0] = wrong_link
    problems = validate_mapping(service, substrate, result)
    assert any("does not connect" in d.message or "unknown link" in d.message
               for d in problems)


def test_detects_bandwidth_oversubscription(scenario):
    substrate, service, result = scenario
    for route in result.hop_routes.values():
        route.bandwidth = 10_000.0
    assert any("over-subscribed" in d.message for d in
               validate_mapping(service, substrate, result))


def test_detects_delay_violation(scenario):
    substrate, service, result = scenario
    for route in result.hop_routes.values():
        route.delay = 100.0
    assert any("delay" in d.message for d in
               validate_mapping(service, substrate, result))


def test_detects_foreign_nf_in_placement(scenario):
    substrate, service, result = scenario
    result.nf_placement["alien"] = "s-bb0"
    assert any("non-service NF" in d.message for d in
               validate_mapping(service, substrate, result))
