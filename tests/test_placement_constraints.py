"""Tests for placement constraints (domain affinity, pinning,
anti-affinity) across all embedders and end to end."""

import pytest

from repro.mapping import (
    BacktrackingEmbedder,
    GreedyEmbedder,
    validate_mapping,
)
from repro.nffg.builder import linear_substrate
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain
from repro.cli import ScenarioRunner

ALL_EMBEDDERS = [GreedyEmbedder, BacktrackingEmbedder]


def _substrate():
    return linear_substrate(3, id="s", supported_types=["firewall", "nat"])


class TestPinning:
    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_pin_to_specific_infra(self, embedder_cls):
        substrate = _substrate()
        request = (ServiceRequestBuilder("pin")
                   .sap("sap1").sap("sap2")
                   .nf("pin-fw", "firewall", pin_to="s-bb2")
                   .chain("sap1", "pin-fw", "sap2", bandwidth=1.0).build())
        result = embedder_cls().map(request.sg, substrate)
        assert result.success, result.failure_reason
        assert result.nf_placement["pin-fw"] == "s-bb2"

    def test_pin_to_missing_node_fails(self):
        substrate = _substrate()
        request = (ServiceRequestBuilder("pin2")
                   .sap("sap1").sap("sap2")
                   .nf("p2-fw", "firewall", pin_to="nowhere")
                   .chain("sap1", "p2-fw", "sap2").build())
        result = GreedyEmbedder().map(request.sg, substrate)
        assert not result.success


class TestAntiAffinity:
    @pytest.mark.parametrize("embedder_cls", ALL_EMBEDDERS)
    def test_two_nfs_forced_apart(self, embedder_cls):
        substrate = _substrate()
        request = (ServiceRequestBuilder("aa")
                   .sap("sap1").sap("sap2")
                   .nf("aa-fw", "firewall")
                   .nf("aa-nat", "nat", not_with=["aa-fw"])
                   .chain("sap1", "aa-fw", "aa-nat", "sap2",
                          bandwidth=1.0).build())
        result = embedder_cls().map(request.sg, substrate)
        assert result.success, result.failure_reason
        assert result.nf_placement["aa-fw"] != result.nf_placement["aa-nat"]

    def test_anti_affinity_unsatisfiable_fails(self):
        substrate = linear_substrate(1, id="one",
                                     supported_types=["firewall", "nat"])
        request = (ServiceRequestBuilder("aa2")
                   .sap("sap1").sap("sap2")
                   .nf("a-fw", "firewall")
                   .nf("a-nat", "nat", not_with=["a-fw"])
                   .chain("sap1", "a-fw", "a-nat", "sap2").build())
        result = GreedyEmbedder().map(request.sg, substrate)
        assert not result.success


class TestDomainAffinity:
    def test_nf_forced_into_cloud(self):
        testbed = build_reference_multidomain()
        runner = ScenarioRunner(testbed)
        request = (ServiceRequestBuilder("dom")
                   .sap("sap1").sap("sap3")
                   .nf("dom-fw", "firewall", domain="OPENSTACK")
                   .chain("sap1", "dom-fw", "sap3", bandwidth=1.0).build())
        report, traffic = runner.deploy_and_probe(request, "sap1", "sap3",
                                                  count=2)
        assert report.success, report.error
        assert report.mapping.nf_placement["dom-fw"] == "cloud-bisbis"
        assert report.activation_virtual_ms >= 1500.0  # VM boot paid
        assert traffic.delivered == 2

    def test_unknown_domain_fails_cleanly(self):
        testbed = build_reference_multidomain()
        request = (ServiceRequestBuilder("dom2")
                   .sap("sap1").sap("sap2")
                   .nf("d2-fw", "firewall", domain="MARS")
                   .chain("sap1", "d2-fw", "sap2").build())
        report = testbed.escape.deploy(request.sg)
        assert not report.success


class TestValidatorChecksConstraints:
    def test_validator_flags_violated_pin(self):
        substrate = _substrate()
        request = (ServiceRequestBuilder("v")
                   .sap("sap1").sap("sap2")
                   .nf("v-fw", "firewall", pin_to="s-bb2")
                   .chain("sap1", "v-fw", "sap2", bandwidth=1.0).build())
        result = GreedyEmbedder().map(request.sg, substrate)
        result.nf_placement["v-fw"] = "s-bb0"  # violate post-hoc
        problems = validate_mapping(request.sg, substrate, result)
        assert any("pinned" in p for p in problems.as_strings())

    def test_validator_flags_violated_anti_affinity(self):
        substrate = _substrate()
        request = (ServiceRequestBuilder("v2")
                   .sap("sap1").sap("sap2")
                   .nf("v2-fw", "firewall")
                   .nf("v2-nat", "nat", not_with=["v2-fw"])
                   .chain("sap1", "v2-fw", "v2-nat", "sap2",
                          bandwidth=1.0).build())
        result = GreedyEmbedder().map(request.sg, substrate)
        assert result.success
        result.nf_placement["v2-nat"] = result.nf_placement["v2-fw"]
        problems = validate_mapping(request.sg, substrate, result)
        assert any("anti-affinity" in p for p in problems.as_strings())
