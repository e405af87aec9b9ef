"""Tests for renderers and the scenario runner."""

import pytest

from repro.cli import (
    ScenarioRunner,
    render_deploy_report,
    render_dot,
    render_mapping,
    render_nffg,
)
from repro.mapping import GreedyEmbedder
from repro.nffg import NFFGBuilder
from repro.nffg.builder import linear_substrate
from repro.service import ServiceRequestBuilder
from repro.topo import build_emulated_testbed

from tests.mapped import mapped_graph


def _mapped():
    substrate = linear_substrate(3, supported_types=["firewall"])
    service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
               .nf("fw", "firewall")
               .chain("sap1", "fw", "sap2", bandwidth=5.0)
               .requirement("sap1", "sap2", max_delay=30.0).build())
    return substrate, service, GreedyEmbedder().map(service, substrate)


class TestRenderers:
    def test_render_nffg_mentions_everything(self):
        substrate, service, result = _mapped()
        text = render_nffg(mapped_graph(substrate, result), show_flowrules=True)
        assert "fw" in text and "BiSBiS" in text and "sap1" in text
        assert "->" in text  # flow rules shown

    def test_render_service_graph(self):
        _, service, _ = _mapped()
        text = render_nffg(service)
        assert "hop" in text
        assert "delay<=30" in text

    def test_render_mapping_success(self):
        _, _, result = _mapped()
        text = render_mapping(result)
        assert "fw ->" in text
        assert "cost=" in text

    def test_render_mapping_failure(self):
        from repro.mapping.base import MappingResult
        text = render_mapping(MappingResult(success=False,
                                            failure_reason="no capacity"))
        assert "FAILED" in text and "no capacity" in text

    def test_render_deploy_report(self):
        testbed = build_emulated_testbed()
        request = (ServiceRequestBuilder("r").sap("sap1").sap("sap2")
                   .nf("r-fw", "firewall")
                   .chain("sap1", "r-fw", "sap2").build())
        report = testbed.service_layer.submit(request)
        text = render_deploy_report(report)
        assert "OK" in text and "emu" in text


class TestDotRenderer:
    def test_dot_is_structurally_valid(self):
        substrate, service, result = _mapped()
        dot = render_dot(mapped_graph(substrate, result), title="mapped")
        assert dot.startswith('digraph "mapped" {')
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")

    def test_dot_contains_all_elements(self):
        substrate, service, result = _mapped()
        mapped = mapped_graph(substrate, result)
        dot = render_dot(mapped)
        for sap in mapped.saps:
            assert f'"{sap.id}"' in dot
        for infra in mapped.infras:
            assert f'"{infra.id}"' in dot
        assert '"fw"' in dot
        assert "style=dashed" in dot  # SG hops present

    def test_dot_for_bare_service_graph(self):
        _, service, _ = _mapped()
        dot = render_dot(service)
        assert "firewall" in dot


class TestScenarioRunner:
    @pytest.fixture
    def runner(self):
        return ScenarioRunner(build_emulated_testbed(switches=2))

    def test_deploy_and_probe(self, runner):
        request = (ServiceRequestBuilder("probe-svc")
                   .sap("sap1").sap("sap2")
                   .nf("p-fw", "firewall")
                   .chain("sap1", "p-fw", "sap2", bandwidth=5.0).build())
        report, traffic = runner.deploy_and_probe(request, "sap1", "sap2",
                                                  count=4)
        assert report.success
        assert traffic.sent == 4
        assert traffic.delivered == 4
        assert traffic.delivery_ratio == 1.0
        assert traffic.mean_latency_ms > 0
        assert all("nf:p-fw" in trace for trace in traffic.traces)

    def test_probe_counts_drops(self, runner):
        request = (ServiceRequestBuilder("fw-svc").sap("sap1").sap("sap2")
                   .nf("f-fw", "firewall")
                   .chain("sap1", "f-fw", "sap2").build())
        runner.deploy(request)
        blocked = runner.probe("sap1", "sap2", count=3, tp_dst=22)
        assert blocked.delivered == 0
        assert blocked.dropped == 3

    def test_failed_deploy_returns_empty_traffic(self, runner):
        request = (ServiceRequestBuilder("nope").sap("sap1").sap("sap2")
                   .nf("x", "warpdrive").chain("sap1", "x", "sap2").build())
        runner.testbed.emu.supported_types = ["firewall"]
        report, traffic = runner.deploy_and_probe(request, "sap1", "sap2")
        assert not report.success
        assert traffic.sent == 0
