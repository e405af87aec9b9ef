"""Tests for the RO, CAL and the ESCAPE facade (single level)."""

import pytest

from repro.mapping import BacktrackingEmbedder, GreedyEmbedder
from repro.mapping.decomposition import default_decomposition_library
from repro.nffg import NFFG, NFFGBuilder
from repro.nffg.builder import linear_substrate
from repro.nffg.model import DomainType
from repro.orchestration import (
    ControllerAdaptationLayer,
    DirectDomainAdapter,
    ResourceOrchestrator,
)
from repro.topo import build_emulated_testbed


def simple_service(service_id="svc", bandwidth=10.0):
    return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
            .nf(f"{service_id}-fw", "firewall")
            .chain("sap1", f"{service_id}-fw", "sap2",
                   bandwidth=bandwidth).build())


class TestResourceOrchestrator:
    def test_orchestrate_success(self):
        ro = ResourceOrchestrator(GreedyEmbedder())
        view = linear_substrate(3, supported_types=["firewall"])
        result = ro.orchestrate(simple_service(), view)
        assert result.success
        assert ro.acceptance_ratio == 1.0

    def test_orchestrate_failure_tracked(self):
        ro = ResourceOrchestrator(GreedyEmbedder())
        view = linear_substrate(3, supported_types=["nat"])
        assert not ro.orchestrate(simple_service(), view).success
        assert ro.acceptance_ratio == 0.0

    def test_decomposition_integration(self):
        ro = ResourceOrchestrator(
            GreedyEmbedder(),
            decomposition_library=default_decomposition_library())
        view = linear_substrate(3, supported_types=["firewall", "nat"])
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("cpe", "vCPE")
                   .chain("sap1", "cpe", "sap2", bandwidth=1.0).build())
        result = ro.orchestrate(service, view)
        assert result.success
        assert result.decompositions["cpe"] == "vcpe-split"

    def test_verification_catches_bad_embedder(self):
        class LyingEmbedder(GreedyEmbedder):
            def map(self, service, resource, path_cache=None, index=None):
                result = super().map(service, resource, path_cache, index)
                if result.success:
                    result.nf_placement["svc-fw"] = "ghost-node"
                return result

        ro = ResourceOrchestrator(LyingEmbedder())
        view = linear_substrate(3, supported_types=["firewall"])
        result = ro.orchestrate(simple_service(), view)
        assert not result.success
        assert "verification failed" in result.failure_reason


class TestCAL:
    def _cal_with_two_domains(self):
        cal = ControllerAdaptationLayer()
        view_a = linear_substrate(2, id="a", supported_types=["firewall"])
        view_b = linear_substrate(2, id="b", domain=DomainType.UN,
                                  supported_types=["nat"])
        # drop dom-b's SAP nodes: sap ids must be globally unique when
        # views are merged, and this test only exercises slicing
        for sap in list(view_b.saps):
            view_b.remove_node(sap.id)
        for infra in view_b.infras:
            for port in infra.ports.values():
                port.sap_tag = None
        cal.register(DirectDomainAdapter("dom-a", view_a))
        cal.register(DirectDomainAdapter("dom-b", view_b,
                                         domain_type=DomainType.UN))
        return cal

    def test_duplicate_adapter_rejected(self):
        cal = ControllerAdaptationLayer()
        cal.register(DirectDomainAdapter("x", NFFG(id="v")))
        with pytest.raises(ValueError):
            cal.register(DirectDomainAdapter("x", NFFG(id="v2")))

    def test_dov_merges_views(self):
        cal = ControllerAdaptationLayer()
        cal.register(DirectDomainAdapter("a", linear_substrate(2, id="a")))
        dov = cal.dov
        assert len(dov.infras) == 2

    def test_commit_mapping_updates_dov(self):
        cal = ControllerAdaptationLayer()
        view = linear_substrate(2, id="a", supported_types=["firewall"])
        cal.register(DirectDomainAdapter("a", view))
        service = simple_service()
        result = GreedyEmbedder().map(service, cal.resource_view())
        assert result.success
        cal.commit_mapping("svc", service, result)
        assert cal.dov.has_node("svc-fw")
        host = result.nf_placement["svc-fw"]
        assert cal.substrate_index.free[host].cpu < 16.0

    def test_remove_service_restores_resources(self):
        cal = ControllerAdaptationLayer()
        view = linear_substrate(2, id="a", supported_types=["firewall"])
        cal.register(DirectDomainAdapter("a", view))
        service = simple_service()
        result = GreedyEmbedder().map(service, cal.resource_view())
        cal.commit_mapping("svc", service, result)
        assert cal.remove_service("svc")
        assert not cal.dov.has_node("svc-fw")
        assert not cal.remove_service("svc")

    def test_push_all_slices_per_adapter(self):
        cal = self._cal_with_two_domains()
        reports = cal.push_all()
        assert len(reports) == 2
        assert all(report.success for report in reports)


class TestEscapeSingleDomain:
    @pytest.fixture
    def testbed(self):
        return build_emulated_testbed(switches=3)

    def test_deploy_success(self, testbed):
        report = testbed.escape.deploy(simple_service())
        assert report.success
        assert report.mapping_time_s >= 0
        assert report.control_messages > 0
        assert testbed.escape.deployed_services() == ["svc"]

    def test_duplicate_deploy_rejected(self, testbed):
        testbed.escape.deploy(simple_service())
        report = testbed.escape.deploy(simple_service())
        assert not report.success
        assert "already deployed" in report.error

    def test_mapping_failure_reported(self, testbed):
        service = (NFFGBuilder("bad").sap("sap1").sap("sap2")
                   .nf("x", "warpdrive")
                   .chain("sap1", "x", "sap2").build())
        testbed.emu.supported_types = ["firewall"]
        report = testbed.escape.deploy(service)
        assert not report.success
        assert "mapping failed" in report.error
        assert testbed.escape.deployed_services() == []

    def test_teardown_restores_capacity(self, testbed):
        testbed.escape.deploy(simple_service())
        before = testbed.escape.resource_view()
        assert testbed.escape.teardown("svc")
        after = testbed.escape.resource_view()
        total_before = sum(i.resources.cpu for i in before.infras)
        total_after = sum(i.resources.cpu for i in after.infras)
        assert total_after > total_before
        assert not testbed.escape.teardown("svc")

    def test_sequential_services_share_substrate(self, testbed):
        first = testbed.escape.deploy(simple_service("svc1"))
        second = testbed.escape.deploy(simple_service("svc2"))
        assert first.success and second.success
        assert set(testbed.escape.deployed_services()) == {"svc1", "svc2"}
        # both firewalls actually running in the domain
        attached = [nf for switch in testbed.emu.switches.values()
                    for nf in switch.attached_nfs()]
        assert len(attached) == 2

    def test_capacity_exhaustion_fails_cleanly(self, testbed):
        for index in range(100):
            service = simple_service(f"svc{index}")
            report = testbed.escape.deploy(service)
            if not report.success:
                break
        else:
            pytest.fail("capacity never exhausted")
        assert "mapping failed" in report.error
        # earlier services unaffected
        assert len(testbed.escape.deployed_services()) == index

    def test_backtracking_embedder_pluggable(self):
        testbed = build_emulated_testbed(switches=3,
                                         embedder=BacktrackingEmbedder())
        report = testbed.escape.deploy(simple_service())
        assert report.success
