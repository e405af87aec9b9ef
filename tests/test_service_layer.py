"""Tests for the service layer (requests, SLAs, lifecycle)."""

import pytest

from repro.service import (
    ServiceRequestBuilder,
    ServiceState,
)
from repro.topo import build_emulated_testbed


def _request(request_id="req1", max_delay=None):
    builder = (ServiceRequestBuilder(request_id)
               .sap("sap1").sap("sap2")
               .nf(f"{request_id}-fw", "firewall")
               .chain("sap1", f"{request_id}-fw", "sap2", bandwidth=5.0))
    if max_delay is not None:
        builder.delay_requirement("sap1", "sap2", max_delay=max_delay)
    return builder.meta("tenant", "alice").build()


class TestRequestBuilder:
    def test_build_produces_requested_state(self):
        request = _request()
        assert request.state == ServiceState.REQUESTED
        assert request.metadata["tenant"] == "alice"

    def test_nf_resources_default_from_catalog(self):
        request = (ServiceRequestBuilder("r").sap("a").sap("b")
                   .nf("d", "dpi").chain("a", "d", "b").build())
        nf = request.sg.nf("d")
        assert nf.resources.cpu == 2.0  # dpi catalog footprint

    def test_explicit_resources_override(self):
        request = (ServiceRequestBuilder("r").sap("a").sap("b")
                   .nf("d", "dpi", cpu=8.0).chain("a", "d", "b").build())
        assert request.sg.nf("d").resources.cpu == 8.0

    def test_unknown_type_gets_generic_defaults(self):
        request = (ServiceRequestBuilder("r").sap("a").sap("b")
                   .nf("x", "mystery").chain("a", "x", "b").build())
        assert request.sg.nf("x").resources.cpu == 1.0

    def test_sla_summary(self):
        request = _request(max_delay=40.0)
        summary = request.sla_summary()
        assert summary["chains"] == 2
        assert summary["delay_constraints"][0]["max_delay_ms"] == 40.0
        assert summary["bandwidth_demands"] == [5.0]

    def test_bandwidth_requirement(self):
        request = (ServiceRequestBuilder("r").sap("a").sap("b")
                   .nf("f", "firewall").chain("a", "f", "b")
                   .bandwidth_requirement("a", "b", bandwidth=20.0).build())
        assert request.sg.requirements[0].bandwidth == 20.0


class TestServiceLayerLifecycle:
    @pytest.fixture
    def layer(self):
        return build_emulated_testbed(switches=3).service_layer

    def test_submit_deploys(self, layer):
        report = layer.submit(_request())
        assert report.success
        assert layer.status("req1") == ServiceState.DEPLOYED
        assert len(layer.active_requests()) == 1

    def test_submit_failure_marks_failed(self, layer):
        request = _request("bad")
        request.sg.nf("bad-fw").functional_type = "warpdrive"
        report = layer.submit(request)
        assert not report.success
        assert request.state == ServiceState.FAILED
        assert request.error == report.error
        # a failed request is not kept
        assert layer.status("bad") is None
        assert "bad" not in layer.requests

    def test_duplicate_submit_rejected(self, layer):
        layer.submit(_request())
        report = layer.submit(_request())
        assert not report.success
        assert "already deployed" in report.error

    def test_terminate(self, layer):
        request = _request()
        assert layer.submit(request).success
        assert layer.terminate("req1")
        assert request.state == ServiceState.TERMINATED
        # a terminated request is not kept
        assert layer.status("req1") is None
        assert layer.requests == {}
        assert layer.active_requests() == []
        assert not layer.terminate("req1")

    def test_terminate_unknown(self, layer):
        assert not layer.terminate("ghost")

    def test_resubmit_after_terminate(self, layer):
        layer.submit(_request())
        layer.terminate("req1")
        report = layer.submit(_request())
        assert report.success

    def test_topology_view_visible(self, layer):
        view = layer.topology_view()
        assert len(view.infras) == 3

    def test_invalid_sg_rejected_before_mapping(self, layer):
        request = _request("broken")
        # corrupt: requirement referencing missing hop
        request.sg.requirements.clear()
        hop = request.sg.sg_hops[0]
        request.sg.add_requirement(
            hop.src_node, hop.src_port, hop.dst_node, hop.dst_port,
            sg_path=[hop.id])
        request.sg.remove_edge(hop.id)
        report = layer.submit(request)
        assert not report.success
        assert request.state == ServiceState.FAILED
        assert request.error == report.error
        assert layer.status("broken") is None
