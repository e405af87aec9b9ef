"""Integration tests: the full Fig. 1 multi-domain stack.

These tests drive the complete reproduction end to end: service layer
-> RO -> adapters -> four technology domains -> packet dataplane.
"""

import pytest

from repro.cli import ScenarioRunner
from repro.nffg.model import DomainType
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain


@pytest.fixture(scope="function")
def testbed():
    return build_reference_multidomain()


def _chain_request(request_id="chain", src="sap1", dst="sap2",
                   nfs=(("fw", "firewall"), ("nat", "nat")),
                   bandwidth=10.0, max_delay=None, flowclass=""):
    builder = ServiceRequestBuilder(request_id).sap(src).sap(dst)
    names = []
    for suffix, functional_type in nfs:
        name = f"{request_id}-{suffix}"
        builder.nf(name, functional_type)
        names.append(name)
    builder.chain(src, *names, dst, bandwidth=bandwidth,
                  flowclass=flowclass)
    if max_delay is not None:
        builder.delay_requirement(src, dst, max_delay=max_delay)
    return builder.build()


class TestGlobalView:
    def test_all_four_domains_in_view(self, testbed):
        view = testbed.escape.resource_view()
        domains = {infra.domain for infra in view.infras}
        assert domains == {DomainType.INTERNAL, DomainType.SDN,
                           DomainType.OPENSTACK, DomainType.UN}

    def test_interdomain_links_stitched(self, testbed):
        view = testbed.escape.resource_view()
        interdomain = [link for link in view.links
                       if link.id.startswith("interdomain-")]
        # 3 hand-offs, bidirectional
        assert len(interdomain) == 6

    def test_three_saps_bound(self, testbed):
        view = testbed.escape.resource_view()
        assert {sap.id for sap in view.saps} == {"sap1", "sap2", "sap3"}


class TestEndToEndChains:
    def test_emu_to_un_chain(self, testbed):
        runner = ScenarioRunner(testbed)
        report, traffic = runner.deploy_and_probe(
            _chain_request(), "sap1", "sap2", count=3)
        assert report.success, report.error
        assert traffic.delivered == 3
        trace = traffic.traces[0]
        assert any("sdn-sw" in node for node in trace)  # transited SDN
        assert "un-lsi" in trace

    def test_chain_with_delay_requirement(self, testbed):
        runner = ScenarioRunner(testbed)
        report, traffic = runner.deploy_and_probe(
            _chain_request("delayed", max_delay=80.0), "sap1", "sap2",
            count=2)
        assert report.success, report.error
        assert traffic.delivered == 2
        assert traffic.mean_latency_ms < 80.0

    def test_firewall_semantics_end_to_end(self, testbed):
        runner = ScenarioRunner(testbed)
        runner.deploy(_chain_request("fwsvc"))
        ok = runner.probe("sap1", "sap2", count=2, tp_dst=80)
        blocked = runner.probe("sap1", "sap2", count=2, tp_dst=22)
        assert ok.delivered == 2
        assert blocked.delivered == 0

    def test_nat_rewrites_source(self, testbed):
        runner = ScenarioRunner(testbed)
        runner.deploy(_chain_request("natsvc"))
        traffic = runner.probe("sap1", "sap2", count=1)
        received = testbed.host("sap2").received[-1]
        assert received.ip_src == "192.0.2.1"

    def test_chain_into_cloud(self, testbed):
        """Force placement into the cloud DC by restricting other
        domains, and verify VM boot dominates activation."""
        testbed.emu.supported_types = ["forwarder"]
        testbed.un.runtime.cpu_capacity = 0.0
        runner = ScenarioRunner(testbed)
        request = _chain_request("cloudsvc", src="sap1", dst="sap3",
                                 nfs=(("dpi", "dpi"),))
        report, traffic = runner.deploy_and_probe(request, "sap1", "sap3",
                                                  count=2)
        assert report.success, report.error
        host = report.mapping.nf_placement["cloudsvc-dpi"]
        assert host == "cloud-bisbis"
        assert report.activation_virtual_ms >= 1500.0  # VM boot
        assert traffic.delivered == 2

    def test_dpi_drops_malware_in_cloud(self, testbed):
        testbed.emu.supported_types = ["forwarder"]
        testbed.un.runtime.cpu_capacity = 0.0
        runner = ScenarioRunner(testbed)
        runner.deploy(_chain_request("dpisvc", src="sap1", dst="sap3",
                                     nfs=(("dpi", "dpi"),)))
        clean = runner.probe("sap1", "sap3", count=1, payload="hello")
        dirty = runner.probe("sap1", "sap3", count=1,
                             payload="malware payload")
        assert clean.delivered == 1
        assert dirty.delivered == 0

    def test_two_concurrent_services(self, testbed):
        """Two chains share the ingress SAP; flowclasses keep their
        traffic apart (same-match rules would otherwise shadow)."""
        runner = ScenarioRunner(testbed)
        first = runner.deploy(_chain_request("svc-a",
                                             flowclass="tp_dst=80"))
        second = runner.deploy(_chain_request("svc-b", src="sap1",
                                              dst="sap3",
                                              nfs=(("mon", "monitor"),),
                                              flowclass="tp_dst=8080"))
        assert first.success and second.success
        a = runner.probe("sap1", "sap2", count=2, tp_dst=80)
        b = runner.probe("sap1", "sap3", count=2, tp_dst=8080)
        assert a.delivered == 2
        assert b.delivered == 2

    def test_teardown_stops_traffic(self, testbed):
        runner = ScenarioRunner(testbed)
        runner.deploy(_chain_request("temp"))
        assert runner.probe("sap1", "sap2", count=1).delivered == 1
        assert testbed.escape.teardown("temp")
        testbed.run()
        assert runner.probe("sap1", "sap2", count=1).delivered == 0


class TestDecompositionEndToEnd:
    def test_vcpe_decomposition_deploys_and_carries_traffic(self, testbed):
        runner = ScenarioRunner(testbed)
        request = (ServiceRequestBuilder("vcpe")
                   .sap("sap1").sap("sap2")
                   .nf("vcpe-cpe", "vCPE", cpu=1.5, mem=192.0, storage=2.0)
                   .chain("sap1", "vcpe-cpe", "sap2", bandwidth=5.0)
                   .build())
        report, traffic = runner.deploy_and_probe(request, "sap1", "sap2",
                                                  count=2)
        assert report.success, report.error
        assert report.mapping.decompositions
        assert traffic.delivered == 2
        # NAT component (from either decomposition option) rewrote src
        assert testbed.host("sap2").received[-1].ip_src == "192.0.2.1"

    def test_decomposition_respects_domain_capabilities(self, testbed):
        """Only the split option's components are runnable when combo
        images are unavailable."""
        for domain in (testbed.emu,):
            domain.supported_types = ["firewall", "nat", "forwarder"]
        testbed.un.runtime.cpu_capacity = 0.0
        # cloud images: remove combo
        testbed.cloud.nova.images.pop("img-fw-nat-combo", None)
        runner = ScenarioRunner(testbed)
        request = (ServiceRequestBuilder("vcpe2")
                   .sap("sap1").sap("sap2")
                   .nf("v2-cpe", "vCPE")
                   .chain("sap1", "v2-cpe", "sap2", bandwidth=5.0).build())
        report = runner.deploy(request)
        assert report.success, report.error
        assert report.mapping.decompositions["v2-cpe"] == "vcpe-split"


class TestBranchingChains:
    def test_classifier_branch_steers_by_flowclass(self, testbed):
        """SFC branching: HTTP through a firewall, DNS through a
        monitor, both re-merging at the egress SAP."""
        from repro.nffg import NFFGBuilder
        builder = (NFFGBuilder("br").sap("sap1").sap("sap2")
                   .nf("br-fw", "firewall").nf("br-mon", "monitor"))
        builder.hop("sap1", "br-fw", flowclass="tp_dst=80", bandwidth=5.0)
        builder.hop("sap1", "br-mon", flowclass="tp_dst=53", bandwidth=1.0)
        builder.hop("br-fw", "sap2", bandwidth=5.0)
        builder.hop("br-mon", "sap2", bandwidth=1.0)
        report = testbed.escape.deploy(builder.build())
        assert report.success, report.error
        runner = ScenarioRunner(testbed)
        http = runner.probe("sap1", "sap2", count=2, tp_dst=80)
        dns = runner.probe("sap1", "sap2", count=2, tp_dst=53)
        assert http.delivered == 2
        assert dns.delivered == 2
        assert all("nf:br-fw" in trace for trace in http.traces)
        assert all("nf:br-mon" in trace for trace in dns.traces)
        # unmatched traffic takes neither branch
        other = runner.probe("sap1", "sap2", count=2, tp_dst=9999)
        assert other.delivered == 0

    def test_bandwidth_requirement_floors_hops(self, testbed):
        request = (ServiceRequestBuilder("bwfloor")
                   .sap("sap1").sap("sap2")
                   .nf("bw-fw", "firewall")
                   .chain("sap1", "bw-fw", "sap2", bandwidth=1.0)
                   .bandwidth_requirement("sap1", "sap2", bandwidth=50.0)
                   .build())
        assert all(hop.bandwidth == 50.0 for hop in request.sg.sg_hops)
        report = testbed.escape.deploy(request.sg)
        assert report.success, report.error
        for route in report.mapping.hop_routes.values():
            assert route.bandwidth == 50.0


class TestControlPlaneAccounting:
    def test_deploy_report_phases(self, testbed):
        report = testbed.service_layer.submit(_chain_request("acct"))
        assert report.success
        assert report.mapping_time_s > 0
        assert report.push_time_s > 0
        assert report.control_messages > 0
        assert report.control_bytes > report.control_messages
        assert len(report.adapters) == 4

    def test_summary_line_renders(self, testbed):
        report = testbed.service_layer.submit(_chain_request("line"))
        assert "OK" in report.summary_line()

    def test_domains_touched_counts_routed_domains_too(self, testbed):
        testbed.service_layer.submit(_chain_request("warm"))  # full fan-out
        report = testbed.service_layer.submit(_chain_request("count"))
        assert report.success
        # fault-free, the planner pushes exactly the touched domains
        assert report.domains_touched == len(report.adapters)
        hosting = {testbed.escape.global_view().infra(infra_id).domain
                   for infra_id in report.mapping.nf_placement.values()}
        assert report.domains_touched > len(hosting)
        assert (f"over {report.domains_touched} domains,"
                in report.summary_line())
        report.domains_touched = 1
        assert "over 1 domain," in report.summary_line()
