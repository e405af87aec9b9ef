"""Tests for dynamic operation: monitoring, healing, in-place updates.

The paper's premise is "automated, dynamic service creation" — these
are the operations a running orchestrator performs after day-one
deployment.
"""

import pytest

from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFG, NFFGBuilder, ResourceVector
from repro.orchestration import EmuDomainAdapter, EscapeOrchestrator
from repro.orchestration.adapters import DirectDomainAdapter
from repro.perf import counters
from repro.topo import build_reference_multidomain
from repro.cli import ScenarioRunner
from repro.service import ServiceRequestBuilder


@pytest.fixture
def triangle():
    """An emu domain with a redundant triangle topology."""
    net = Network()
    emu = EmulatedDomain("emu", net, node_ids=["bb0", "bb1", "bb2"],
                         links=[("bb0", "bb1"), ("bb1", "bb2"),
                                ("bb0", "bb2")])
    emu.add_sap("sap1", "bb0")
    emu.add_sap("sap2", "bb1")
    escape = EscapeOrchestrator("esc", simulator=net.simulator)
    escape.add_domain(EmuDomainAdapter("emu", emu))
    return net, emu, escape


def _service(service_id="svc", nf_type="firewall"):
    return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
            .nf(f"{service_id}-nf", nf_type)
            .chain("sap1", f"{service_id}-nf", "sap2", bandwidth=5.0)
            .build())


def _static_domain():
    """A static-view domain: sap1 on d-bb0, sap2 on d-bb1 and two
    firewall hosts between them — d-bb2, the cheaper, entered from d-bb0
    directly or over a 1 Mbps detour through d-bb4 and left only towards
    d-bb1, and d-bb3."""
    view = NFFG(id="d")
    for name, kind, cost in (("bb0", "monitor", 1.0), ("bb1", "monitor", 1.0),
                             ("bb2", "firewall", 1.0), ("bb3", "firewall", 2.0),
                             ("bb4", "monitor", 1.0)):
        view.add_infra(f"d-{name}", supported_types=[kind], cost_per_cpu=cost,
                       resources=ResourceVector(cpu=8.0, mem=8192.0,
                                                storage=64.0, delay=0.1,
                                                bandwidth=10_000.0))
    for sap_id, infra_id in (("sap1", "d-bb0"), ("sap2", "d-bb1")):
        sap = view.add_sap(sap_id)
        port = view.infra(infra_id).add_port(f"to-{sap_id}", sap_tag=sap_id)
        view.add_link(sap_id, next(iter(sap.ports)), infra_id, port.id,
                      bandwidth=1000.0)
    for src, dst, delay, bandwidth, both in (
            ("bb0", "bb2", 1.0, 100.0, True), ("bb2", "bb1", 1.0, 100.0, False),
            ("bb0", "bb3", 1.0, 100.0, True), ("bb3", "bb1", 1.0, 100.0, True),
            ("bb0", "bb4", 10.0, 1.0, True), ("bb4", "bb2", 10.0, 1.0, True)):
        a, b = view.infra(f"d-{src}"), view.infra(f"d-{dst}")
        view.add_link(a.id, a.add_port(f"to-{dst}").id,
                      b.id, b.add_port(f"to-{src}").id, id=f"d-{src}-{dst}",
                      delay=delay, bandwidth=bandwidth, bidirectional=both)
    escape = EscapeOrchestrator("static")
    adapter = escape.add_domain(DirectDomainAdapter("d", view))
    assert escape.deploy(_service(), wait_activation=False).success
    assert _host(escape) == "d-bb2"
    return escape, adapter


def _host(escape, service_id="svc"):
    """Where the service's one NF is placed."""
    _, result = escape.cal.snapshot_service(service_id)
    return result.nf_placement[f"{service_id}-nf"]


def _moved(before, *names):
    """How far each named counter moved since the ``before`` snapshot."""
    return [counters.get(name) - before.get(name, 0) for name in names]


class TestLinkFailure:
    def test_failed_link_drops_traffic(self):
        net = Network()
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        link = net.connect("h1", "0", "h2", "0")
        net.fail_link("h1", "h2")
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 0
        assert link.dropped == 1
        net.restore_link("h1", "h2")
        h1.send(tcp_packet(h1.ip, h2.ip))
        net.run()
        assert len(h2.received) == 1

    def test_fail_unknown_link_raises(self):
        net = Network()
        net.add_host("h1")
        with pytest.raises(ValueError):
            net.fail_link("h1", "ghost")

    def test_failed_link_leaves_domain_view(self, triangle):
        net, emu, escape = triangle
        assert len(emu.domain_view().links) == 3 * 2 + 2 * 2
        net.fail_link("bb0", "bb1")
        assert len(emu.domain_view().links) == 2 * 2 + 2 * 2


class TestHealing:
    def test_heal_reroutes_around_failure(self, triangle):
        net, emu, escape = triangle
        report = escape.deploy(_service())
        assert report.success
        h1, h2 = emu.sap_hosts["sap1"], emu.sap_hosts["sap2"]
        host = _host(escape)
        process = emu.switches[host].nf_process("svc-nf")
        net.fail_link("bb0", "bb1")
        reports = escape.heal()
        assert reports["svc"].success
        assert reports["svc"].domains_touched == 1
        # the NF stayed where it was, and kept running through the heal
        assert _host(escape) == host
        assert emu.switches[host].nf_process("svc-nf") is process
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1
        assert "bb2" in h2.received[0].trace  # detour path used

    def test_heal_noop_when_unaffected(self, triangle):
        net, emu, escape = triangle
        escape.deploy(_service())
        assert escape.heal() == {}

    def test_heal_reports_unfixable(self):
        """A partitioned linear topology cannot be healed."""
        net = Network()
        emu = EmulatedDomain("emu", net, node_ids=["bb0", "bb1"],
                             links=[("bb0", "bb1")])
        emu.add_sap("sap1", "bb0")
        emu.add_sap("sap2", "bb1")
        escape = EscapeOrchestrator("esc", simulator=net.simulator)
        escape.add_domain(EmuDomainAdapter("emu", emu))
        assert escape.deploy(_service()).success
        net.fail_link("bb0", "bb1")
        reports = escape.heal()
        assert not reports["svc"].success
        assert "heal failed" in reports["svc"].error

    def test_heal_only_touches_broken_services(self, triangle):
        net, emu, escape = triangle
        escape.deploy(_service("svc-a"))
        # a second service whose hops stay on bb0 only
        local = (NFFGBuilder("svc-b").sap("sap1")
                 .nf("svc-b-nf", "monitor")
                 .chain("sap1", "svc-b-nf", bandwidth=1.0).build())
        # route sap1 -> nf -> (nothing): single-ended chain
        report_b = escape.deploy(local)
        assert report_b.success
        net.fail_link("bb0", "bb1")
        reports = escape.heal()
        assert set(reports) == {"svc-a"}

    def test_vanished_infra_drops_derived_state_and_evacuates(self):
        escape, adapter = _static_domain()
        before = counters.snapshot()
        adapter._view.remove_node("d-bb2")
        assert escape.heal()["svc"].success
        assert _host(escape) == "d-bb3"
        assert _moved(before, "dov.rebuild", "cal.fold_links",
                      "resilience.heal.evacuations",
                      "resilience.heal.reembedded") == [1, 0, 1, 1]
        assert escape.cal.verify() == []

    @pytest.mark.parametrize("refetch", ["update", "heal"])
    def test_capacity_change_drops_derived_state(self, refetch):
        """A view whose ids are all the same but a capacity moved is not
        a links-only move: the derived state goes, the capacity shows."""
        escape, adapter = _static_domain()
        adapter._view.infra("d-bb3").resources = ResourceVector(
            cpu=4.0, mem=8192.0, storage=64.0, bandwidth=10_000.0, delay=0.1)
        before = counters.snapshot()
        if refetch == "update":
            assert escape.update(_service()).success
        else:
            assert escape.heal() == {}
        assert escape.resource_view().infra("d-bb3").resources.cpu == 4.0
        assert _moved(before, "dov.rebuild", "cal.fold_links") == [1, 0]
        assert escape.cal.verify() == []

    def test_reroute_short_of_bandwidth_falls_back_to_a_whole_reembed(self):
        """The only way left into d-bb2 is the 1 Mbps detour: its chain
        cannot keep the NF there, so it moves to d-bb3 — the links-only
        move still folded, nothing rebuilt."""
        escape, adapter = _static_domain()
        before = counters.snapshot()
        for link_id in ("d-bb0-bb2", "d-bb0-bb2-back"):
            adapter._view.remove_edge(link_id)
        report = escape.heal()["svc"]
        assert report.success, report.error
        assert _host(escape) == "d-bb3"
        assert _moved(before, "dov.rebuild", "cal.fold_links",
                      "resilience.heal.rerouted",
                      "resilience.heal.reembedded") == [0, 1, 0, 1]
        assert escape.cal.verify() == []


class TestUpdate:
    def test_update_swaps_nf(self, triangle):
        net, emu, escape = triangle
        escape.deploy(_service("svc", "firewall"))
        report = escape.update(_service("svc", "nat"))
        assert report.success
        assert report.domains_touched == 1
        h1, h2 = emu.sap_hosts["sap1"], emu.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert h2.received[-1].ip_src == "192.0.2.1"  # NAT active

    def test_failed_update_keeps_old_version(self, triangle):
        net, emu, escape = triangle
        escape.deploy(_service("svc", "nat"))
        report = escape.update(_service("svc", "warpdrive"))
        assert not report.success
        assert "previous version kept" in report.error
        assert escape.deployed_services() == ["svc"]
        h1, h2 = emu.sap_hosts["sap1"], emu.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert h2.received[-1].ip_src == "192.0.2.1"

    def test_update_of_unknown_service_deploys(self, triangle):
        net, emu, escape = triangle
        report = escape.update(_service("fresh"))
        assert report.success
        assert "fresh" in escape.deployed_services()

    def test_update_preserves_unchanged_nf_instance(self, triangle):
        """Reconciliation keeps an NF with an unchanged id running
        across the update (no restart)."""
        net, emu, escape = triangle
        escape.deploy(_service("svc", "firewall"))
        host = escape.cal.snapshot_service("svc")[1].nf_placement["svc-nf"]
        process_before = emu.switches[host].nf_process("svc-nf")
        # same NF, extra monitor appended
        updated = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("svc-nf", "firewall").nf("svc-mon", "monitor")
                   .chain("sap1", "svc-nf", "svc-mon", "sap2",
                          bandwidth=5.0).build())
        report = escape.update(updated)
        assert report.success
        host_after = escape.cal.snapshot_service("svc")[1] \
            .nf_placement["svc-nf"]
        if host_after == host:
            assert emu.switches[host].nf_process("svc-nf") is process_before


    @pytest.mark.parametrize("how", ["collision", "exception"])
    def test_update_that_cannot_commit_keeps_books_journal_and_domain(
            self, triangle, how, monkeypatch):
        """An update that takes another service's NF id (or raises for
        any other reason once its old version left the books) is refused
        with everything still holding the old version."""
        net, emu, escape = triangle

        def chain(service_id, nf_id):
            return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
                    .nf(nf_id, "firewall")
                    .chain("sap1", nf_id, "sap2", bandwidth=1.0).build())

        assert escape.deploy(chain("A", "shared-fw")).success
        assert escape.deploy(chain("B", "b-fw")).success
        record = escape.export_state()["services"]["B"]
        if how == "collision":
            report = escape.update(chain("B", "shared-fw"))
            assert "collide" in report.error and "shared-fw" in report.error
        else:
            def explode(*args):
                raise ValueError("duplicate port 'x-1'")

            monkeypatch.setattr(escape.cal, "commit_mapping", explode)
            report = escape.update(chain("B", "b2-fw"))
            monkeypatch.undo()
            assert "ValueError: duplicate port" in report.error
        assert not report.success
        assert "previous version kept" in report.error
        assert escape.reports["B"] is report
        # books, derived state, journal and the domain: all the old B
        assert sorted(escape.deployed_services()) == ["A", "B"]
        assert escape.export_state()["services"]["B"] == record
        assert escape.cal.verify() == []
        assert escape.journal.replay().state["services"]["B"] == record
        orchestrator = escape.cal.adapters["emu"].orchestrator
        assert sorted(orchestrator._deployed_nfs) == ["b-fw", "shared-fw"]
        assert all(r.success for r in escape.cal.push_all())
        assert sorted(orchestrator._deployed_nfs) == ["b-fw", "shared-fw"]
        # and its own ids are its to keep: the same chain again is fine
        assert escape.update(chain("B", "b-fw")).success


class TestTechnologyMigration:
    def test_update_migrates_nf_between_technologies(self):
        """Paper: "supports different even legacy technologies and
        migration between them."  Growing the NF's demand beyond the
        emu domain's capacity migrates it into the cloud on update."""
        testbed = build_reference_multidomain()
        small = (ServiceRequestBuilder("mig")
                 .sap("sap1").sap("sap3")
                 .nf("mig-dpi", "dpi", cpu=2.0)
                 .chain("sap1", "mig-dpi", "sap3", bandwidth=5.0).build())
        report = testbed.service_layer.submit(small)
        assert report.success
        first_host = report.mapping.nf_placement["mig-dpi"]
        assert first_host.startswith("emu")  # cheap placement first
        # the new version needs more CPU than any emu node or the UN has
        testbed.un.runtime.cpu_capacity = 4.0
        big = (ServiceRequestBuilder("mig")
               .sap("sap1").sap("sap3")
               .nf("mig-dpi", "dpi", cpu=12.0, mem=4096.0)
               .chain("sap1", "mig-dpi", "sap3", bandwidth=5.0).build())
        update_report = testbed.escape.update(big.sg)
        assert update_report.success, update_report.error
        new_host = update_report.mapping.nf_placement["mig-dpi"]
        assert new_host == "cloud-bisbis"
        # the migrated NF runs as a cloud VM and carries traffic
        runner = ScenarioRunner(testbed)
        traffic = runner.probe("sap1", "sap3", count=2)
        assert traffic.delivered == 2
        assert any("nf:mig-dpi" in trace for trace in traffic.traces)


class TestMonitoring:
    def test_flow_stats_track_traffic(self):
        testbed = build_reference_multidomain()
        runner = ScenarioRunner(testbed)
        request = (ServiceRequestBuilder("mon")
                   .sap("sap1").sap("sap2")
                   .nf("mon-fw", "firewall")
                   .chain("sap1", "mon-fw", "sap2", bandwidth=5.0).build())
        assert runner.deploy(request).success
        runner.probe("sap1", "sap2", count=4)
        stats = testbed.escape.service_flow_stats("mon")
        assert set(stats) == {"mon-hop1", "mon-hop2"}
        assert all(entry["packets"] == 4 for entry in stats.values())
        assert all(entry["bytes"] == 4000 for entry in stats.values())

    def test_flow_stats_unknown_service_empty(self):
        testbed = build_reference_multidomain()
        assert testbed.escape.service_flow_stats("ghost") == {}

    def test_flow_stats_counts_only_matching_hops(self):
        testbed = build_reference_multidomain()
        runner = ScenarioRunner(testbed)
        for service_id, flowclass, port in (("s1", "tp_dst=80", 80),
                                            ("s2", "tp_dst=53", 53)):
            request = (ServiceRequestBuilder(service_id)
                       .sap("sap1").sap("sap2")
                       .nf(f"{service_id}-f", "forwarder")
                       .chain("sap1", f"{service_id}-f", "sap2",
                              bandwidth=1.0, flowclass=flowclass).build())
            assert runner.deploy(request).success
        runner.probe("sap1", "sap2", count=3, tp_dst=80)
        runner.probe("sap1", "sap2", count=1, tp_dst=53)
        stats_a = testbed.escape.service_flow_stats("s1")
        stats_b = testbed.escape.service_flow_stats("s2")
        assert max(e["packets"] for e in stats_a.values()) == 3
        assert max(e["packets"] for e in stats_b.values()) == 1
