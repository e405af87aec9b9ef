"""Tests for the domain adapter layer (install accounting, teardown,
failure isolation)."""

import pytest

from repro.emu import EmulatedDomain
from repro.netconf import NetconfError
from repro.netem import Network
from repro.nffg import NFFG
from repro.nffg.builder import linear_substrate
from repro.nffg.model import DomainType
from repro.nffg.ops import nffg_facts
from repro.orchestration import (
    DirectDomainAdapter,
    EmuDomainAdapter,
    SdnDomainAdapter,
)
from repro.sdnnet import SDNDomain


class TestDirectAdapter:
    def test_records_installs(self):
        adapter = DirectDomainAdapter("d", linear_substrate(2, id="d"))
        install = NFFG(id="install")
        report = adapter.install(install)
        assert report.success
        assert adapter.installs == 1
        assert adapter.installed is not install
        assert nffg_facts("", adapter.installed) == nffg_facts("", install)

    def test_get_view_returns_copy(self):
        view = linear_substrate(2, id="d")
        adapter = DirectDomainAdapter("d", view)
        got = adapter.get_view()
        got.add_sap("intruder")
        assert not adapter.get_view().has_node("intruder")

    def test_teardown_pushes_empty(self):
        adapter = DirectDomainAdapter("d", linear_substrate(2, id="d"))
        adapter.teardown()
        assert adapter.installed.summary()["infras"] == 0

    def test_default_flow_stats_empty(self):
        adapter = DirectDomainAdapter("d", NFFG(id="v"))
        assert adapter.flow_stats() == {}


class TestAdapterFaultIsolation:
    def test_push_exception_becomes_failed_report(self):
        class ExplodingAdapter(DirectDomainAdapter):
            def _push(self, install, touched=None):
                raise RuntimeError("boom")

        adapter = ExplodingAdapter("bad", NFFG(id="v"))
        report = adapter.install(NFFG(id="x"))
        assert not report.success
        assert "RuntimeError: boom" in report.error
        assert adapter.installs == 0

    def test_report_counts_control_traffic_delta(self):
        net = Network()
        domain = EmulatedDomain("emu", net, node_ids=["bb0"])
        domain.add_sap("sap1", "bb0")
        adapter = EmuDomainAdapter("emu", domain)
        first = adapter.install(domain.domain_view())
        adapter.reset_delta_state()
        second = adapter.install(domain.domain_view())
        assert first.control_messages > 0
        assert second.control_messages > 0
        # deltas, not cumulative totals
        total_messages, _ = adapter.control_stats()
        assert total_messages >= first.control_messages \
            + second.control_messages
        # an unforced re-push of the acknowledged config is a delta
        # no-op: nothing goes on the wire at all
        third = adapter.install(domain.domain_view())
        assert third.success and third.delta
        assert third.control_messages == 0


class TestDeltaResync:
    def _emu(self):
        net = Network()
        domain = EmulatedDomain("emu", net, node_ids=["bb0"])
        domain.add_sap("sap1", "bb0")
        domain.add_sap("sap2", "bb0")
        return domain, EmuDomainAdapter("emu", domain)

    def _install(self, domain, hops):
        install = domain.domain_view()
        for hop_id in hops:
            install.infra("bb0").port("sap-sap1").add_flowrule(
                f"in_port=sap-sap1;flowclass=tp_dst={hop_id[1:]}",
                "output=sap-sap2", hop_id=hop_id)
        return install

    def test_failed_apply_makes_the_next_push_a_full_resync(self):
        domain, adapter = self._emu()
        orchestrator = adapter.orchestrator
        assert adapter.install(self._install(domain, ["h1"])).success
        reconcile = orchestrator._reconcile
        orchestrator._reconcile = lambda nfs, ports: 1 / 0
        failed = adapter.install(self._install(domain, ["h1", "h2"]))
        assert not failed.success and "ZeroDivisionError" in failed.error
        orchestrator._reconcile = reconcile
        # the patch had reached the datastore but not the switch: only a
        # full push (diffed against what *is* installed) brings h2
        resync = adapter.install(self._install(domain, ["h1", "h2"]))
        assert resync.success and not resync.delta
        assert domain.switches["bb0"].flow_count() == 2
        after = adapter.install(self._install(domain, ["h2"]))
        assert after.success and after.delta
        assert [e.cookie for e in domain.switches["bb0"].table.entries()] \
            == ["h2"]

    def test_drifted_server_is_resynced_through_the_fallback(self):
        domain, adapter = self._emu()
        assert adapter.install(self._install(domain, ["h1"])).success
        # the domain orchestrator restarted with an empty datastore
        adapter.client.edit_config(None, operation="delete")
        adapter.client.commit()
        assert domain.switches["bb0"].flow_count() == 0
        report = adapter.install(self._install(domain, ["h1", "h2"]))
        assert report.success and not report.delta
        assert report.messages == 3  # refused patch + replace/commit
        assert domain.switches["bb0"].flow_count() == 2
        assert adapter.install(self._install(domain, ["h1", "h2"])).delta


    def test_one_validation_per_push_and_a_refusal_at_commit(self):
        domain, adapter = self._emu()
        orchestrator = adapter.orchestrator
        assert adapter.install(self._install(domain, ["h1"])).success
        handled = orchestrator.rpcs_handled
        report = adapter.install(self._install(domain, ["h1", "h2"]))
        # edit-config + commit: commit is where the patch is validated
        assert report.success and report.delta and report.messages == 2
        assert orchestrator.rpcs_handled - handled == 2
        running = orchestrator.running.snapshot()
        digest, nfs = orchestrator.running.digest, dict(orchestrator.nfs)
        flows = [entry.cookie
                 for entry in domain.switches["bb0"].table.entries()]
        checked = []

        def refuse(entries):
            checked.append(entries)
            return ["refused"]

        orchestrator.validate_patch = refuse
        refused = adapter.install(self._install(domain, ["h1", "h3"]))
        assert not refused.success and "invalid-value" in refused.error
        assert len(checked) == 1
        assert orchestrator.running.snapshot() == running
        assert orchestrator.running.digest == digest
        assert orchestrator.nfs == nfs
        assert [entry.cookie for entry in
                domain.switches["bb0"].table.entries()] == flows
        assert adapter._acked_tree is None
        del orchestrator.validate_patch
        handled = orchestrator.rpcs_handled
        resync = adapter.install(self._install(domain, ["h1", "h3"]))
        assert resync.success and not resync.delta and resync.messages == 2
        assert orchestrator.rpcs_handled - handled == 2
        assert sorted(entry.cookie for entry in
                      domain.switches["bb0"].table.entries()) == ["h1", "h3"]

    def test_running_validates_as_it_was_while_a_patch_is_staged(self):
        domain, adapter = self._emu()
        orchestrator = adapter.orchestrator
        assert adapter.install(self._install(domain, ["h1"])).success
        # a flow entry without its mandatory port, staged on the tree
        # running and candidate share
        adapter.client.edit_config_delta(
            f"{orchestrator.running.digest:016x}",
            [{"op": "create", "value": {"id": "sap-sap1:h9"},
              "path": "/virtualizer/nodes/node[bb0]/flowtable"
                      "/flowentry[sap-sap1:h9]"}])
        assert adapter.client.validate("running") == {"ok": True}
        with pytest.raises(NetconfError) as refused:
            adapter.client.validate("candidate")
        assert "mandatory" in str(refused.value)
        adapter.client.discard_changes()
        again = adapter.install(self._install(domain, ["h1", "h2"]))
        assert again.success and again.delta
        assert domain.switches["bb0"].flow_count() == 2


class TestSdnAdapter:
    def _setup(self):
        net = Network()
        domain = SDNDomain("sdn", net, switch_ids=["sw0", "sw1"],
                           links=[("sw0", "sw1")])
        domain.add_sap("a", "sw0")
        domain.add_sap("b", "sw1")
        return net, domain, SdnDomainAdapter("sdn", domain)

    def test_programs_switch_rules(self):
        net, domain, adapter = self._setup()
        view = adapter.get_view()
        # fabricate a transit install: steer a->b through both switches
        install = view.copy("install")
        install.infra("sw0").port("sap-a").add_flowrule(
            "in_port=sap-a", "output=to-sw1;tag=h1", hop_id="h1")
        install.infra("sw1").port("to-sw0").add_flowrule(
            "in_port=to-sw0;tag=h1", "output=sap-b;untag", hop_id="h1")
        report = adapter.install(install)
        assert report.success, report.error
        assert domain.switches["sw0"].flow_count() == 1
        assert domain.switches["sw1"].flow_count() == 1

    def test_unknown_switch_fails_report(self):
        net, domain, adapter = self._setup()
        install = NFFG(id="x")
        install.add_infra("ghost-switch", domain=DomainType.SDN,
                          num_ports=1)
        report = adapter.install(install)
        assert not report.success
        assert "ghost-switch" in report.error

    def test_reinstall_replaces_flows(self):
        net, domain, adapter = self._setup()
        view = adapter.get_view()
        install = view.copy("install")
        install.infra("sw0").port("sap-a").add_flowrule(
            "in_port=sap-a", "output=to-sw1", hop_id="h1")
        adapter.install(install)
        sent = domain.pox.endpoint.flow_mods_sent
        adapter.install(install)
        assert domain.switches["sw0"].flow_count() == 1
        # nothing changed: nothing was sent, not even to delete and re-add
        assert domain.pox.endpoint.flow_mods_sent == sent

    def test_teardown_clears(self):
        net, domain, adapter = self._setup()
        view = adapter.get_view()
        install = view.copy("install")
        install.infra("sw0").port("sap-a").add_flowrule(
            "in_port=sap-a", "output=to-sw1", hop_id="h1")
        adapter.install(install)
        adapter.teardown()
        assert domain.switches["sw0"].flow_count() == 0
