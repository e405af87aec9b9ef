"""Unit tests for the crash-recovery subsystem (repro.recovery).

Covers the write-ahead intent journal (record shapes, two-phase
semantics, checkpoint truncation, file round-trip), seeded crash
injection, the recovery reconciliation pass over a direct domain, the
resilience-state persistence satellites (breaker export/import, pending
replay restore, ``import_state(reconcile=True)``), and the ``repro
recover`` CLI entry point.
"""

import gc
import json
import weakref

import pytest

from repro import obs
from repro.nffg.builder import mesh_substrate
from repro.orchestration import DirectDomainAdapter, EscapeOrchestrator
from repro.recovery import (
    CrashPlan,
    IntentJournal,
    JournalError,
    OrchestratorCrash,
    recover,
)
from repro.recovery.journal import fold_records
from repro.resilience import BreakerState
from repro.resilience.breaker import CircuitBreaker
from repro.service import ServiceRequestBuilder


def _chain_service(index: int, length: int = 1):
    builder = (ServiceRequestBuilder(f"r{index}")
               .sap("sap1").sap("sap2"))
    names = [f"r{index}n{j}" for j in range(length)]
    for name in names:
        builder.nf(name, "firewall", cpu=0.5, mem=32.0)
    builder.chain("sap1", *names, "sap2", bandwidth=1.0)
    return builder.build().sg


def _direct_escape(journal=None, **kwargs):
    escape = EscapeOrchestrator("rec", journal=journal, **kwargs)
    inner = DirectDomainAdapter(
        "dom", view=mesh_substrate(12, degree=3, seed=5,
                                   supported_types=["firewall"]))
    escape.add_domain(inner)
    return escape, inner


class TestJournalRecords:
    def test_intent_commit_cycle_record_shapes(self):
        journal = IntentJournal()
        with journal.intent("deploy", "svc", payload={"k": 1}) as intent:
            intent.outcome("dom", True)
            intent.commit({"svc": {"service": {}}})
        kinds = [r["kind"] for r in journal.records()]
        assert kinds == ["intent", "outcome", "commit"]
        first = journal.records()[0]
        assert first["seq"] == 0
        assert first["op"] == "deploy"
        assert first["service_id"] == "svc"
        assert first["intent_id"] == 1
        assert first["payload"] == {"k": 1}
        outcome = journal.records()[1]
        assert outcome["payload"] == {"domain": "dom", "success": True,
                                      "stage": "push", "error": ""}

    def test_scope_exit_without_commit_auto_aborts(self):
        journal = IntentJournal()
        with pytest.raises(ValueError):
            with journal.intent("deploy", "svc"):
                raise ValueError("mapping exploded")
        kinds = [r["kind"] for r in journal.records()]
        assert kinds == ["intent", "abort"]
        assert "mapping exploded" in journal.records()[-1]["payload"]["reason"]

    def test_scope_does_not_abort_on_crash(self):
        # a crashed process writes nothing: the dangling intent IS the
        # crash marker replay uses to roll the operation back
        journal = IntentJournal()
        with pytest.raises(OrchestratorCrash):
            with journal.intent("deploy", "svc"):
                raise OrchestratorCrash("injected")
        kinds = [r["kind"] for r in journal.records()]
        assert kinds == ["intent"]

    def test_unknown_kind_rejected(self):
        journal = IntentJournal()
        with pytest.raises(JournalError):
            journal.append("mystery")

    def test_records_carry_trace_ids_when_observing(self):
        previous = obs.disable()
        obs.enable(fresh=True)
        try:
            journal = IntentJournal()
            with obs.span("test-span"):
                journal.append("intent", intent_id=1, op="deploy")
            record = journal.records()[0]
            assert record["trace_id"]
            assert record["span_id"]
        finally:
            obs.disable()
            obs.restore(previous)


class TestFold:
    def test_commit_applies_and_none_deletes(self):
        journal = IntentJournal()
        with journal.intent("deploy", "a") as intent:
            intent.commit({"a": {"x": 1}})
        with journal.intent("deploy", "b") as intent:
            intent.commit({"b": {"y": 2}})
        with journal.intent("teardown", "a") as intent:
            intent.commit({"a": None})
        replay = journal.replay()
        assert replay.state["services"] == {"b": {"y": 2}}
        assert replay.committed == 3
        assert replay.aborted == 0
        assert replay.in_flight == []

    def test_in_flight_intent_contributes_nothing(self):
        journal = IntentJournal()
        with journal.intent("deploy", "a") as intent:
            intent.commit({"a": {"x": 1}})
        # crash mid-deploy of "b": intent + one outcome, no terminal
        scope = journal.intent("deploy", "b")
        scope.outcome("dom", True)
        replay = journal.replay()
        assert replay.state["services"] == {"a": {"x": 1}}
        assert len(replay.in_flight) == 1
        assert replay.in_flight[0]["service_id"] == "b"
        assert replay.in_flight[0]["outcomes"]["dom"]["success"] is True

    def test_aborted_intent_contributes_nothing(self):
        journal = IntentJournal()
        scope = journal.intent("deploy", "a")
        scope.abort("mapping failed")
        replay = journal.replay()
        assert replay.state["services"] == {}
        assert replay.aborted == 1

    def test_fold_rejects_unknown_kind(self):
        with pytest.raises(JournalError):
            fold_records([{"kind": "garbage"}])

    def test_checkpoint_resets_base(self):
        records = [
            {"kind": "checkpoint",
             "payload": {"state": {"services": {"old": {"v": 0}}}}},
            {"kind": "intent", "intent_id": 9, "op": "teardown",
             "service_id": "old"},
            {"kind": "commit", "intent_id": 9,
             "payload": {"services": {"old": None, "new": {"v": 1}}}},
        ]
        replay = fold_records(records)
        assert replay.state["services"] == {"new": {"v": 1}}
        assert replay.checkpoint_used is True


class TestCheckpoint:
    def test_checkpoint_truncates_but_keeps_total(self):
        journal = IntentJournal()
        for index in range(3):
            with journal.intent("deploy", f"s{index}") as intent:
                intent.commit({f"s{index}": {"v": index}})
        before = journal.total_appends
        journal.checkpoint({"services": {"s0": {"v": 0}}})
        assert len(journal) == 1
        assert journal.records()[0]["kind"] == "checkpoint"
        assert journal.total_appends == before + 1
        replay = journal.replay()
        assert replay.state["services"] == {"s0": {"v": 0}}
        assert replay.checkpoint_used

    def test_maybe_checkpoint_uses_bound_provider(self):
        journal = IntentJournal(checkpoint_every=2)
        journal.state_provider = lambda: {"services": {"snap": {}}}
        with journal.intent("deploy", "a") as intent:
            intent.commit({"a": {}})
        assert journal.records()[-1]["kind"] == "commit"
        with journal.intent("deploy", "b") as intent:
            intent.commit({"b": {}})  # second commit triggers checkpoint
        assert [r["kind"] for r in journal.records()] == ["checkpoint"]
        assert journal.replay().state["services"] == {"snap": {}}

    def test_journal_holds_its_orchestrator_weakly(self):
        journal = IntentJournal(checkpoint_every=1)
        escape, _ = _direct_escape(journal)
        assert escape.deploy(_chain_service(0)).success
        # the bound export_state still fires while the orchestrator lives
        assert [r["kind"] for r in journal.records()] == ["checkpoint"]
        assert list(journal.replay().state["services"]) == ["r0"]
        orchestrator = weakref.ref(escape)
        gc.disable()
        try:
            del escape
            assert orchestrator() is None
        finally:
            gc.enable()
        assert journal.state_provider is None
        with journal.intent("deploy", "late") as intent:
            intent.commit({"late": {}})
        assert [r["kind"] for r in journal.records()][-1] == "commit"

    def test_checkpoint_file_truncation_is_atomic(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = IntentJournal(path)
        for index in range(4):
            with journal.intent("deploy", f"s{index}") as intent:
                intent.commit({f"s{index}": {}})
        journal.checkpoint({"services": {"kept": {}}})
        with journal.intent("deploy", "after") as intent:
            intent.commit({"after": {}})
        journal.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines() if line]
        assert lines[0]["kind"] == "checkpoint"
        assert len(lines) == 3  # checkpoint + intent + outcome-less commit
        assert not list(tmp_path.glob("*.tmp"))


class TestFileJournal:
    def test_constructor_truncates_load_resumes(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = IntentJournal(path)
        with journal.intent("deploy", "svc") as intent:
            intent.outcome("dom", True)
            intent.commit({"svc": {"v": 1}})
        journal.close()

        loaded = IntentJournal.load(path)
        assert [r["kind"] for r in loaded.records()] \
            == ["intent", "outcome", "commit"]
        assert loaded.total_appends == 3
        # appends continue the same file with resumed sequence numbers
        with loaded.intent("teardown", "svc") as intent:
            intent.commit({"svc": None})
        loaded.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines() if line]
        assert [r["seq"] for r in lines] == list(range(5))
        assert lines[3]["intent_id"] == 2  # intent counter resumed too

        # a fresh constructor starts over (stale logs never leak in)
        fresh = IntentJournal(path)
        fresh.close()
        assert path.read_text() == ""

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "intent", "seq": 0}\nnot json\n')
        with pytest.raises(JournalError, match="bad.jsonl:2"):
            IntentJournal.load(path)

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "garbage", "seq": 0}\n')
        with pytest.raises(JournalError, match="garbage"):
            IntentJournal.load(path)


class TestCrashPlan:
    def test_crash_at_k_leaves_exactly_k_records(self):
        journal = IntentJournal()
        journal.crash_plan = CrashPlan(at=2)
        journal.append("intent", intent_id=1, op="deploy")
        journal.append("outcome", intent_id=1, op="deploy",
                       payload={"domain": "dom", "success": True})
        with pytest.raises(OrchestratorCrash):
            journal.append("commit", intent_id=1, op="deploy")
        assert len(journal) == 2

    def test_plan_fires_once(self):
        plan = CrashPlan(at=0)
        with pytest.raises(OrchestratorCrash):
            plan.on_append()
        plan.on_append()  # the successor process does not re-crash
        assert plan.fired

    def test_random_plan_is_deterministic(self):
        a = CrashPlan.random_plan(42, horizon=10)
        b = CrashPlan.random_plan(42, horizon=10)
        assert a.at == b.at
        assert 0 <= a.at <= 10

    def test_crash_is_not_swallowed_by_except_exception(self):
        # OrchestratorCrash derives from BaseException precisely so the
        # orchestrator's own error handling cannot catch it
        assert not issubclass(OrchestratorCrash, Exception)


class TestRecoverEndToEnd:
    def test_clean_journal_recovers_committed_services(self):
        escape, inner = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        assert escape.deploy(_chain_service(1), wait_activation=False).success
        assert escape.teardown("r0").success

        report = recover(escape.journal,
                         list(escape.cal.adapters.values()))
        successor = report.orchestrator
        assert report.restored == ["r1"]
        assert successor.deployed_services() == ["r1"]
        assert report.ok()
        assert report.in_flight == []
        # the domain holds exactly the recovered service's NFs
        booked = set(successor.cal.snapshot_service("r1")[1].nf_placement)
        assert {nf.id for nf in inner.installed.nfs} == booked

    def test_crash_mid_deploy_is_rolled_back_and_swept(self):
        escape, inner = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        # crash right before the second deploy's commit record (the
        # plan counts appends from when it is armed: intent=0,
        # outcome=1, commit=2) — the push has already landed on the
        # domain, a classic half-done op
        escape.journal.crash_plan = CrashPlan(at=2)
        with pytest.raises(OrchestratorCrash):
            escape.deploy(_chain_service(1), wait_activation=False)
        assert any(nf.id.startswith("r1") for nf in inner.installed.nfs)

        report = recover(escape.journal,
                         list(escape.cal.adapters.values()))
        successor = report.orchestrator
        assert successor.deployed_services() == ["r0"]
        assert len(report.in_flight) == 1
        assert report.in_flight[0]["service_id"] == "r1"
        assert report.diffs["dom"].touched_by_inflight
        # anti-entropy swept the half-landed NFs off the domain
        booked = set(successor.cal.snapshot_service("r0")[1].nf_placement)
        assert {nf.id for nf in inner.installed.nfs} == booked

    def test_crash_mid_teardown_finishes_on_recovery(self):
        escape, inner = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        escape.journal.crash_plan = CrashPlan(at=0)  # before the intent
        with pytest.raises(OrchestratorCrash):
            escape.teardown("r0")

        report = recover(escape.journal,
                         list(escape.cal.adapters.values()))
        # the teardown never journaled its intent, so the service is
        # still desired state — recovery restores it, not removes it
        assert report.orchestrator.deployed_services() == ["r0"]
        booked = set(
            report.orchestrator.cal.snapshot_service("r0")[1].nf_placement)
        assert {nf.id for nf in inner.installed.nfs} == booked

    def test_dry_run_pushes_nothing_and_keeps_journal(self):
        escape, inner = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        installs = inner.installs
        records = journal_len = len(escape.journal)

        report = recover(escape.journal,
                         list(escape.cal.adapters.values()), dry_run=True)
        assert report.dry_run
        assert report.restored == ["r0"]
        assert report.pushes == []
        assert inner.installs == installs
        assert len(escape.journal) == journal_len == records
        text = report.render_text()
        assert "dry run" in text

    def test_recovery_checkpoints_the_new_epoch(self):
        escape, _ = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        report = recover(escape.journal,
                         list(escape.cal.adapters.values()))
        assert report.orchestrator is not escape
        # post-recovery the journal holds the recovered epoch's
        # checkpoint (+ whatever import intent preceded it)
        assert journal_kinds(escape.journal)[-1] == "checkpoint"
        replay = escape.journal.replay()
        assert sorted(replay.state["services"]) == ["r0"]

    def test_recovered_dov_matches_rebuild(self):
        escape, _ = _direct_escape()
        for index in range(3):
            assert escape.deploy(_chain_service(index),
                                 wait_activation=False).success
        escape.teardown("r1")
        report = recover(escape.journal,
                         list(escape.cal.adapters.values()))
        cal = report.orchestrator.cal
        assert cal.dov.nfs and cal.verify() == []


def journal_kinds(journal):
    return [record["kind"] for record in journal.records()]


class TestBreakerPersistence:
    def test_closed_round_trip(self):
        breaker = CircuitBreaker("b", failure_threshold=3)
        breaker.record_failure()
        state = breaker.export_state()
        other = CircuitBreaker("b2", failure_threshold=3)
        other.import_state(state)
        assert other.state is BreakerState.CLOSED
        assert other.consecutive_failures == 1

    def test_open_round_trip_reanchors_window(self):
        clock = [100.0]
        breaker = CircuitBreaker("b", failure_threshold=1,
                                 recovery_time_s=30.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock[0] = 110.0  # 10s into the 30s window
        state = breaker.export_state()
        assert state["open_remaining_s"] == pytest.approx(20.0)

        # the successor's clock starts from a completely different epoch
        clock2 = [5000.0]
        other = CircuitBreaker("b2", failure_threshold=1,
                               recovery_time_s=30.0,
                               clock=lambda: clock2[0])
        other.import_state(state)
        assert other.state is BreakerState.OPEN
        clock2[0] += 19.0
        assert other.state is BreakerState.OPEN
        clock2[0] += 2.0  # window elapsed: probe allowed
        assert other.state is BreakerState.HALF_OPEN

    def test_trip_count_survives(self):
        breaker = CircuitBreaker("b", failure_threshold=1)
        breaker.record_failure()
        breaker.record_success()
        other = CircuitBreaker("b2")
        other.import_state(breaker.export_state())
        assert other.trips == 1


class TestResilienceStateRoundTrip:
    def test_export_state_carries_resilience(self):
        escape, _ = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        state = escape.export_state()
        assert "resilience" in state
        assert "dom" in state["resilience"]["breakers"]
        assert state["resilience"]["pending"] == []
        json.dumps(state)  # still fully serializable

    def test_pending_replay_restored_on_import(self):
        escape, _ = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        state = escape.export_state()
        state["resilience"]["pending"] = ["dom"]
        state["resilience"]["breakers"]["dom"]["state"] = "open"
        state["resilience"]["breakers"]["dom"]["open_remaining_s"] = 30.0

        successor, _ = _direct_escape()
        successor.import_state(state, push=False)
        assert successor.cal.pending_reconciliation() == {"dom"}
        assert successor.cal.breakers["dom"].state is BreakerState.OPEN

    def test_unknown_breaker_names_are_skipped(self):
        # failover controllers may re-register adapters under new names
        escape, _ = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        state = escape.export_state()
        state["resilience"]["breakers"]["ghost"] = {"state": "open"}
        state["resilience"]["pending"] = ["ghost"]
        successor, _ = _direct_escape()
        successor.import_state(state, push=False)  # must not raise
        assert "ghost" not in successor.cal.breakers


class TestImportReconcile:
    def test_nonempty_import_still_rejected_by_default(self):
        escape, _ = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        state = escape.export_state()
        with pytest.raises(RuntimeError, match="reconcile=True"):
            escape.import_state(state)

    def test_reconcile_diffs_against_running_state(self):
        escape, inner = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        assert escape.deploy(_chain_service(1), wait_activation=False).success
        state = json.loads(json.dumps(escape.export_state()))
        # incoming state: r0 gone, r1 kept verbatim, r2 new
        del state["services"]["r0"]
        assert escape.deploy(_chain_service(2), wait_activation=False).success
        state["services"]["r2"] = escape.export_state()["services"]["r2"]
        escape.teardown("r2")

        restored = escape.import_state(state, reconcile=True)
        assert sorted(escape.deployed_services()) == ["r1", "r2"]
        assert "r2" in restored
        booked = {nf_id
                  for service_id in escape.deployed_services()
                  for nf_id in escape.cal.snapshot_service(
                      service_id)[1].nf_placement}
        assert {nf.id for nf in inner.installed.nfs} == booked

    def test_reconcile_into_empty_equals_plain_import(self):
        escape, _ = _direct_escape()
        assert escape.deploy(_chain_service(0), wait_activation=False).success
        state = escape.export_state()
        successor, _ = _direct_escape()
        restored = successor.import_state(state, reconcile=True)
        assert restored == ["r0"]
        assert successor.export_state()["services"] == state["services"]


class TestRecoverCli:
    def test_crash_storm_then_recover_exits_zero(self, tmp_path, capsys):
        from repro.cli.main import main

        journal_path = tmp_path / "crash-journal.jsonl"
        code = main(["recover", "--deploys", "2", "--seed", "7",
                     "--journal", str(journal_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert journal_path.exists()

    def test_dry_run_exits_zero_without_pushes(self, tmp_path, capsys):
        from repro.cli.main import main

        code = main(["recover", "--deploys", "2", "--crash-at", "5",
                     "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run" in out
