"""Crash-atomicity property: recovery lands on a committed prefix.

A fixed operation script runs against a direct domain with the crash
injector armed at *every* possible journal append index ``k`` in turn.
Whatever ``k`` is — before an intent, between per-domain outcome
records, just before a commit, even inside a checkpoint — recovery
from the journal must land on exactly one of the states a clean run
passed through at a commit boundary:

1. the recovered desired state equals some committed prefix state of
   the clean run (no torn intents survive, no committed intent is
   lost);
2. the recovered derived state equals a from-scratch re-derivation
   (``cal.verify()``);
3. the domain holds exactly the recovered services' footprint — the
   anti-entropy push swept every half-landed NF and flowrule.

The loop is deterministic (no hypothesis): the journal append count of
a clean run *is* the exhaustive case list.  A second pass replays a few
crash points through a file-backed journal + :meth:`IntentJournal.load`
to cover the durability path, and a third pass shrinks
``checkpoint_every`` so crashes land around checkpoint truncation too.
"""

import json

import pytest

from repro.nffg.builder import mesh_substrate
from repro.orchestration import DirectDomainAdapter, EscapeOrchestrator
from repro.recovery import CrashPlan, IntentJournal, OrchestratorCrash, recover

from tests.property.test_chaos_soak import _chain_service

#: deploy / teardown / update / redeploy — every intent kind the
#: orchestrator journals, over overlapping service lifetimes
SCRIPT = [("deploy", 0), ("deploy", 1), ("teardown", 0),
          ("update", 1), ("deploy", 2)]


def _fresh_escape(journal):
    escape = EscapeOrchestrator("crashy", journal=journal)
    inner = DirectDomainAdapter(
        "dom", view=mesh_substrate(12, degree=3, seed=5,
                                   supported_types=["firewall"]))
    escape.add_domain(inner)
    return escape, inner


def _run_script(escape):
    for kind, index in SCRIPT:
        if kind == "deploy":
            assert escape.deploy(_chain_service(index),
                                 wait_activation=False).success
        elif kind == "teardown":
            assert escape.teardown(f"c{index}").success
        elif kind == "update":
            assert escape.update(_chain_service(index, 2)).success


def _services_fingerprint(escape):
    return json.dumps(escape.export_state()["services"], sort_keys=True)


def _clean_run(checkpoint_every=10_000):
    """One fault-free pass: returns (total appends, the set of states
    visible at commit boundaries)."""
    journal = IntentJournal(checkpoint_every=checkpoint_every)
    escape, _ = _fresh_escape(journal)
    committed_states = {_services_fingerprint(escape)}  # the empty state
    for kind, index in SCRIPT:
        if kind == "deploy":
            assert escape.deploy(_chain_service(index),
                                 wait_activation=False).success
        elif kind == "teardown":
            assert escape.teardown(f"c{index}").success
        elif kind == "update":
            assert escape.update(_chain_service(index, 2)).success
        committed_states.add(_services_fingerprint(escape))
    return journal.total_appends, committed_states


def _assert_recovered_invariants(report, inner, committed_states, label):
    successor = report.orchestrator
    assert _services_fingerprint(successor) in committed_states, (
        f"{label}: recovered state is not any committed prefix state")
    cal = successor.cal
    assert cal.verify() == [], (
        f"{label}: recovered derived state diverges from a rebuild")
    booked = {nf_id
              for service_id in cal.deployed_services()
              for nf_id in cal.snapshot_service(service_id)[1].nf_placement}
    installed = ({nf.id for nf in inner.installed.nfs}
                 if inner.installed else set())
    assert installed == booked, (
        f"{label}: domain holds {sorted(installed)} "
        f"but the books say {sorted(booked)}")
    assert report.ok(), f"{label}: reconciliation push failed"


def _crash_then_recover(k, *, checkpoint_every=10_000):
    journal = IntentJournal(checkpoint_every=checkpoint_every)
    journal.crash_plan = CrashPlan(at=k, label=f"at-{k}")
    escape, inner = _fresh_escape(journal)
    crashed = False
    try:
        _run_script(escape)
    except OrchestratorCrash:
        crashed = True
    report = recover(journal, list(escape.cal.adapters.values()),
                     name=f"succ-{k}")
    return report, inner, crashed


def test_crash_at_every_append_recovers_to_a_committed_state():
    total, committed_states = _clean_run()
    assert total >= len(SCRIPT) * 2  # intent + commit per op, minimum
    for k in range(total + 1):
        report, inner, crashed = _crash_then_recover(k)
        assert crashed == (k < total)
        _assert_recovered_invariants(report, inner, committed_states,
                                     f"crash at append {k}")


def test_crash_points_survive_a_file_backed_journal(tmp_path):
    """The same property through the durability path: journal on disk,
    crash, re-open with :meth:`IntentJournal.load`, recover."""
    total, committed_states = _clean_run()
    for k in (1, total // 2, total - 1):
        path = tmp_path / f"crash-{k}.jsonl"
        journal = IntentJournal(path)
        journal.crash_plan = CrashPlan(at=k, label=f"disk-at-{k}")
        escape, inner = _fresh_escape(journal)
        with pytest.raises(OrchestratorCrash):
            _run_script(escape)
        journal.close()

        loaded = IntentJournal.load(path)
        assert loaded.total_appends == journal.total_appends
        report = recover(loaded, list(escape.cal.adapters.values()),
                         name=f"disk-succ-{k}")
        _assert_recovered_invariants(report, inner, committed_states,
                                     f"disk crash at append {k}")
        loaded.close()


def test_crash_at_every_append_with_aggressive_checkpointing():
    """checkpoint_every=2 makes checkpoint truncation happen mid-script,
    so crash points land before/inside checkpoints as well — the
    recovered state must still be a committed prefix state."""
    total, committed_states = _clean_run(checkpoint_every=2)
    for k in range(total + 1):
        report, inner, _ = _crash_then_recover(k, checkpoint_every=2)
        _assert_recovered_invariants(
            report, inner, committed_states,
            f"crash at append {k} (checkpoint_every=2)")
