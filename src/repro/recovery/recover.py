"""Crash recovery: rebuild from checkpoint + replay, then reconcile.

:func:`recover` is what a successor controller runs after the previous
orchestrator process died:

1. **Replay** — fold the journal (checkpoint + committed intents) into
   the export-schema desired state; in-flight intents contribute
   nothing and are thereby rolled back.
2. **Rebuild** — construct a fresh :class:`EscapeOrchestrator` sharing
   the journal, re-register the surviving domain adapters, and import
   the folded state (placements and routes replayed verbatim, breaker
   and pending-replay state restored from the last checkpoint).
3. **Anti-entropy** — fetch live domain views through the CAL,
   diff them against the recovered desired state, then push the full
   desired configuration to every domain.  A full push *replaces* the
   domain's cumulative config, so it simultaneously finishes partially
   pushed intents, rolls back half-landed ones, and sweeps orphaned
   NFs/flowrules no committed service owns — at most once per domain,
   with the delta-push digest guard turning the push into a no-op or
   minimal delta on domains whose adapter state survived.
4. **Checkpoint** — fold the recovered state into the journal so the
   next crash replays from here, not from the previous epoch.

``dry_run=True`` stops after the diff: nothing is pushed and the
journal is left untouched (the rebuilt orchestrator books against a
scratch journal).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro import obs
from repro.orchestration.adapters import AdapterReport, DomainAdapter
from repro.perf import counters, observe
from repro.recovery.journal import IntentJournal

__all__ = ["DomainDiff", "RecoveryReport", "recover"]


@dataclass
class DomainDiff:
    """Recovered desired state vs the live view of one domain."""

    domain: str
    #: NF ids the committed desired state places on this domain
    desired_nfs: list[str] = field(default_factory=list)
    #: NF ids the domain's live view advertises (many domain types
    #: advertise substrate only; an empty list is then inconclusive)
    observed_nfs: list[str] = field(default_factory=list)
    #: observed NFs no committed service owns — swept by the push
    orphaned_nfs: list[str] = field(default_factory=list)
    #: the domain received pushes from an intent that never committed,
    #: so it may hold config the push must roll back
    touched_by_inflight: bool = False
    #: the live view fetch succeeded
    reachable: bool = True


@dataclass
class RecoveryReport:
    """What :func:`recover` rebuilt, diffed, and pushed."""

    orchestrator: object
    restored: list[str]
    committed: int
    aborted: int
    in_flight: list[dict]
    checkpoint_used: bool
    diffs: dict[str, DomainDiff]
    pushes: list[AdapterReport] = field(default_factory=list)
    duration_s: float = 0.0
    dry_run: bool = False

    def ok(self) -> bool:
        """True when every reconciliation push landed (or was a
        breaker-admitted skip that stays queued for replay)."""
        return all(r.success or r.skipped for r in self.pushes)

    def render_text(self) -> str:
        lines = [
            f"recovered {len(self.restored)} service(s)"
            + (" from checkpoint + journal" if self.checkpoint_used
               else " from journal replay")
            + (" [dry run]" if self.dry_run else ""),
            f"  intents: {self.committed} committed, "
            f"{self.aborted} aborted, "
            f"{len(self.in_flight)} in-flight rolled back",
        ]
        for intent in self.in_flight:
            target = intent.get("service_id") or "-"
            domains = sorted(intent.get("outcomes", {}))
            lines.append(
                f"    rolled back: {intent.get('op')} {target}"
                + (f" (had pushed to: {', '.join(domains)})"
                   if domains else " (no pushes recorded)"))
        for name in sorted(self.diffs):
            diff = self.diffs[name]
            flags = []
            if not diff.reachable:
                flags.append("UNREACHABLE")
            if diff.touched_by_inflight:
                flags.append("in-flight config possible")
            if diff.orphaned_nfs:
                flags.append(f"orphans: {', '.join(diff.orphaned_nfs)}")
            lines.append(
                f"  {name}: desired={len(diff.desired_nfs)} NF(s)"
                + (f", observed={len(diff.observed_nfs)}"
                   if diff.observed_nfs else "")
                + (f" [{'; '.join(flags)}]" if flags else ""))
        if self.pushes:
            rendered = ", ".join(
                f"{r.domain}:{'ok' if r.success else ('skipped' if r.skipped else 'FAILED')}"
                for r in self.pushes)
            lines.append(f"  reconciliation pushes: {rendered}")
        elif self.dry_run:
            lines.append("  no pushes performed (dry run)")
        lines.append(f"  took {self.duration_s * 1e3:.1f} ms")
        return "\n".join(lines)


def recover(journal: IntentJournal,
            adapters: Iterable[DomainAdapter], *,
            name: str = "recovered",
            dry_run: bool = False,
            push: bool = True,
            simulator: Optional[object] = None,
            **escape_kwargs) -> RecoveryReport:
    """Rebuild a fresh orchestrator from ``journal`` and reconcile it
    against the live ``adapters``.  Returns a :class:`RecoveryReport`
    whose ``orchestrator`` is the ready successor controller.

    Extra keyword arguments (``embedder``, ``push_workers``,
    ``lint_gate``, ...) are forwarded to the successor's
    constructor.
    """
    from repro.orchestration.escape import EscapeOrchestrator

    started = time.perf_counter()
    counters.incr("recovery.runs.dry" if dry_run else "recovery.runs")
    with obs.span("recover", dry_run=dry_run):
        replay = journal.replay()
        # the crash already happened: never let a still-armed plan kill
        # the successor's own journal appends
        journal.crash_plan = None
        # a dry run must not grow the real journal with import records
        successor_journal = IntentJournal() if dry_run else journal
        escape = EscapeOrchestrator(
            name, journal=successor_journal, simulator=simulator,
            **escape_kwargs)
        for adapter in adapters:
            escape.add_domain(adapter)
        with obs.span("recover/import"):
            restored = escape.import_state(replay.state, push=False)
        counters.incr("recovery.restored", len(restored))
        counters.incr("recovery.inflight.rolled_back",
                      len(replay.in_flight))

        inflight_domains = {domain
                            for intent in replay.in_flight
                            for domain in intent.get("outcomes", {})}
        with obs.span("recover/diff"):
            diffs = _diff_domains(escape, inflight_domains)

        pushes: list[AdapterReport] = []
        if push and not dry_run:
            with obs.span("recover/push"):
                pushes = escape.cal.push_all()
            if escape.simulator is not None:
                escape._wait_activation(60_000.0)
            # fold the recovered epoch into the journal: the next crash
            # replays from here instead of re-walking the old log
            journal.checkpoint(escape.export_state())

    duration = time.perf_counter() - started
    observe("recovery.latency_s", duration)
    report = RecoveryReport(
        orchestrator=escape, restored=restored,
        committed=replay.committed, aborted=replay.aborted,
        in_flight=replay.in_flight,
        checkpoint_used=replay.checkpoint_used,
        diffs=diffs, pushes=pushes, duration_s=duration, dry_run=dry_run)
    obs.event("recovery", restored=len(restored),
              in_flight=len(replay.in_flight), dry_run=dry_run,
              ok=report.ok(), duration_ms=round(duration * 1e3, 3))
    return report


def _diff_domains(escape, inflight_domains: set[str]) -> dict[str, DomainDiff]:
    """Diff each domain's live view against the recovered desired
    state.  The views are the ones ``import_state`` just fetched into
    this fresh CAL; a domain nothing fetched yet (an empty journal) or
    whose fetch failed is still stale and is fetched here."""
    cal = escape.cal
    live = cal.pristine_view(refresh=False)
    placed = {nf_id: infra_id
              for service_id in cal.deployed_services()
              for nf_id, infra_id in cal.snapshot_service(
                  service_id)[1].nf_placement.items()}
    diffs: dict[str, DomainDiff] = {}
    for nm in cal.adapters:
        owned = set(cal.owned_infras(nm))
        observed = {nf.id for infra_id in owned if live.has_node(infra_id)
                    for nf in live.nfs_on(infra_id)}
        diffs[nm] = DomainDiff(
            domain=nm,
            desired_nfs=sorted(nf_id for nf_id, infra_id in placed.items()
                               if infra_id in owned),
            observed_nfs=sorted(observed),
            orphaned_nfs=sorted(observed - placed.keys()),
            touched_by_inflight=nm in inflight_domains,
            reachable=nm not in cal.last_view_failures)
    return diffs
