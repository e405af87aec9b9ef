"""The ESCAPEv2 facade: service deployment over registered domains.

An :class:`EscapeOrchestrator` is the complete stack of Fig. 1's red
boxes for one administrative level: it accepts service graphs, maps
them with its RO onto the CAL's global view, pushes the result to every
technology domain and tracks lifecycle.  Its north side speaks the
Unify interface (see :mod:`repro.orchestration.unify`), so instances
stack recursively.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Union

from repro import obs
from repro.lint import DiagnosticList, Severity, lint_nffg
from repro.mapping.base import Embedder, touched_infra_ids
from repro.mapping.decomposition import DecompositionLibrary
from repro.mapping.greedy import RerouteEmbedder
from repro.mapping.pathcache import PathCache
from repro.nffg.graph import NFFG
from repro.orchestration.cal import ControllerAdaptationLayer
from repro.orchestration.adapters import DomainAdapter
from repro.orchestration.dispatch import DEFAULT_MAX_WORKERS
from repro.orchestration.report import DeployReport
from repro.orchestration.ro import ResourceOrchestrator
from repro.perf import counters, observe
from repro.recovery.journal import IntentJournal, IntentScope
from repro.sim.kernel import Simulator


class EscapeOrchestrator:
    """Service layer entry point + RO + CAL, composed."""

    def __init__(self, name: str = "escape", *,
                 embedder: Optional[Union[Embedder, str]] = None,
                 decomposition_library: Optional[DecompositionLibrary] = None,
                 simulator: Optional[Simulator] = None,
                 lint_gate: Optional[Severity] = Severity.ERROR,
                 push_workers: int = DEFAULT_MAX_WORKERS,
                 cal_shards: int = 1,
                 journal: Optional[IntentJournal] = None,
                 journal_path: Optional[str] = None):
        self.name = name
        self.ro = ResourceOrchestrator(
            embedder=embedder, decomposition_library=decomposition_library)
        # push_workers bounds the CAL's concurrent domain fan-out;
        # 1 (or 0) forces strictly serial pushes on the caller's thread.
        # cal_shards is accepted and ignored: the CAL caches one view per
        # domain, and an existing benchmark workload still passes it.
        self.cal = ControllerAdaptationLayer(push_workers=push_workers)
        #: substrate path memo shared across all mapping requests;
        #: invalidated whenever the CAL's topology generation moves
        self.path_cache = PathCache()
        self.simulator = simulator
        #: severity at/above which the pre-deploy static-analysis gate
        #: refuses a service graph; None disables the gate entirely
        self.lint_gate = lint_gate
        #: the last deploy / update report per installed service, kept
        #: until its teardown: its ``mapping`` is the RO's graph-free
        #: record (placement, routes), never a graph — only direct
        #: ``Embedder.map()`` callers hold those
        self.reports: dict[str, DeployReport] = {}
        #: write-ahead intent journal (see :mod:`repro.recovery`):
        #: every lifecycle operation books two-phase records here, and
        #: checkpoints fold our export_state() back into the log
        if journal is None:
            journal = IntentJournal(
                journal_path or os.environ.get("REPRO_JOURNAL") or None)
        self.journal = journal
        self.journal.state_provider = self.export_state

    # -- domain management ---------------------------------------------------

    def add_domain(self, adapter: DomainAdapter) -> DomainAdapter:
        return self.cal.register(adapter)

    def global_view(self) -> NFFG:
        return self.cal.dov

    def resource_view(self) -> NFFG:
        """A private copy of the remaining-capacity view for northbound
        consumers (the CAL's own is live and read-only)."""
        return self.cal.resource_view().copy("dov-remaining")

    def _orchestrate(self, service: NFFG, view: NFFG, ro=None):
        """Run the RO (``ro``: another one) with the shared path cache
        and the CAL's substrate index, both synced to the current
        substrate topology generation (the index ignores itself when
        ``view`` is a copy it does not cover)."""
        cache = self.path_cache.sync(self.cal.topology_generation)
        return (ro or self.ro).orchestrate(service, view, path_cache=cache,
                                           index=self.cal.substrate_index)

    # -- service lifecycle -----------------------------------------------------

    def deploy(self, service: NFFG, *,
               wait_activation: bool = True,
               max_activation_ms: float = 60_000.0) -> DeployReport:
        """Map + deploy a service graph across all domains.

        Runs the shared simulator (when present) until every NF
        reported up, so callers can inject traffic right away.

        With tracing on the whole request runs inside a root ``deploy``
        span (stage spans nested under it) and lands one ``deploy``
        event; end-to-end latency always feeds the ``deploy.latency_s``
        histogram.
        """
        report = DeployReport(service_id=service.id, success=False)
        with obs.span("deploy", service=service.id) as root:
            started = time.perf_counter()
            self._deploy(service, report, wait_activation, max_activation_ms)
            report.total_time_s = time.perf_counter() - started
            self.reports[service.id] = report
            root.set(outcome=report.resolved_outcome())
            obs.event("deploy", service=service.id,
                      outcome=report.resolved_outcome(), error=report.error,
                      duration_ms=round(report.total_time_s * 1e3, 3))
        observe("deploy.latency_s", report.total_time_s)
        return report

    def _deploy(self, service: NFFG, report: DeployReport,
                wait_activation: bool, max_activation_ms: float) -> None:
        """Run the deploy pipeline, filling ``report``; returns early
        with ``report.error`` set at the first stage that refuses."""
        if service.id in self.cal.deployed_services():
            report.error = f"service {service.id!r} already deployed"
            return

        lint_started = time.perf_counter()
        with obs.span("deploy/lint"):
            blocking = self._verify_service(service, report)
        report.lint_time_s = time.perf_counter() - lint_started
        if blocking:
            report.error = ("lint gate rejected service graph: "
                           + "; ".join(f"{d.rule_id}: {d.message}"
                                       for d in blocking))
            return

        report.error = self._id_collisions(service)
        if report.error:
            return

        view_started = time.perf_counter()
        with obs.span("deploy/view"):
            # the live view: embedders never mutate their input
            view = self.cal.resource_view()
        report.view_time_s = time.perf_counter() - view_started

        from repro.nffg.serialize import nffg_to_dict

        with self.journal.intent(
                "deploy", service.id,
                payload={"service": nffg_to_dict(service)}) as intent:
            with obs.span("deploy/map"):
                result = self._orchestrate(service, view)
            report.mapping = result
            report.mapping_time_s = result.runtime_s
            if not result.success:
                report.error = f"mapping failed: {result.failure_reason}"
                intent.abort(report.error)
                return

            effective_service = result.service if result.service is not None \
                else service
            self.cal.commit_mapping(service.id, effective_service, result)
            self._push_and_commit(
                service.id, result, report, intent,
                wait_ms=max_activation_ms if wait_activation else None)

    def _push_and_commit(self, service_id: str, result, report: DeployReport,
                         intent: IntentScope, *,
                         snapshot: Optional[tuple] = None,
                         wait_ms: Optional[float] = 60_000.0) -> None:
        """What deploy and update do with a mapping the books took: the
        planned push — only the domains it touched (plus any queued
        reconciliations) are contacted —, a rollback (to ``snapshot``,
        the version an update replaced) if a domain refuses, else the
        wait for activation (``wait_ms``; None: none) and the commit."""
        push_started = time.perf_counter()
        with obs.span("deploy/push"):
            report.adapters = self.cal.push_planned()
        report.push_time_s = time.perf_counter() - push_started
        intent.record_pushes(report.adapters)
        report.domains_touched = len(self.cal.adapter_names_for(result))
        failures = [r for r in report.adapters
                    if not r.success and not r.skipped]
        if failures:
            report.error = (
                ("update push failed, previous version restored: "
                 if snapshot is not None else "")
                + "; ".join(f"{r.domain}: {r.error}" for r in failures))
            self._rollback(service_id, report, intent, snapshot)
            return
        if wait_ms is not None:
            activation_started = time.perf_counter()
            with obs.span("deploy/activate"):
                report.activation_virtual_ms = self._wait_activation(wait_ms)
            report.activation_time_s = (time.perf_counter()
                                        - activation_started)
        report.success = True
        report.outcome = self._classify_push(result, report.adapters)
        intent.commit({service_id: self._service_record(service_id)})

    def _id_collisions(self, service: NFFG,
                       own: Optional[NFFG] = None) -> str:
        """Why ``service`` cannot join the deployed state ('' when it
        can): an NF or edge id of it is taken by something other than
        ``own``, the version of it an update replaces."""
        dov = self.cal.dov
        taken = sorted(
            {nf.id for nf in service.nfs if dov.has_node(nf.id)}
            | {edge.id for edge in service.edges if dov.has_edge(edge.id)})
        if own is not None:
            taken = [member for member in taken
                     if not (own.has_node(member) or own.has_edge(member))]
        if not taken:
            return ""
        return ("service element ids collide with deployed state: "
                f"{taken} — NF and edge ids must be unique across services")

    def _rollback(self, service_id: str, report: DeployReport,
                  intent: IntentScope,
                  snapshot: Optional[tuple] = None) -> None:
        """Undo a half-pushed service — putting ``snapshot``, the
        version it replaced, back when there is one — reconcile every
        domain, record how those pushes went (silently diverging
        rollbacks are themselves failures) and abort the intent with
        ``report.error``."""
        rollback_started = time.perf_counter()
        with obs.span("deploy/rollback", service=service_id):
            self.cal.remove_service(service_id)
            if snapshot is not None:
                self.cal.restore_service(service_id, snapshot)
            report.rollback = self.cal.push_all()
        intent.record_pushes(report.rollback, stage="rollback")
        report.rollback_time_s = time.perf_counter() - rollback_started
        report.outcome = "failed"
        failed = report.rollback_failures()
        if failed:
            counters.incr("resilience.rollback.failures", len(failed))
            report.error += ("; rollback incomplete: "
                             + "; ".join(f"{r.domain}: {r.error}"
                                         for r in failed))
        obs.event("rollback", service=service_id,
                  pushes=len(report.rollback), failures=len(failed))
        intent.abort(report.error)

    def _classify_push(self, result, adapter_reports) -> str:
        """``success`` when every domain the service touches took its
        push; ``degraded`` when a touched domain was skipped (breaker
        open) and awaits reconciliation."""
        not_pushed = {r.domain for r in adapter_reports if not r.success}
        if not not_pushed:
            return "success"
        relevant = self.cal.adapter_names_for(result)
        return "degraded" if not_pushed & relevant else "success"

    def _verify_service(self, service: NFFG,
                        report: DeployReport) -> DiagnosticList:
        """Run the static-analysis gate over an incoming service graph.

        All findings are recorded on the report; the returned list holds
        only those at/above the configured gate severity — a non-empty
        result means the deployment must be refused.
        """
        if self.lint_gate is None:
            return DiagnosticList()
        diagnostics = lint_nffg(
            service,
            decomposition_library=self.ro.decomposition_library)
        report.lint = diagnostics
        return diagnostics.at_least(self.lint_gate)

    def _wait_activation(self, max_ms: float) -> float:
        if self.simulator is None:
            return 0.0
        start = self.simulator.now
        deadline = start + max_ms
        while not self.cal.ready():
            next_time = self.simulator.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.simulator.step()
        # let in-flight dataplane/control events settle
        self.simulator.run()
        return self.simulator.now - start

    def teardown(self, service_id: str) -> DeployReport:
        """Remove a deployed service and reconcile every domain.

        Returns a report (truthy on success, so boolean callers keep
        working): a failed or skipped reconciliation push means a
        domain still holds the service's stale state — the report says
        which, instead of pretending the teardown completed.
        """
        with obs.span("teardown", service=service_id) as root:
            report = self._teardown(service_id)
            root.set(outcome=report.resolved_outcome())
            obs.event("teardown", service=service_id,
                      outcome=report.resolved_outcome(), error=report.error)
        return report

    def _teardown(self, service_id: str) -> DeployReport:
        report = DeployReport(service_id=service_id, success=False)
        if service_id not in self.cal.deployed_services():
            report.error = f"unknown service {service_id!r}"
            return report
        with self.journal.intent("teardown", service_id) as intent:
            self.cal.remove_service(service_id)
            adapter_reports = self.cal.push_planned()
            report.adapters = adapter_reports
            intent.record_pushes(adapter_reports)
            failures = [r for r in adapter_reports
                        if not r.success and not r.skipped]
            skipped = [r for r in adapter_reports if r.skipped]
            report.success = not failures
            if failures:
                report.outcome = "failed"
                report.error = ("stale state left in: "
                                + "; ".join(f"{r.domain}: {r.error}"
                                            for r in failures))
            elif skipped:
                report.outcome = "degraded"
            else:
                report.outcome = "success"
            # the books say removed even when a domain kept stale state
            # (it stays pending for replay): commit the removal
            intent.commit({service_id: None})
        if self.simulator is not None:
            self.simulator.run()
        self.reports.pop(service_id, None)
        return report

    def deployed_services(self) -> list[str]:
        return self.cal.deployed_services()

    # -- dynamic operation -----------------------------------------------

    def update(self, service: NFFG) -> DeployReport:
        """Replace a deployed service with a new version, atomically
        from the tenant's perspective.

        The new version is mapped against a view *without* the old one;
        if mapping fails the old version keeps running untouched and
        the failure is reported.  On success one reconciliation push
        swaps the versions — domain orchestrators keep NFs whose ids
        did not change running across the swap.
        """
        if service.id not in self.cal.deployed_services():
            return self.deploy(service)
        report = DeployReport(service_id=service.id, success=False)
        with obs.span("update", service=service.id) as root:
            started = time.perf_counter()
            self._update(service, report)
            report.total_time_s = time.perf_counter() - started
            self.reports[service.id] = report
            root.set(outcome=report.resolved_outcome())
            obs.event("update", service=service.id,
                      outcome=report.resolved_outcome(), error=report.error)
        return report

    def _update(self, service: NFFG, report: DeployReport) -> None:
        """Run the update pipeline, filling ``report``; whatever stage
        refuses before the push, the previous version is kept."""
        lint_started = time.perf_counter()
        blocking = self._verify_service(service, report)
        report.lint_time_s = time.perf_counter() - lint_started
        if blocking:
            report.error = ("update rejected by lint gate, previous "
                            "version kept: "
                            + "; ".join(f"{d.rule_id}: {d.message}"
                                        for d in blocking))
            return
        from repro.nffg.serialize import nffg_to_dict

        with self.journal.intent(
                "update", service.id,
                payload={"service": nffg_to_dict(service)}) as intent:
            snapshot = self.cal.snapshot_service(service.id)
            # an update is a reconciliation point: re-fetch the domain
            # views (capacity may have drifted); the derived state goes
            # only if a view differs, and not for links alone
            view_started = time.perf_counter()
            self.cal.pristine_view()
            # against the refreshed DoV, before the books are touched
            collisions = self._id_collisions(service, own=snapshot[0])
            if collisions:
                report.error = ("update rejected, previous version kept: "
                                + collisions)
                intent.abort(report.error)
                return
            self.cal.remove_service(service.id)
            try:
                view = self.cal.resource_view()
                report.view_time_s = time.perf_counter() - view_started
                result = report.mapping = self._orchestrate(service, view)
                report.mapping_time_s = result.runtime_s
                if result.success:
                    self.cal.commit_mapping(
                        service.id, result.service if result.service
                        is not None else service, result)
                else:
                    report.error = ("update rejected, previous version "
                                    f"kept: {result.failure_reason}")
            except Exception as exc:  # noqa: BLE001 - books before blame
                # the live view may hold half a mapping: drop it too
                self.cal.mark_stale()
                report.error = ("update failed, previous version kept: "
                                f"{type(exc).__name__}: {exc}")
            if report.error:
                self.cal.restore_service(service.id, snapshot)
                intent.abort(report.error)
                return
            self._push_and_commit(service.id, result, report, intent,
                                  snapshot=snapshot)

    def heal(self) -> dict[str, DeployReport]:
        """Re-map services broken by topology changes or domain
        outages against the current (possibly degraded) domain views.

        Domain views are re-fetched; a quarantined or unreachable
        domain (open circuit breaker, view fetch failing after
        retries) is excluded from the merge, so its substrate simply
        disappears.  Any deployed service whose routes use a link that
        no longer exists, *or whose placements/routes sit on a vanished
        domain*, is re-mapped onto the surviving substrate: re-routed
        where all its NF hosts survive, else re-embedded whole — the
        domain-outage case is an evacuation.  Returns per-service
        reports for everything re-mapped; a service whose relevant
        reconciliation push could not complete is marked ``degraded``.
        """
        with obs.span("heal") as root:
            started = time.perf_counter()
            reports = self._heal()
            total_time_s = time.perf_counter() - started
            for report in reports.values():
                report.total_time_s = total_time_s
            root.set(services=len(reports))
        return reports

    def _heal(self) -> dict[str, DeployReport]:
        fresh = self.cal.pristine_view()
        lost_domains = self.cal.quarantined_domains()
        if lost_domains:
            counters.incr("resilience.heal.domains_lost",
                          len(lost_domains))
            obs.event("heal.domains_lost", domains=sorted(lost_domains))
        broken: list[str] = []
        for service_id in self.cal.deployed_services():
            _, result = self.cal.snapshot_service(service_id)
            uses_missing = any(
                not fresh.has_edge(link_id)
                for route in result.hop_routes.values()
                for link_id in route.link_ids)
            stranded = not all(map(fresh.has_node, touched_infra_ids(
                result.nf_placement, result.hop_routes)))
            if uses_missing or stranded:
                broken.append(service_id)
                if stranded:
                    counters.incr("resilience.heal.evacuations")
                    obs.event("heal.evacuation", service=service_id)
        reports: dict[str, DeployReport] = {}
        if not broken:
            return reports
        with self.journal.intent(
                "heal", None, payload={"services": sorted(broken)}) as intent:
            snapshots = {service_id: self.cal.snapshot_service(service_id)
                         for service_id in broken}
            # the pristine_view() above already folded a links-only move
            # into the live DoV (or dropped it) and moved the path cache
            for service_id in broken:
                self.cal.remove_service(service_id)
            for service_id in broken:
                original_service, old = snapshots[service_id]
                with obs.span("heal/evacuate", service=service_id):
                    view_started = time.perf_counter()
                    view = self.cal.resource_view()
                    view_time_s = time.perf_counter() - view_started
                    # an RO of its own: the repair is verified like a map
                    repair = ResourceOrchestrator(RerouteEmbedder(old))
                    result = self._orchestrate(original_service, view, repair)
                    routes = result.hop_routes.items()
                    obs.event("heal.reroute", service=service_id,
                              error=result.failure_reason, hops=[
                                  hop_id for hop_id, route in routes
                                  if route != old.hop_routes.get(hop_id)])
                    counters.incr("resilience.heal.rerouted" if result.success
                                  else "resilience.heal.reembedded")
                    if not result.success:
                        result = self._orchestrate(original_service, view)
                reports[service_id] = report = DeployReport(
                    service_id=service_id, success=result.success,
                    mapping=result, view_time_s=view_time_s,
                    mapping_time_s=result.runtime_s)
                if result.success:
                    effective = (result.service if result.service is not None
                                 else original_service)
                    self.cal.commit_mapping(service_id, effective, result)
                else:
                    report.error = f"heal failed: {result.failure_reason}"
            push_started = time.perf_counter()
            adapter_reports = self.cal.push_planned()
            push_time_s = time.perf_counter() - push_started
            intent.record_pushes(adapter_reports)
            by_domain = {r.domain: r for r in adapter_reports}
            for report in reports.values():
                if not report.success:
                    continue  # never pushed: no adapter reports apply
                report.push_time_s = push_time_s  # one push for them all
                relevant = self.cal.adapter_names_for(report.mapping)
                report.domains_touched = len(relevant)
                report.adapters = [by_domain[name]
                                   for name in sorted(relevant)
                                   if name in by_domain]
                report.outcome = self._classify_push(report.mapping,
                                                     report.adapters)
            # one commit settles every broken service: re-embedded ones
            # carry their new records, failed evacuations are removals
            intent.commit({
                service_id: (self._service_record(service_id)
                             if reports[service_id].success else None)
                for service_id in broken})
        if self.simulator is not None:
            activation_started = time.perf_counter()
            virtual_ms = self._wait_activation(60_000.0)
            activation_time_s = time.perf_counter() - activation_started
            for report in reports.values():
                if report.success:
                    report.activation_virtual_ms = virtual_ms
                    report.activation_time_s = activation_time_s
        return reports

    # -- state persistence (controller restart / failover) -----------------

    def _service_record(self, service_id: str) -> dict:
        """Export-schema record of one deployed service — the shape
        journal commits and ``export_state()`` share."""
        from repro.nffg.serialize import nffg_to_dict

        service, result = self.cal.snapshot_service(service_id)
        return {
            "service": nffg_to_dict(service),
            "placement": dict(result.nf_placement),
            "routes": {hop_id: {
                "infra_path": list(route.infra_path),
                "link_ids": list(route.link_ids),
                "delay": route.delay,
                "bandwidth": route.bandwidth,
            } for hop_id, route in result.hop_routes.items()},
            "decompositions": dict(result.decompositions),
        }

    def export_state(self) -> dict:
        """Serialize deployed-service state (JSON-compatible).

        Captures each service's graph, NF placements and hop routes —
        everything a fresh controller instance needs to resume
        ownership of the same domains without re-planning — plus the
        CAL's resilience state (circuit breakers, domains with queued
        replays), so a snapshot taken mid-storm does not lose the
        pending reconciliation work.
        """
        services = {service_id: self._service_record(service_id)
                    for service_id in self.cal.deployed_services()}
        return {"orchestrator": self.name, "services": services,
                "resilience": self.cal.export_resilience()}

    def import_state(self, state: dict, *, push: bool = True,
                     reconcile: bool = False) -> list[str]:
        """Restore exported state into this orchestrator.

        Placements and routes are replayed verbatim (no re-mapping);
        with ``push`` the domains are reconciled immediately, which is
        a no-op on domains that still hold the configuration.  Breaker
        and pending-replay state ride along under ``"resilience"``.

        By default the orchestrator must be empty.  With
        ``reconcile=True`` a non-empty orchestrator diffs instead of
        refusing: services absent from ``state`` are removed,
        identical ones are kept untouched, and changed or new ones are
        (re)committed — the same anti-entropy shape ``recover()`` uses.
        """
        from repro.mapping.base import HopRoute, MappingResult
        from repro.nffg.serialize import nffg_from_dict

        current = set(self.cal.deployed_services())
        if current and not reconcile:
            raise RuntimeError(
                "import_state requires an empty orchestrator "
                "(pass reconcile=True to diff against the running state)")
        incoming: dict = state.get("services", {})
        with self.journal.intent(
                "import", None,
                payload={"services": sorted(incoming)}) as intent:
            removed = sorted(current - set(incoming))
            for service_id in removed:
                self.cal.remove_service(service_id)
            restored: list[str] = []
            kept = 0
            for service_id, data in incoming.items():
                if service_id in current:
                    if self._service_record(service_id) == data:
                        kept += 1
                        continue
                    self.cal.remove_service(service_id)
                service = nffg_from_dict(data["service"])
                routes = {hop_id: HopRoute(hop_id=hop_id,
                                           infra_path=list(r["infra_path"]),
                                           link_ids=list(r["link_ids"]),
                                           delay=float(r["delay"]),
                                           bandwidth=float(r["bandwidth"]))
                          for hop_id, r in data.get("routes", {}).items()}
                result = MappingResult(
                    success=True, service=service,
                    nf_placement=dict(data.get("placement", {})),
                    hop_routes=routes,
                    decompositions=dict(data.get("decompositions", {})))
                self.cal.commit_mapping(service_id, service, result)
                restored.append(service_id)
            if reconcile:
                counters.incr("recovery.reconcile.removed", len(removed))
                counters.incr("recovery.reconcile.replaced",
                              sum(1 for s in restored if s in current))
                counters.incr("recovery.reconcile.kept", kept)
            self.cal.import_resilience(state.get("resilience", {}))
            if push and (restored or removed):
                pushes = self.cal.push_all()
                intent.record_pushes(pushes)
                if self.simulator is not None:
                    self._wait_activation(60_000.0)
            # books == desired state regardless of push outcomes (a
            # failed domain stays pending for replay): commit
            intent.commit(
                {service_id: incoming[service_id] for service_id in restored}
                | {service_id: None for service_id in removed})
        return restored

    def service_flow_stats(self, service_id: str) -> dict[str, dict[str, int]]:
        """Per-SG-hop dataplane counters for a deployed service.

        Polls every domain's switches for flow statistics and keys them
        by the hop id carried in the flow cookies.  For a hop traversing
        several switches, the maximum per-switch counter is reported
        (the ingress sees every packet of the hop).
        """
        if service_id not in self.cal.deployed_services():
            return {}
        _, result = self.cal.snapshot_service(service_id)
        wanted = set(result.hop_routes)
        totals: dict[str, dict[str, int]] = {
            hop_id: {"packets": 0, "bytes": 0} for hop_id in wanted}
        for adapter in self.cal.adapters.values():
            for cookie, (packets, octets) in adapter.flow_stats().items():
                if cookie in wanted:
                    entry = totals[cookie]
                    entry["packets"] = max(entry["packets"], packets)
                    entry["bytes"] = max(entry["bytes"], octets)
        return totals

    def __repr__(self) -> str:
        return (f"<EscapeOrchestrator {self.name}: "
                f"{len(self.cal.adapters)} domains, "
                f"{len(self.cal.deployed_services())} services>")
