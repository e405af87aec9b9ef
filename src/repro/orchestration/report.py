"""Deployment reports: what happened, where the time went, what it cost
on the control plane.  These are the primary measurement artifacts of
the DEMO-ii benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mapping.base import MappingResult


@dataclass
class AdapterReport:
    """Result of pushing one domain's install graph."""

    domain: str
    success: bool
    error: str = ""
    #: wall-clock seconds spent in the adapter call
    push_time_s: float = 0.0
    #: wall-clock seconds the CAL spent before that call bringing the
    #: domain's install view up to date (first slice, or re-reading
    #: the touched members)
    slice_time_s: float = 0.0
    #: of ``push_time_s``: an edit-config delta's client-side encode / diff
    encode_time_s: float = 0.0
    diff_time_s: float = 0.0
    control_messages: int = 0
    control_bytes: int = 0
    #: NFs / flow rules in the domain's cumulative configuration, by
    #: the count the CAL keeps with the install view (0 when the adapter
    #: was driven without one)
    nfs_requested: int = 0
    flowrules_requested: int = 0
    #: push attempts made (1 = first try succeeded; >1 = retried)
    attempts: int = 1
    #: total retry backoff charged between attempts (seconds)
    backoff_s: float = 0.0
    #: True when the push was never attempted because the domain's
    #: circuit breaker is open (the config is queued for reconciliation)
    skipped: bool = False
    #: config payload accounting for *this* push (messages sent and
    #: payload bytes on the wire), independent of the channel-level
    #: ``control_*`` deltas which also count hellos/notifications
    messages: int = 0
    bytes: int = 0
    #: True when the install went out as an edit-config delta patch
    #: rather than a full-config replace
    delta: bool = False


@dataclass
class DeployReport:
    """End-to-end outcome of one service deployment."""

    service_id: str
    success: bool
    error: str = ""
    #: partial-failure classification: "" (derive from ``success``),
    #: "success", "degraded" (deployed, but at least one involved
    #: domain is awaiting reconciliation) or "failed"
    outcome: str = ""
    mapping: Optional[MappingResult] = None
    adapters: list[AdapterReport] = field(default_factory=list)
    #: reports of the reconciliation pushes made while rolling back a
    #: failed deploy/update (empty when no rollback happened)
    rollback: list[AdapterReport] = field(default_factory=list)
    #: static-analysis findings from the pre-deploy verification gate
    #: (repro.lint Diagnostic objects; populated even on success)
    lint: list = field(default_factory=list)
    #: wall-clock phase timings (seconds)
    lint_time_s: float = 0.0
    view_time_s: float = 0.0
    mapping_time_s: float = 0.0
    push_time_s: float = 0.0
    activation_time_s: float = 0.0
    #: wall-clock seconds spent undoing a half-deployed service on the
    #: failed path (remove + reconciliation pushes); 0.0 when no
    #: rollback ran
    rollback_time_s: float = 0.0
    total_time_s: float = 0.0
    #: virtual milliseconds until all NFs were up (boot latency)
    activation_virtual_ms: float = 0.0
    #: domains whose substrate the mapping uses (NF hosts + routed
    #: BiS-BiSes) — the ones the planner had to push
    domains_touched: int = 0

    def stage_timings(self) -> dict[str, float]:
        """Per-stage wall-clock seconds, in pipeline order (rollback
        last: it only runs on the failed path, after the push).
        Of ``push``, ``push.slice`` went to the CAL's install views and
        ``push.encode`` / ``push.diff`` to the adapters' delta pushes,
        each summed over the pushed domains."""
        return {
            "lint": self.lint_time_s,
            "view": self.view_time_s,
            "map": self.mapping_time_s,
            "push": self.push_time_s,
            "push.slice": sum(r.slice_time_s for r in self.adapters),
            "push.encode": sum(r.encode_time_s for r in self.adapters),
            "push.diff": sum(r.diff_time_s for r in self.adapters),
            "activate": self.activation_time_s,
            "rollback": self.rollback_time_s,
        }

    @property
    def control_messages(self) -> int:
        return sum(report.control_messages for report in self.adapters)

    @property
    def control_bytes(self) -> int:
        return sum(report.control_bytes for report in self.adapters)

    def __bool__(self) -> bool:
        return self.success

    def resolved_outcome(self) -> str:
        """The partial-failure outcome, derived from ``success`` when
        no explicit classification was recorded."""
        if self.outcome:
            return self.outcome
        return "success" if self.success else "failed"

    def rollback_failures(self) -> list[AdapterReport]:
        """Rollback pushes that themselves failed (domains that may
        still hold state of the rolled-back service)."""
        return [report for report in self.rollback if not report.success]

    def summary_line(self) -> str:
        if not self.success:
            return f"{self.service_id}: FAILED ({self.error})"
        if self.resolved_outcome() == "degraded":
            return (f"{self.service_id}: DEGRADED — deployed, but "
                    "domains await reconciliation: "
                    + ", ".join(sorted(r.domain for r in self.adapters
                                       if not r.success)))
        placement = (len(self.mapping.nf_placement)
                     if self.mapping is not None else 0)
        domains = (f"{self.domains_touched} "
                   f"domain{'' if self.domains_touched == 1 else 's'}")
        return (f"{self.service_id}: OK — {placement} NFs over "
                f"{domains}, map {self.mapping_time_s * 1e3:.1f} ms, "
                f"push {self.push_time_s * 1e3:.1f} ms, "
                f"{self.control_messages} ctrl msgs / {self.control_bytes} B, "
                f"activation {self.activation_virtual_ms:.0f} vms")
