"""Structured lint results.

A :class:`Diagnostic` is one finding of one rule: severity, stable rule
id, category and an exact location inside the analyzed graph (node,
port, edge, flow-rule index).  :class:`DiagnosticList` is the container
every analysis entry point returns; it behaves like a plain list but
adds severity filtering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Optional


class Severity(enum.IntEnum):
    """Finding severity; comparable (INFO < WARNING < ERROR)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{[s.label for s in cls]}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding: what rule fired, how bad, and where."""

    rule_id: str
    severity: Severity
    category: str
    message: str
    #: location inside the analyzed graph (all optional)
    node: Optional[str] = None
    port: Optional[str] = None
    edge: Optional[str] = None
    flowrule: Optional[int] = None
    #: id of the NFFG/view the finding belongs to
    graph: Optional[str] = None

    def location(self) -> str:
        """Human-readable location string, empty when unlocated."""
        parts = []
        if self.node is not None:
            parts.append(f"node {self.node}")
        if self.port is not None:
            parts.append(f"port {self.port}")
        if self.flowrule is not None:
            parts.append(f"flowrule #{self.flowrule}")
        if self.edge is not None:
            parts.append(f"edge {self.edge}")
        return ", ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "rule": self.rule_id,
            "severity": self.severity.label,
            "category": self.category,
            "message": self.message,
        }
        for key in ("node", "port", "edge", "flowrule", "graph"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    def __str__(self) -> str:
        location = self.location()
        suffix = f" ({location})" if location else ""
        return (f"{self.severity.label.upper():7s} {self.rule_id} "
                f"[{self.category}] {self.message}{suffix}")


class DiagnosticList(list):
    """A list of :class:`Diagnostic` with severity helpers."""

    def at_least(self, severity: Severity) -> "DiagnosticList":
        return DiagnosticList(d for d in self if d.severity >= severity)

    @property
    def errors(self) -> "DiagnosticList":
        return self.at_least(Severity.ERROR)

    def worst(self) -> Optional[Severity]:
        return max((d.severity for d in self), default=None)

    def rule_ids(self) -> set[str]:
        return {d.rule_id for d in self}

    def by_rule(self) -> dict[str, "DiagnosticList"]:
        grouped: dict[str, DiagnosticList] = {}
        for diag in self:
            grouped.setdefault(diag.rule_id, DiagnosticList()).append(diag)
        return grouped

    def counts(self) -> dict[str, int]:
        tally = {severity.label: 0 for severity in Severity}
        for diag in self:
            tally[diag.severity.label] += 1
        return tally


@dataclass
class Finding:
    """What a rule's check function yields.

    Rule id / category / default severity are filled in by the engine
    from the rule's registration, so check bodies stay terse.  A rule
    may override its default severity per finding (e.g. negative
    bandwidth is an error, zero bandwidth only a warning).
    """

    message: str
    node: Optional[str] = None
    port: Optional[str] = None
    edge: Optional[str] = None
    flowrule: Optional[int] = None
    severity: Optional[Severity] = None
    graph: Optional[str] = None


def make_diagnostics(rule_id: str, category: str, default: Severity,
                     findings: Iterable[Finding],
                     graph_id: Optional[str]) -> list[Diagnostic]:
    """Materialize a rule's findings into diagnostics."""
    return [Diagnostic(rule_id=rule_id,
                       severity=finding.severity or default,
                       category=category, message=finding.message,
                       node=finding.node, port=finding.port,
                       edge=finding.edge, flowrule=finding.flowrule,
                       graph=finding.graph or graph_id)
            for finding in findings]
