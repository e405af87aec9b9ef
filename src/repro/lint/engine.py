"""The lint engine: runs rule sets over NFFGs and view collections.

The engine is deliberately dumb — all domain knowledge lives in the
rules.  It builds a :class:`LintContext`, invokes every selected rule,
stamps rule metadata onto the yielded findings and returns one flat
:class:`~repro.lint.diagnostics.DiagnosticList` sorted most-severe
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.lint.diagnostics import DiagnosticList, make_diagnostics
from repro.lint.registry import LintRule, default_registry
from repro.nffg.graph import NFFG


@dataclass
class LintContext:
    """Everything a rule may inspect.

    ``nffg`` is set for graph-scope rules, ``views`` for views-scope
    rules.  ``decomposition_library`` (duck-typed: ``is_abstract`` /
    ``options_for``) enables the decomposition-coverage rules; they stay
    silent without one.
    """

    nffg: Optional[NFFG] = None
    views: Sequence[NFFG] = field(default_factory=tuple)
    decomposition_library: Optional[object] = None


class LintEngine:
    """Run a rule selection over graphs and view sets."""

    def __init__(self, rules: Optional[Iterable[LintRule]] = None):
        self.rules = list(rules if rules is not None else default_registry())

    def _run_rules(self, scope: str, ctx: LintContext,
                   graph_id: Optional[str]) -> DiagnosticList:
        diagnostics = DiagnosticList()
        for rule in self.rules:
            if rule.scope != scope:
                continue
            diagnostics.extend(make_diagnostics(
                rule.id, rule.category, rule.severity,
                rule.check(ctx), graph_id))
        return diagnostics

    def run(self, nffg: NFFG, *,
            decomposition_library: Optional[object] = None) -> DiagnosticList:
        """Analyze one NFFG (service graph, resource view or mapped graph)."""
        ctx = LintContext(nffg=nffg,
                          decomposition_library=decomposition_library)
        diagnostics = self._run_rules("graph", ctx, nffg.id)
        return _sorted(diagnostics)

    def run_views(self, views: Sequence[NFFG], *,
                  decomposition_library: Optional[object] = None) -> DiagnosticList:
        """Analyze a set of domain views: each individually, plus the
        cross-view rules that predict whether a merge would be sound."""
        views = list(views)
        diagnostics = DiagnosticList()
        for view in views:
            diagnostics.extend(self.run(
                view, decomposition_library=decomposition_library))
        ctx = LintContext(views=views,
                          decomposition_library=decomposition_library)
        diagnostics.extend(self._run_rules("views", ctx, None))
        return _sorted(diagnostics)


def _sorted(diagnostics: DiagnosticList) -> DiagnosticList:
    return DiagnosticList(sorted(
        diagnostics, key=lambda d: (-d.severity, d.rule_id, d.message)))


def lint_nffg(nffg: NFFG, *, rules: Optional[Iterable[LintRule]] = None,
              decomposition_library: Optional[object] = None) -> DiagnosticList:
    """Convenience wrapper: run the default rule set over one NFFG."""
    return LintEngine(rules=rules).run(
        nffg, decomposition_library=decomposition_library)


def lint_views(views: Sequence[NFFG], *,
               rules: Optional[Iterable[LintRule]] = None,
               decomposition_library: Optional[object] = None) -> DiagnosticList:
    """Convenience wrapper: run the default rule set over domain views."""
    return LintEngine(rules=rules).run_views(
        views, decomposition_library=decomposition_library)
