"""Static analysis for NFFGs, virtualizer views and flow-rule tables.

A rule-based analyzer in the tradition of compiler linters: every check
is a registered :class:`~repro.lint.registry.LintRule` with a stable ID
(``NF001``, ``RS002``, ...), a default severity and a category; running
a rule set over an NFFG yields structured
:class:`~repro.lint.diagnostics.Diagnostic` results that pinpoint the
offending node/port/edge/flow rule.  The ESCAPE orchestrator runs the
engine as a pre-deploy verification gate; ``repro lint`` exposes it on
the command line.
"""

from repro.lint.diagnostics import Diagnostic, DiagnosticList, Severity
from repro.lint.engine import LintContext, LintEngine, lint_nffg, lint_views
from repro.lint.registry import (
    RESERVED_PREFIXES,
    LintRule,
    RuleRegistry,
    default_registry,
)
from repro.lint.report import (
    render_json,
    render_rule_catalog,
    render_sarif,
    render_text,
)

# importing the rules module populates the default registry
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Diagnostic",
    "DiagnosticList",
    "LintContext",
    "LintEngine",
    "LintRule",
    "RESERVED_PREFIXES",
    "RuleRegistry",
    "Severity",
    "default_registry",
    "lint_nffg",
    "lint_views",
    "render_json",
    "render_rule_catalog",
    "render_sarif",
    "render_text",
]
