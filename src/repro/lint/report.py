"""Rendering lint results for humans (text) and machines (JSON/SARIF)."""

from __future__ import annotations

import json
from typing import Optional

from repro.lint.diagnostics import DiagnosticList
from repro.lint.registry import default_registry

#: Diagnostic severity label -> SARIF result level
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def render_text(diagnostics: DiagnosticList, *,
                source: Optional[str] = None) -> str:
    """Multi-line report: one line per finding plus a summary."""
    lines = []
    header = f"lint: {source}" if source else "lint report"
    lines.append(header)
    for diag in diagnostics:
        lines.append(f"  {diag}")
    counts = diagnostics.counts()
    lines.append(
        f"  {counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info(s)")
    return "\n".join(lines)


def render_json(diagnostics: DiagnosticList, *,
                source: Optional[str] = None) -> str:
    """Machine-readable report (stable shape for CI tooling)."""
    payload = {
        "source": source,
        "summary": diagnostics.counts(),
        "diagnostics": [diag.to_dict() for diag in diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(diagnostics: DiagnosticList, *,
                 source: Optional[str] = None) -> str:
    """SARIF 2.1.0 report — the shape CI annotators (GitHub code
    scanning) ingest.  ``graph`` doubles as the artifact URI: the
    NFFG/view id, or ``source``."""
    registry = default_registry()
    rules_meta: dict[str, dict] = {}
    results = []
    for diag in diagnostics:
        if diag.rule_id not in rules_meta:
            meta = {"id": diag.rule_id,
                    "properties": {"category": diag.category}}
            if diag.rule_id in registry:
                meta["shortDescription"] = {
                    "text": registry.get(diag.rule_id).title}
            rules_meta[diag.rule_id] = meta
        result = {
            "ruleId": diag.rule_id,
            "level": _SARIF_LEVELS[diag.severity.label],
            "message": {"text": diag.message},
        }
        uri = diag.graph or source
        if uri is not None:
            result["locations"] = [{"physicalLocation": {
                "artifactLocation": {"uri": uri}}}]
        results.append(result)
    payload = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "rules": [rules_meta[rule_id]
                          for rule_id in sorted(rules_meta)],
            }},
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """The default registry's rule catalog, grouped by category."""
    registry = default_registry()
    lines = []
    for category in registry.categories():
        lines.append(f"{category}:")
        for rule in registry.select(categories=[category]):
            lines.append(f"  {rule.describe()}")
    return "\n".join(lines)
