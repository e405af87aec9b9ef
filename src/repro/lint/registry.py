"""The lint rule registry.

Rules register themselves with a stable id, a category, a default
severity and a check function.  Check functions receive a
:class:`~repro.lint.engine.LintContext` and yield
:class:`~repro.lint.diagnostics.Finding` objects; the engine stamps
rule id / category / severity onto each finding.

Two scopes exist:

- ``graph`` rules analyze one NFFG (the vast majority);
- ``views`` rules analyze a *set* of domain views together, catching
  problems that only materialize when :func:`repro.nffg.ops.merge_nffgs`
  stitches them (duplicate node ids, mismatched hand-off tags).

Rule ids are namespaced: two uppercase letters plus three digits, and
the prefixes this project has assigned a meaning (NF/RS/FR/MD/DC,
plus MP which the mapping validator emits outside the registry) are
**reserved** — registering a rule under a reserved prefix with the
wrong category, or under MP at all, is rejected so the catalog stays
collision-free as extensions register their own rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.lint.diagnostics import Finding, Severity

CheckFn = Callable[..., Iterable[Finding]]

#: prefix -> category it is reserved for; ``None`` means the prefix is
#: claimed by a subsystem that emits diagnostics directly (the mapping
#: validator) and can never be registered here
RESERVED_PREFIXES: dict[str, Optional[str]] = {
    "NF": "graph",            # graph well-formedness
    "RS": "resources",        # resource soundness
    "FR": "flowrules",        # flow-rule analysis
    "MD": "multidomain",      # multi-domain consistency
    "DC": "decomposition",    # decomposition coverage
    "MP": None,               # repro.mapping.validate (post-mapping)
}

VALID_SCOPES = ("graph", "views")

_ID_PATTERN = re.compile(r"^([A-Z]{2})(\d{3})$")


@dataclass(frozen=True)
class LintRule:
    """One registered static-analysis rule."""

    id: str
    title: str
    severity: Severity
    category: str
    check: CheckFn
    scope: str = "graph"          #: "graph" or "views"

    def describe(self) -> str:
        return (f"{self.id}  {self.severity.label:7s} {self.category:12s} "
                f"{self.title}")


class RuleRegistry:
    """Ordered collection of rules, addressable by id and category."""

    def __init__(self) -> None:
        self._rules: dict[str, LintRule] = {}

    def register(self, rule: LintRule) -> LintRule:
        match = _ID_PATTERN.match(rule.id)
        if match is None:
            raise ValueError(
                f"lint rule id {rule.id!r} must be two uppercase letters "
                "plus three digits (e.g. 'NF001')")
        prefix = match.group(1)
        if prefix in RESERVED_PREFIXES:
            owner = RESERVED_PREFIXES[prefix]
            if owner is None:
                raise ValueError(
                    f"rule id prefix {prefix!r} is reserved for the "
                    "mapping validator (repro.mapping.validate), which "
                    "emits its diagnostics outside the registry")
            if rule.category != owner:
                raise ValueError(
                    f"rule id prefix {prefix!r} is reserved for category "
                    f"{owner!r}; rule {rule.id!r} declares "
                    f"{rule.category!r}")
        if rule.scope not in VALID_SCOPES:
            raise ValueError(
                f"rule {rule.id!r}: unknown scope {rule.scope!r}; "
                f"expected one of {VALID_SCOPES}")
        if rule.id in self._rules:
            raise ValueError(f"duplicate lint rule id {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def rule(self, id: str, title: str, *, severity: Severity,
             category: str, scope: str = "graph") -> Callable[[CheckFn], CheckFn]:
        """Decorator: register ``check`` under the given metadata."""

        def decorator(check: CheckFn) -> CheckFn:
            self.register(LintRule(id=id, title=title, severity=severity,
                                   category=category, check=check,
                                   scope=scope))
            return check

        return decorator

    def get(self, rule_id: str) -> LintRule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown lint rule {rule_id!r}") from None

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[LintRule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def select(self, *, ids: Optional[Iterable[str]] = None,
               categories: Optional[Iterable[str]] = None) -> list[LintRule]:
        """Rules filtered by id and/or category."""
        wanted_ids = set(ids) if ids is not None else None
        wanted_categories = set(categories) if categories is not None else None
        selected = []
        for rule in self:
            if wanted_ids is not None and rule.id not in wanted_ids:
                continue
            if (wanted_categories is not None
                    and rule.category not in wanted_categories):
                continue
            selected.append(rule)
        return selected

    def categories(self) -> list[str]:
        seen: dict[str, None] = {}
        for rule in self:
            seen.setdefault(rule.category, None)
        return list(seen)


_DEFAULT = RuleRegistry()


def default_registry() -> RuleRegistry:
    """The process-wide registry the built-in rules register into."""
    return _DEFAULT
