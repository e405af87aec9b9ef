"""Code-scope analysis input: parsed Python modules of this repo.

The ``code`` lint scope runs AST rules over ``src/repro`` itself — the
same engine/registry/diagnostic machinery that checks NFFGs, pointed at
the orchestrator's own source.  :class:`CodeModule` is what a code rule
receives in its :class:`~repro.lint.engine.LintContext` (``ctx.module``):
the file path, raw source, parsed ``ast`` tree, and the pre-scanned
``# guarded-by:`` annotations.

Shared helpers live here too, because several CC rules need the same
primitives: a dotted-name printer, the lock-attribute heuristic, and
the guarded-by comment scanner.

Guarded-by annotations
----------------------

A trailing comment on an instance-attribute assignment declares which
lock owns that attribute::

    self._pending_reconcile: set[str] = set()  # guarded-by: _pending_lock

Rule CC005 then requires every *write* to ``self._pending_reconcile``
outside ``__init__`` to happen lexically inside a
``with self._pending_lock:`` block.

Journaled annotations
---------------------

A trailing comment on an instance-attribute assignment declares that
the attribute is write-ahead-journaled desired state and names its
only legitimate mutator methods::

    self._deployed: dict[...] = (
        {}  # journaled: commit_mapping remove_service restore_service
    )

Rule CC007 then (a) flags writes to the attribute from any method not
in that list, and (b) flags calls to the listed mutators on *other*
objects (``self.cal.remove_service(...)``) outside a
``with <journal>.intent(...):`` scope.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

#: attribute/variable names treated as locks by the CC rules
_LOCK_NAME_HINTS = ("lock", "guard", "mutex")

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

_JOURNALED_RE = re.compile(
    r"#\s*journaled:\s*([A-Za-z_][A-Za-z0-9_]*(?:\s+[A-Za-z_][A-Za-z0-9_]*)*)")


@dataclass
class CodeModule:
    """One parsed Python source file, ready for code-scope rules."""

    path: str
    source: str
    tree: ast.Module
    #: source line number -> lock attribute named by a guarded-by comment
    guarded_lines: dict[int, str] = field(default_factory=dict)
    #: source line number -> mutator names from a ``# journaled:`` comment
    journaled_lines: dict[int, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str = "<memory>") -> "CodeModule":
        return cls(path=path, source=source,
                   tree=ast.parse(source, filename=path),
                   guarded_lines=scan_guarded_by(source),
                   journaled_lines=scan_journaled(source))

    @classmethod
    def from_file(cls, path: str | Path) -> "CodeModule":
        path = Path(path)
        return cls.from_source(path.read_text(encoding="utf-8"), str(path))


def scan_guarded_by(source: str) -> dict[int, str]:
    """Map 1-based line numbers to the lock named by ``# guarded-by:``."""
    guarded: dict[int, str] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _GUARDED_BY_RE.search(line)
        if match:
            guarded[lineno] = match.group(1)
    return guarded


def scan_journaled(source: str) -> dict[int, tuple[str, ...]]:
    """Map 1-based line numbers to the mutator names listed by a
    ``# journaled:`` comment."""
    journaled: dict[int, tuple[str, ...]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _JOURNALED_RE.search(line)
        if match:
            journaled[lineno] = tuple(match.group(1).split())
    return journaled


def package_root() -> Path:
    """The ``src/repro`` package directory (self-lint target)."""
    import repro

    return Path(repro.__file__).parent


def iter_package_modules(root: Optional[str | Path] = None,
                         ) -> Iterator[CodeModule]:
    """Parse every ``*.py`` under ``root`` (default: the repro package),
    sorted for deterministic output.  Raises ``SyntaxError`` on an
    unparseable file — self-lint should never paper over those."""
    base = Path(root) if root is not None else package_root()
    if base.is_file():
        yield CodeModule.from_file(base)
        return
    for path in sorted(base.rglob("*.py")):
        yield CodeModule.from_file(path)


# ----------------------------------------------------------------------
# AST helpers shared by the CC rules
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_lock_expr(node: ast.AST) -> Optional[str]:
    """The lock's dotted name if ``node`` looks like a lock, else None.

    Heuristic: the final name segment contains "lock", "guard" or
    "mutex" — matches this repo's naming (``_pending_lock``, ``_guard``,
    ``_schedule_lock``) — either directly (``with self._lock:``) or as
    a call (``with self._lock_for(domain):``).
    """
    target = node
    if isinstance(target, ast.Call):
        target = target.func
    name = dotted_name(target)
    if name is None:
        return None
    final = name.rsplit(".", 1)[-1].lower()
    if any(hint in final for hint in _LOCK_NAME_HINTS):
        return name if not isinstance(node, ast.Call) \
            else f"{name}(...)"
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def iter_body_nodes(nodes: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every AST node lexically inside the statements, excluding nested
    function/lambda/class bodies."""
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            stack.append(child)
