"""Schema-side classes of the YANG-like engine.

A schema is a tree of :class:`Container` / :class:`YangList` /
:class:`Leaf` nodes.  Lists are keyed (like YANG ``list ... key``),
leaves are typed.  The engine supports exactly what the UNIFY
virtualizer model needs; it is not a general YANG compiler.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Optional


class SchemaError(ValueError):
    """Raised when a schema definition itself is inconsistent."""


class LeafType(str, enum.Enum):
    STRING = "string"
    INT = "int"
    DECIMAL = "decimal"
    BOOLEAN = "boolean"
    ENUM = "enumeration"


class SchemaNode:
    """Common base for schema nodes."""

    def __init__(self, name: str):
        if not name or "/" in name:
            raise SchemaError(f"invalid schema node name {name!r}")
        self.name = name
        self.parent: Optional["SchemaNode"] = None

    def path(self) -> str:
        parts = []
        node: Optional[SchemaNode] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.path()}>"


class Leaf(SchemaNode):
    """A typed scalar leaf."""

    def __init__(self, name: str, type: LeafType = LeafType.STRING, *,
                 mandatory: bool = False, default: Any = None,
                 enum_values: Iterable[str] = ()):
        super().__init__(name)
        self.type = type
        self.mandatory = mandatory
        self.default = default
        self.enum_values = set(enum_values)
        if type == LeafType.ENUM and not self.enum_values:
            raise SchemaError(f"enum leaf {name!r} needs enum_values")
        if default is not None:
            self.check_value(default)

    def check_value(self, value: Any) -> Any:
        """Validate and canonicalize ``value``; returns the canonical form."""
        if self.type == LeafType.STRING:
            if not isinstance(value, str):
                raise SchemaError(f"leaf {self.name!r}: expected string, got {value!r}")
            return value
        if self.type == LeafType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"leaf {self.name!r}: expected int, got {value!r}")
            return value
        if self.type == LeafType.DECIMAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"leaf {self.name!r}: expected number, got {value!r}")
            return float(value)
        if self.type == LeafType.BOOLEAN:
            if not isinstance(value, bool):
                raise SchemaError(f"leaf {self.name!r}: expected bool, got {value!r}")
            return value
        if self.type == LeafType.ENUM:
            if value not in self.enum_values:
                raise SchemaError(
                    f"leaf {self.name!r}: {value!r} not in {sorted(self.enum_values)}")
            return value
        raise SchemaError(f"leaf {self.name!r}: unknown type {self.type}")


class _ParentNode(SchemaNode):
    """Base for schema nodes with children."""

    def __init__(self, name: str, children: Iterable[SchemaNode] = ()):
        super().__init__(name)
        self.children: dict[str, SchemaNode] = {}
        for child in children:
            self.add(child)

    def add(self, child: SchemaNode) -> SchemaNode:
        if child.name in self.children:
            raise SchemaError(f"duplicate child {child.name!r} under {self.path()}")
        child.parent = self
        self.children[child.name] = child
        return child

    def child(self, name: str) -> SchemaNode:
        try:
            return self.children[name]
        except KeyError:
            raise SchemaError(f"no child {name!r} under {self.path()}") from None


class Container(_ParentNode):
    """A YANG ``container``: named grouping of children, at most one
    instance."""

    def __init__(self, name: str, children: Iterable[SchemaNode] = (), *,
                 presence: bool = False):
        super().__init__(name, children)
        #: presence containers are meaningful even when empty
        self.presence = presence


class YangList(_ParentNode):
    """A YANG ``list``: keyed multi-instance node.

    ``key`` must name a mandatory child leaf; instances are addressed as
    ``name[key-value]`` in paths.
    """

    def __init__(self, name: str, key: str, children: Iterable[SchemaNode] = ()):
        super().__init__(name, children)
        self.key = key

    def add(self, child: SchemaNode) -> SchemaNode:
        super().add(child)
        return child
