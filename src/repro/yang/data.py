"""Data-side classes of the YANG-like engine.

A :class:`DataNode` instantiates a schema node: containers hold child
data nodes by name, list nodes hold instances by key value, leaves hold
a canonicalized value.  Paths use the compact form
``/virtualizer/nodes/node[un1]/flowtable/flowentry[f3]/match``.
"""

from __future__ import annotations

import json
import weakref
from hashlib import blake2b
from typing import Any, Iterator, Optional

from repro.yang.schema import Container, Leaf, SchemaNode, YangList


class ValidationError(ValueError):
    """Raised when data does not conform to its schema."""


#: what a leaf has for children and instances: a leaf is most of a tree,
#: trees are kept for as long as a config is installed, and every dict of
#: its own is one more object for each full garbage collection to visit.
#: (``node._children is _NO_MEMBERS``: the leaf test of the hot loops.)
_NO_MEMBERS: dict[str, "DataNode"] = {}


class DataNode:
    """One node of a data tree, bound to its schema node."""

    __slots__ = ("schema", "key_value", "_parent", "value", "_children",
                 "_instances", "__weakref__")

    def __init__(self, schema: SchemaNode, key_value: Optional[str] = None):
        self.schema = schema
        #: for list *instances*: the key value addressing this instance
        self.key_value = key_value
        self._parent: Optional[weakref.ref] = None
        self.value: Any = None                      # leaves only
        leaf = isinstance(schema, Leaf)
        #: containers & instances
        self._children: dict[str, DataNode] = _NO_MEMBERS if leaf else {}
        #: list nodes only
        self._instances: dict[str, DataNode] = _NO_MEMBERS if leaf else {}

    @property
    def parent(self) -> Optional["DataNode"]:
        """The node holding this one.  Held weakly, so a subtree that
        left its tree is freed with its last reference instead of
        waiting, as a reference cycle, for a full collection."""
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, node: Optional["DataNode"]) -> None:
        self._parent = None if node is None else weakref.ref(node)

    # -- classification ---------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return isinstance(self.schema, Leaf)

    @property
    def is_list(self) -> bool:
        return isinstance(self.schema, YangList) and self.key_value is None

    @property
    def is_list_instance(self) -> bool:
        return isinstance(self.schema, YangList) and self.key_value is not None

    # -- structure building -------------------------------------------------

    def set_leaf(self, name: str, value: Any) -> "DataNode":
        """Create/overwrite a child leaf."""
        node = self._children.get(name)
        if node is None:
            schema = self._child_schema(name)
            if not isinstance(schema, Leaf):
                raise ValidationError(f"{self.path()}/{name} is not a leaf")
            node = DataNode(schema)
            node._parent = weakref.ref(self)
            self._children[name] = node
        elif node._children is not _NO_MEMBERS:
            raise ValidationError(f"{self.path()}/{name} is not a leaf")
        node.value = node.schema.check_value(value)
        return node

    def container(self, name: str) -> "DataNode":
        """Get-or-create a child container."""
        return self._member(name, Container, "container")

    def list_node(self, name: str) -> "DataNode":
        """Get-or-create the child *list* node (holder of instances)."""
        return self._member(name, YangList, "list")

    def _member(self, name: str, kind: type, what: str) -> "DataNode":
        node = self._children.get(name)
        if node is None:
            schema = self._child_schema(name)
            if isinstance(schema, kind):
                node = self._children[name] = DataNode(schema)
                node._parent = weakref.ref(self)
                return node
        elif isinstance(node.schema, kind):
            return node
        raise ValidationError(f"{self.path()}/{name} is not a {what}")

    def add_instance(self, key_value: str) -> "DataNode":
        """Add an instance to a list node (self must be the list holder)."""
        if not self.is_list:
            raise ValidationError(f"{self.path()} is not a list node")
        key_value = str(key_value)
        if key_value in self._instances:
            raise ValidationError(f"duplicate list key {key_value!r} at {self.path()}")
        instance = DataNode(self.schema, key_value=key_value)
        instance.parent = self
        assert isinstance(self.schema, YangList)
        instance.set_leaf(self.schema.key, key_value)
        self._instances[key_value] = instance
        return instance

    def adopt(self, *members: "DataNode") -> None:
        """Take over finished members — instances of this list, children
        of this container or instance — from another tree (which keeps
        listing them, but is no longer their parent)."""
        keyed, parent = self.is_list, weakref.ref(self)
        held = self._instances if keyed else self._children
        for member in members:
            key = member.key_value if keyed else member.schema.name
            if key in held:
                raise ValidationError(f"duplicate {key!r} at {self.path()}")
            member._parent = parent
            held[key] = member

    def adopt_others(self, base: "DataNode", path: str, skip) -> None:
        """Move into this node's list at ``path`` — a list name behind
        the containers that lead to it — every instance ``base`` holds
        there under a key outside ``skip``; ``base`` still lists them
        and stays good to diff against and to read.  What an edit does
        not name is moved, not encoded, so a patched tree costs the
        edit."""
        held = base.find(path)
        kept = [] if held is None else [
            instance for instance in held.instances()
            if instance.key_value not in skip]
        if kept:  # a list nothing is kept of is not created
            *containers, name = path.split("/")
            target = self
            for container in containers:
                target = target.container(container)
            target.list_node(name).adopt(*kept)

    def instance(self, key_value: str) -> "DataNode":
        try:
            return self._instances[str(key_value)]
        except KeyError:
            raise ValidationError(
                f"no instance {key_value!r} in list {self.path()}") from None

    def has_instance(self, key_value: str) -> bool:
        return str(key_value) in self._instances

    def remove_instance(self, key_value: str) -> None:
        if str(key_value) not in self._instances:
            raise ValidationError(
                f"no instance {key_value!r} in list {self.path()}")
        del self._instances[str(key_value)]

    def remove_child(self, name: str) -> None:
        if name not in self._children:
            raise ValidationError(f"no child {name!r} at {self.path()}")
        del self._children[name]

    # -- navigation ---------------------------------------------------------

    def child(self, name: str) -> "DataNode":
        try:
            return self._children[name]
        except KeyError:
            raise ValidationError(f"no child {name!r} at {self.path()}") from None

    def has_child(self, name: str) -> bool:
        return name in self._children

    def get(self, name: str, default: Any = None) -> Any:
        """Value of child leaf ``name`` or ``default``."""
        node = self._children.get(name)
        if node is None or not node.is_leaf:
            return default
        return node.value

    def children(self) -> Iterator["DataNode"]:
        return iter(self._children.values())

    def instances(self) -> Iterator["DataNode"]:
        return iter(self._instances.values())

    def instance_keys(self) -> list[str]:
        return list(self._instances)

    def _child_schema(self, name: str) -> SchemaNode:
        try:
            return self.schema.children[name]
        except KeyError:
            raise ValidationError(
                f"schema has no child {name!r} at {self.path()}") from None
        except AttributeError:  # a leaf
            raise ValidationError(
                f"{self.path()} cannot have children") from None

    # -- paths ----------------------------------------------------------------

    def path(self) -> str:
        parts: list[str] = []
        node: Optional[DataNode] = self
        while node is not None:
            if node.is_list_instance:
                parts.append(f"{node.schema.name}[{node.key_value}]")
                node = node.parent.parent if node.parent else None
            else:
                parts.append(node.schema.name)
                node = node.parent
        return "/" + "/".join(reversed(parts))

    def find(self, path: str) -> Optional["DataNode"]:
        """The node at a path relative to this node, or None; unlike
        :meth:`resolve` a miss neither raises nor creates anything."""
        node: Optional[DataNode] = self
        for token in [t for t in path.strip("/").split("/") if t]:
            name, _, rest = token.partition("[")
            node = node._children.get(name)
            if node is not None and rest:
                node = node._instances.get(rest.rstrip("]"))
            if node is None:
                return None
        return node

    def resolve(self, path: str) -> "DataNode":
        """Resolve a path relative to this node ('' or '/' = self)."""
        node: DataNode = self
        for token in [t for t in path.strip("/").split("/") if t]:
            if "[" in token:
                name, _, rest = token.partition("[")
                key = rest.rstrip("]")
                node = node.list_node(name) if name not in node._children \
                    else node._children[name]
                node = node.instance(key)
            else:
                node = node.child(token)
        return node

    # -- validation -------------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of problems (empty = valid)."""
        problems: list[str] = []
        self._validate_into(problems)
        return problems

    def _validate_into(self, problems: list[str]) -> None:
        schema = self.schema
        if isinstance(schema, Leaf):
            if self.value is None and schema.mandatory:
                problems.append(f"{self.path()}: mandatory leaf unset")
            return
        if isinstance(schema, YangList) and self.is_list:
            for instance in self._instances.values():
                instance._validate_into(problems)
            return
        # container or list instance: check mandatory leaves exist
        for name, child_schema in schema.children.items():
            if isinstance(child_schema, Leaf) and child_schema.mandatory:
                if name not in self._children or self._children[name].value is None:
                    problems.append(f"{self.path()}/{name}: mandatory leaf missing")
        for child in self._children.values():
            child._validate_into(problems)

    # -- digest ---------------------------------------------------------------------

    def digest(self) -> int:
        """Order-independent 64-bit content hash (see :meth:`measure`)."""
        return self.measure()[0]

    def measure(self, path: Optional[str] = None) -> tuple[int, int]:
        """``(hash, size)`` of this subtree: the XOR of one 64-bit hash
        per set leaf, taken over the leaf's path and value, and the
        summed length of the values.

        Neither depends on member order, and both move incrementally —
        replacing a subtree changes the whole tree's hash by ``old ^
        new`` and its size by ``new - old`` — which is how both ends of
        a delta push keep the digest of a config that neither of them
        re-encodes."""
        if path is None:
            path = self.path()
        if self.is_leaf:
            return _measure_leaf(path, self.value)
        keyed = self.is_list
        digest = size = 0
        for key, node in (self._instances if keyed else self._children).items():
            member_path = f"{path}[{key}]" if keyed else f"{path}/{key}"
            # most of a tree is leaves: measured here, not one call down
            part, length = (_measure_leaf(member_path, node.value)
                            if node._children is _NO_MEMBERS
                            else node.measure(member_path))
            digest ^= part
            size += length
        return digest, size

    # -- copy / serialization ------------------------------------------------------

    def copy(self) -> "DataNode":
        clone = DataNode(self.schema, key_value=self.key_value)
        clone.value = self.value
        for name, child in self._children.items():
            child_clone = child.copy()
            child_clone.parent = clone
            clone._children[name] = child_clone
        for key, instance in self._instances.items():
            instance_clone = instance.copy()
            instance_clone.parent = clone
            clone._instances[key] = instance_clone
        return clone

    def to_dict(self) -> Any:
        if self.is_leaf:
            return self.value
        if self.is_list:
            return {key: inst.to_dict() for key, inst in sorted(self._instances.items())}
        return {name: child.to_dict() for name, child in sorted(self._children.items())}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_xml(self, indent: int = 0) -> str:
        """Compact XML-ish rendering (for logs and byte-count metrics)."""
        pad = "  " * indent
        name = self.schema.name
        if self.is_leaf:
            return f"{pad}<{name}>{self.value}</{name}>"
        if self.is_list:
            return "\n".join(inst.to_xml(indent) for inst in self._instances.values())
        inner = [child.to_xml(indent + 1) for child in self._children.values()]
        if not inner:
            return f"{pad}<{name}/>"
        body = "\n".join(inner)
        return f"{pad}<{name}>\n{body}\n{pad}</{name}>"

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"<DataLeaf {self.path()}={self.value!r}>"
        return f"<DataNode {self.path()}>"


def _measure_leaf(path: str, value: Any) -> tuple[int, int]:
    if value is None:
        return 0, 0
    text = f"{path}={value}"
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(),
                          "big"), len(text) - len(path)


def data_from_dict(schema: SchemaNode, data: Any,
                   key_value: Optional[str] = None) -> DataNode:
    """Build a data tree from :meth:`DataNode.to_dict` output."""
    node = DataNode(schema, key_value=key_value)
    _fill_from_dict(node, data)
    return node


def _fill_from_dict(node: DataNode, data: Any) -> None:
    if node.is_leaf:
        if data is not None:
            assert isinstance(node.schema, Leaf)
            node.value = node.schema.check_value(data)
        return
    if node.is_list:
        for key, instance_data in data.items():
            instance = node.add_instance(key)
            _fill_from_dict(instance, instance_data)
        return
    schema = node.schema
    for name, child_data in data.items():
        child_schema = schema.children.get(name)
        if child_schema is None:
            raise ValidationError(f"unknown child {name!r} at {node.path()}")
        if isinstance(child_schema, Leaf):
            node.set_leaf(name, child_data)
        elif isinstance(child_schema, Container):
            _fill_from_dict(node.container(name), child_data)
        else:
            _fill_from_dict(node.list_node(name), child_data)
