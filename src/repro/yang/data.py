"""Data-side classes of the YANG-like engine.

A :class:`DataNode` instantiates a schema node: containers hold child
data nodes by name, list nodes hold instances by key value, leaves hold
a canonicalized value.  Paths use the compact form
``/virtualizer/nodes/node[un1]/flowtable/flowentry[f3]/match``.
"""

from __future__ import annotations

import json
import struct
import threading
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

class _Work(threading.local):
    """Tree work this thread did since :func:`take_work` last read it:
    subtrees measured (:meth:`DataNode.measure` calls) and paths
    resolved (:meth:`DataNode.find`, :meth:`DataNode.resolve` and the
    patch applier's walks).  Per thread, so that concurrent pushes
    neither lose nor swap counts."""

    measured = resolved = 0


_work = _Work()


def take_work() -> tuple[int, int]:
    """``(subtrees measured, paths resolved)`` by this thread since the
    last call."""
    work = (_work.measured, _work.resolved)
    _work.measured = _work.resolved = 0
    return work


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
            return self._add_leaf(schema, value)
        if node._children is not _NO_MEMBERS:
            raise ValidationError(f"{self.path()}/{name} is not a leaf")
        node.value = node.schema.check_value(value)
        return node

    def _add_leaf(self, schema: Leaf, value: Any) -> "DataNode":
        """A new child leaf of schema ``schema`` (in place of any there)."""
        node = DataNode(schema)
        node._parent = weakref.ref(self)
        self._children[schema.name] = node
        node.value = schema.check_value(value)
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

    def put(self, instance: "DataNode") -> None:
        """Put a finished instance — encoded in another tree, which is
        no longer its parent — into this list under its key, in place of
        the one held there."""
        instance._parent = weakref.ref(self)
        self._instances[instance.key_value] = instance

    def instance(self, key_value: str) -> "DataNode":
        try:
            return self._instances[str(key_value)]
        except KeyError:
            raise ValidationError(
                f"no instance {key_value!r} in list {self.path()}") from None

    def has_instance(self, key_value: str) -> bool:
        return str(key_value) in self._instances

    def get_instance(self, key_value: str) -> Optional["DataNode"]:
        """The instance under ``key_value``, or None."""
        return self._instances.get(key_value)

    def instance_count(self) -> int:
        return len(self._instances)

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
        _work.resolved += 1
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
        _work.resolved += 1
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
            if child._children is not _NO_MEMBERS:
                child._validate_into(problems)
            elif child.value is None and child.schema.mandatory:
                # a leaf: checked here, not one call down
                problems.append(f"{child.path()}: mandatory leaf unset")

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
        _work.measured += 1
        return self._measure(self.path() if path is None else path)

    def _measure(self, path: str) -> tuple[int, int]:
        if self._children is _NO_MEMBERS:
            return _measure_leaf(path, self.value)
        keyed = self.key_value is None and isinstance(self.schema, YangList)
        digest = size = 0
        for key, node in (self._instances if keyed else self._children).items():
            member_path = f"{path}[{key}]" if keyed else f"{path}/{key}"
            # most of a tree is leaves: measured here, not one call down
            part, length = (_measure_leaf(member_path, node.value)
                            if node._children is _NO_MEMBERS
                            else node._measure(member_path))
            digest ^= part
            size += length
        return digest, size

    # -- copy / serialization ------------------------------------------------------

    def copy(self) -> "DataNode":
        """A deep copy, held by nothing."""
        return self._clone(None)

    def _clone(self, parent: Optional[weakref.ref]) -> "DataNode":
        # every field is copied: set directly, and one weak reference to
        # the clone serves all of its members
        clone = DataNode.__new__(DataNode)
        clone.schema, clone.key_value, clone.value, clone._parent = (
            self.schema, self.key_value, self.value, parent)
        if self._children is _NO_MEMBERS:
            clone._children = clone._instances = _NO_MEMBERS
            return clone
        held = weakref.ref(clone)
        clone._children = {name: child._clone(held)
                           for name, child in self._children.items()}
        clone._instances = {key: instance._clone(held)
                            for key, instance in self._instances.items()}
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


#: an empty 64-bit blake2b, copied per leaf (cheaper than a new one)
_BLAKE2B_64 = blake2b(digest_size=8)
_UINT64 = struct.Struct(">Q")


def _measure_leaf(path: str, value: Any) -> tuple[int, int]:
    if value is None:
        return 0, 0
    text = f"{path}={value}"
    hashed = _BLAKE2B_64.copy()
    hashed.update(text.encode())
    return _UINT64.unpack(hashed.digest())[0], len(text) - len(path)


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
            node._add_leaf(child_schema, child_data)
        elif isinstance(child_schema, Container):
            _fill_from_dict(node.container(name), child_data)
        else:
            _fill_from_dict(node.list_node(name), child_data)
