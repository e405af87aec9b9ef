"""Data-side classes of the YANG-like engine.

A :class:`DataNode` instantiates a container, a list or a list instance
of a schema: containers and instances hold child data nodes by name,
list nodes hold instances by key value.  A leaf is not a node: it is
its canonical value (:meth:`~repro.yang.schema.Leaf.check_value`),
held by name in a dict of its parent.  Values are immutable, so copies
of a tree share them, and a dict of them is nothing for the cyclic
collector to visit.  Paths use the compact form
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


class _Work(threading.local):
    """Tree work this thread did since :func:`take_work` last read it:
    subtrees measured afresh (a :meth:`DataNode.measure` no cache
    answered), leaves hashed, and paths resolved (:meth:`DataNode.find`
    and the patch applier's walks).  Per thread, so that concurrent
    pushes neither lose nor swap counts."""

    measured = hashed = resolved = 0


_work = _Work()


def take_work() -> tuple[int, int, int]:
    """``(subtrees measured, leaves hashed, paths resolved)`` by this
    thread since the last call."""
    work = (_work.measured, _work.hashed, _work.resolved)
    _work.measured = _work.hashed = _work.resolved = 0
    return work


#: what a member slot holds when it holds nothing
_ABSENT: Any = object()


class DataNode:
    """A container, list or list instance of a data tree, bound to its
    schema node.  Once measured, a node caches its subtree's ``(hash,
    size)``, kept right in O(depth) by :meth:`_replace`.  A hash is taken
    over the path, so a node moves only back to its slot (an undo log)
    or as an instance :meth:`put` at its own path (checked there)."""

    __slots__ = ("schema", "key_value", "_parent", "_leaves", "_children",
                 "_instances", "_measured", "_path", "__weakref__")

    def __init__(self, schema: SchemaNode, key_value: Optional[str] = None):
        self.schema = schema
        #: for list *instances*: the key value addressing this instance
        self.key_value = key_value
        #: the node holding this one, held weakly: a subtree that left
        #: its tree is freed with its last reference instead of waiting,
        #: as a reference cycle, for a full collection
        self._parent: Optional[weakref.ref] = None
        #: containers & instances: leaf values and child nodes by name
        self._leaves: dict[str, Any] = {}
        self._children: dict[str, DataNode] = {}
        #: list nodes only
        self._instances: dict[str, DataNode] = {}
        #: ``(hash, size)`` of this subtree, or None: not measured yet
        self._measured: Optional[tuple[int, int]] = None
        #: :meth:`path`, once asked (a node leaves its place only to
        #: come back to it, so it holds)
        self._path: Optional[str] = None

    # -- classification ---------------------------------------------------

    @property
    def is_list(self) -> bool:
        return isinstance(self.schema, YangList) and self.key_value is None

    # -- structure building -------------------------------------------------

    def set_leaf(self, name: str, value: Any) -> None:
        """Create/overwrite a child leaf."""
        schema = self._child_schema(name)
        if not isinstance(schema, Leaf):
            raise ValidationError(f"{self.path()}/{name} is not a leaf")
        if self._measured is None:  # (most writes: a tree being built)
            self._leaves[name] = schema.check_value(value)
        else:
            self._replace(self._leaves, name, schema.check_value(value))

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
                if self._measured is not None:  # empty: moves nothing
                    node._measured = (0, 0)
                return node
        elif isinstance(node.schema, kind):
            return node
        raise ValidationError(f"{self.path()}/{name} is not a {what}")

    def add_instance(self, key_value: str, data: Any = None) -> "DataNode":
        """Add an instance to a list node (self must be the list holder),
        filled from ``data`` (:meth:`to_dict` output) before it joins."""
        if not self.is_list:
            raise ValidationError(f"{self.path()} is not a list node")
        key_value = str(key_value)
        if key_value in self._instances:
            raise ValidationError(f"duplicate list key {key_value!r} at {self.path()}")
        instance = DataNode(self.schema, key_value=key_value)
        assert isinstance(self.schema, YangList)
        if data is None or self.schema.key not in data:
            instance.set_leaf(self.schema.key, key_value)
        if data is not None:
            _fill_from_dict(instance, data)
        self._replace(self._instances, key_value, instance)
        return instance

    def put(self, instance: "DataNode") -> None:
        """Put a finished instance — encoded in another tree, which is
        no longer its parent — into this list under its key, in place of
        the one held there — at the path it has there, where any cache it
        carries was taken."""
        if instance.path() != f"{self.path()}[{instance.key_value}]":
            raise ValidationError(f"{instance.path()} is not in {self.path()}")
        self._replace(self._instances, instance.key_value, instance)

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
        self._replace(self._instances, str(key_value))

    def remove_child(self, name: str) -> None:
        """Remove child leaf or node ``name``."""
        members = self._leaves if name in self._leaves else self._children
        if name not in members:
            raise ValidationError(f"no child {name!r} at {self.path()}")
        self._replace(members, name)

    def _replace(self, members: dict, name: str, new: Any = _ABSENT) -> Any:
        """Hold ``new`` (a value, a node; ``_ABSENT``: none) under
        ``name`` in ``members``, a dict of this node's; returns what it
        held.  The one writer of members: a measured node and its
        ancestors move by what left (its cache) and what came (measured
        where it now sits), so a measured node has measured members."""
        old = members.pop(name, _ABSENT)
        if type(old) is DataNode:  # out of the tree: its writes stay in it
            old._parent = None
        if new is not _ABSENT:
            members[name] = new
            if type(new) is DataNode:
                new._parent = weakref.ref(self)
        if self._measured is None:
            return old
        digest = size = 0
        for member, sign in ((old, -1), (new, 1)):
            if member is not _ABSENT:
                part, length = (member.measure() if type(member) is DataNode
                                else _hash_leaf(f"{self.path()}/{name}", member))
                digest, size = digest ^ part, size + sign * length
        node, measured = self, self._measured
        while measured is not None:
            node._measured = (measured[0] ^ digest, measured[1] + size)
            node = node._parent and node._parent()
            measured = node and node._measured
        return old

    # -- navigation ---------------------------------------------------------

    def child(self, name: str) -> "DataNode":
        """Child node (container or list) ``name``."""
        try:
            return self._children[name]
        except KeyError:
            raise ValidationError(f"no child {name!r} at {self.path()}") from None

    def has_child(self, name: str) -> bool:
        """Whether child leaf or node ``name`` is there."""
        return name in self._leaves or name in self._children

    def get(self, name: str, default: Any = None) -> Any:
        """Value of child leaf ``name`` or ``default``."""
        return self._leaves.get(name, default)

    def children(self) -> Iterator["DataNode"]:
        """The child nodes (containers and lists; not the leaves)."""
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

    # -- paths ----------------------------------------------------------------

    def path(self) -> str:
        if self._path is None:  # (a node moves only to where it was)
            parent = self._parent and self._parent()
            base = parent.path() if parent is not None else ""
            self._path = (f"{base}/{self.schema.name}"
                          if self.key_value is None else
                          f"{base or '/' + self.schema.name}[{self.key_value}]")
        return self._path

    def find(self, path: str) -> Optional["DataNode"]:
        """The node at a path relative to this node, or None: a miss
        neither raises nor creates anything, and a leaf is no node."""
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

    # -- validation -------------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of problems (empty = valid)."""
        problems: list[str] = []
        self._validate_into(problems)
        return problems

    def _validate_into(self, problems: list[str]) -> None:
        if self.is_list:
            for instance in self._instances.values():
                instance._validate_into(problems)
            return
        # container or list instance: check mandatory leaves exist
        for name, child_schema in self.schema.children.items():
            if (isinstance(child_schema, Leaf) and child_schema.mandatory
                    and name not in self._leaves):
                problems.append(f"{self.path()}/{name}: mandatory leaf missing")
        for child in self._children.values():
            child._validate_into(problems)

    # -- digest ---------------------------------------------------------------------

    def digest(self) -> int:
        """Order-independent 64-bit content hash (see :meth:`measure`)."""
        return self.measure()[0]

    def measure(self) -> tuple[int, int]:
        """``(hash, size)`` of this subtree: the XOR of one 64-bit hash
        per leaf, taken over the leaf's path and value, and the summed
        length of the values.

        Neither depends on member order, and both move incrementally —
        replacing a subtree changes the whole tree's hash by ``old ^
        new`` and its size by ``new - old`` — which is how a tree keeps
        its cache (see the class), and both ends of a delta push the
        digest of a config that neither of them re-encodes."""
        if self._measured is None:
            _work.measured += 1
            _work.hashed += self._measure(self.path())
        return self._measured

    def _measure(self, path: str) -> int:
        # caches this subtree's measure (and its unmeasured members'),
        # returns the leaves it hashed; a list holds instances only, a
        # container or instance none; leaves are hashed here, inline
        hashed = len(self._leaves)
        digest, size = 0, -hashed * (len(path) + 1)  # a leaf's size: "=value"
        for name, value in self._leaves.items():
            text = f"{path}/{name}={value}"
            leaf = _BLAKE2B_64.copy()
            leaf.update(text.encode())
            digest ^= _UINT64.unpack(leaf.digest())[0]
            size += len(text) - len(name)
        for name, child in self._children.items():
            if child._measured is None:
                hashed += child._measure(f"{path}/{name}")
            part, length = child._measured
            digest ^= part
            size += length
        for key, instance in self._instances.items():
            if instance._measured is None:
                hashed += instance._measure(f"{path}[{key}]")
            part, length = instance._measured
            digest ^= part
            size += length
        self._measured = (digest, size)
        return hashed

    # -- copy / serialization ------------------------------------------------------

    def copy(self) -> "DataNode":
        """A deep copy, held by nothing, with the measures (which hold
        where the original sits)."""
        return self._clone(None)

    def _clone(self, parent: Optional[weakref.ref]) -> "DataNode":
        # every field is copied: set directly, leaf values shared, and
        # one weak reference to the clone serves all of its members
        clone = DataNode.__new__(DataNode)
        clone.schema, clone.key_value, clone._parent, clone._leaves = (
            self.schema, self.key_value, parent, self._leaves.copy())
        clone._measured, clone._path = self._measured, None
        if not (self._children or self._instances):
            clone._children, clone._instances = {}, {}
            return clone
        held = weakref.ref(clone)
        clone._children = {name: child._clone(held)
                           for name, child in self._children.items()}
        clone._instances = {key: instance._clone(held)
                            for key, instance in self._instances.items()}
        return clone

    def to_dict(self) -> Any:
        if self.is_list:
            return {key: inst.to_dict() for key, inst in sorted(self._instances.items())}
        return dict(sorted([*self._leaves.items(),
                            *((name, child.to_dict())
                              for name, child in self._children.items())]))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_xml(self, indent: int = 0) -> str:
        """Compact XML-ish rendering (for logs and byte-count metrics):
        a node's leaves, then its child nodes."""
        if self.is_list:
            return "\n".join(inst.to_xml(indent) for inst in self._instances.values())
        pad = "  " * indent
        name = self.schema.name
        inner = [f"{pad}  <{leaf}>{value}</{leaf}>"
                 for leaf, value in self._leaves.items()]
        inner += [child.to_xml(indent + 1) for child in self._children.values()]
        if not inner:
            return f"{pad}<{name}/>"
        body = "\n".join(inner)
        return f"{pad}<{name}>\n{body}\n{pad}</{name}>"

    def __repr__(self) -> str:
        return f"<DataNode {self.path()}>"


#: an empty 64-bit blake2b, copied per leaf (cheaper than a new one)
_BLAKE2B_64 = blake2b(digest_size=8)
_UINT64 = struct.Struct(">Q")


def _hash_leaf(path: str, value: Any) -> tuple[int, int]:
    """``(hash, size)`` of a leaf holding ``value`` at ``path``: what
    it adds to the :meth:`~DataNode.measure` of every subtree it is in."""
    _work.hashed += 1
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
    # node is not measured: its leaves are written where they are held
    if node.is_list:
        for key, instance_data in data.items():
            node.add_instance(key, instance_data)
        return
    schema = node.schema
    for name, child_data in data.items():
        child_schema = schema.children.get(name)
        if child_schema is None:
            raise ValidationError(f"unknown child {name!r} at {node.path()}")
        if isinstance(child_schema, Leaf):  # (a null leaf is refused)
            node._leaves[name] = child_schema.check_value(child_data)
        elif isinstance(child_schema, Container):
            _fill_from_dict(node.container(name), child_data)
        else:
            _fill_from_dict(node.list_node(name), child_data)
