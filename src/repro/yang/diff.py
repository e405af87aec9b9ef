"""Structural diff and patch for YANG-like data trees.

The Unify interface is diff-based: a manager fetches a view, edits it
locally and sends only the delta.  :func:`diff_trees` produces an
ordered edit script; :func:`apply_patch` replays it on another copy,
in place, and can log what each entry replaced, so that
:func:`undo_patch` takes the edit back in O(edit).  Deletes are emitted
before creates so that replace-by-key works.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.yang.data import (
    _NO_MEMBERS,
    DataNode,
    ValidationError,
    _fill_from_dict,
    _work,
)


class DiffOp(str, enum.Enum):
    SET = "set"          #: set a leaf value (path -> leaf)
    DELETE = "delete"    #: remove a list instance or unset a leaf
    CREATE = "create"    #: create a list instance subtree (value = dict)


@dataclass(frozen=True)
class DiffEntry:
    op: DiffOp
    path: str
    value: Any = None

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op.value, "path": self.path, "value": self.value}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DiffEntry":
        return cls(op=DiffOp(data["op"]), path=data["path"],
                   value=data.get("value"))


def diff_trees(old: DataNode, new: DataNode) -> list[DiffEntry]:
    """Edit script transforming ``old`` into ``new``.

    Both trees must share a schema.  The script touches leaves with SET,
    list instances with CREATE/DELETE; containers are recursed into.
    """
    if old.schema is not new.schema and old.schema.path() != new.schema.path():
        raise ValidationError("cannot diff trees with different schemas")
    entries: list[DiffEntry] = []
    _diff_node(old, new, entries)
    return entries


def _diff_node(old: DataNode, new: DataNode, entries: list[DiffEntry]) -> None:
    if old is new:  # a subtree both trees share
        return
    if old.is_leaf:
        if old.value != new.value:
            if new.value is None:
                entries.append(DiffEntry(DiffOp.DELETE, new.path()))
            else:
                entries.append(DiffEntry(DiffOp.SET, new.path(), new.value))
        return
    if old.is_list and new.is_list:
        was, now = old._instances, new._instances
        if was.keys() != now.keys():
            for key in sorted(was.keys() - now.keys()):
                # the holder path already ends in the list name; the
                # instance path just appends its key selector
                entries.append(DiffEntry(DiffOp.DELETE,
                                         f"{new.path()}[{key}]"))
            for key in sorted(now.keys() - was.keys()):
                entries.append(DiffEntry(DiffOp.CREATE, now[key].path(),
                                         now[key].to_dict()))
        for key in sorted(key for key, kept in now.items()
                          if was.get(key, kept) is not kept):
            _diff_node(was[key], now[key], entries)
        return
    # container or list instance
    was, now = old._children, new._children
    if was.keys() != now.keys():
        for name in sorted(was.keys() - now.keys()):
            entries.append(DiffEntry(DiffOp.DELETE, f"{new.path()}/{name}"))
        for name in sorted(now.keys() - was.keys()):
            child = now[name]
            if child.is_leaf:
                entries.append(DiffEntry(DiffOp.SET, child.path(),
                                         child.value))
            else:
                _emit_creates(child, entries)
    for name in sorted(name for name, kept in now.items()
                       if was.get(name, kept) is not kept):
        before, after = was[name], now[name]
        # most of a tree is leaves: compared here, not one call down
        if after._children is not _NO_MEMBERS or before.value != after.value:
            _diff_node(before, after, entries)


def _emit_creates(node: DataNode, entries: list[DiffEntry]) -> None:
    """Emit CREATEs for every list instance reachable under a fresh node,
    and SETs for loose leaves under fresh containers."""
    if node.is_leaf:
        if node.value is not None:
            entries.append(DiffEntry(DiffOp.SET, node.path(), node.value))
        return
    if node.is_list:
        # by key, as everywhere: not in the order the tree was filled in
        for instance in sorted(node.instances(), key=lambda i: i.key_value):
            entries.append(DiffEntry(DiffOp.CREATE, instance.path(),
                                     instance.to_dict()))
        return
    for child in node.children():
        _emit_creates(child, entries)


#: what an undo record holds for a member that was not there
_ABSENT: Any = object()


def apply_patch(tree: DataNode, entries: list[DiffEntry], *,
                undo: Optional[list[list]] = None) -> int:
    """Apply an edit script to ``tree`` in place.  Returns the XOR mask
    by which it moved the tree's :meth:`~DataNode.digest`: each entry
    measures the node it replaces or removes before it goes, and the one
    it leaves at its path after — on the nodes it resolved anyway.

    Given an ``undo`` list, each change is logged there before it is
    made: the leaf value or member an entry replaced or removed, and
    each container or list it created on the way.  :func:`undo_patch`
    then takes the edit back in O(edit), also when an entry raised
    part-way through the script."""
    root_name = tree.schema.name
    mask = 0
    for entry in entries:
        parent_path, token = _split_leaf(_strip_root(entry.path, root_name))
        name, _, rest = token.partition("[")
        key = rest.rstrip("]") if rest else None
        if entry.op == DiffOp.SET:
            parent = _resolve_creating(tree, parent_path, undo)
            leaf = parent._children.get(token)
            if leaf is not None:  # measured before it takes the value
                mask ^= leaf.measure(entry.path)[0]
            if undo is not None:
                undo.append([parent._children, token, _ABSENT]
                            if leaf is None else [leaf, None, leaf.value])
            old, new = None, parent.set_leaf(token, entry.value)
        elif entry.op == DiffOp.DELETE:
            # a delete creates nothing, not even on its way
            parent = tree.find(parent_path)
            if parent is None:
                raise ValidationError(f"no parent node for {entry.path!r}")
            members, member = ((parent._children, token) if key is None else
                               (parent.child(name)._instances, key))
            new, old = None, members.get(member)
            if old is None:
                raise ValidationError(f"nothing to delete at {entry.path!r}")
            if undo is not None:
                undo.append([members, member, old])
            del members[member]
        elif entry.op == DiffOp.CREATE:
            parent = (_resolve_creating(tree, parent_path, undo)
                      if parent_path else tree)
            if undo is not None and name not in parent._children:
                undo.append([parent._children, name, _ABSENT])
            holder = parent.list_node(name)
            old = holder.get_instance(key)
            if undo is not None:
                undo.append([holder._instances, key,
                             _ABSENT if old is None else old])
            if old is not None:
                holder.remove_instance(key)
            new = holder.add_instance(key)
            _fill_from_dict(new, entry.value)
        else:  # pragma: no cover - enum is exhaustive
            raise ValidationError(f"unknown diff op {entry.op}")
        if old is not None:
            mask ^= old.measure(entry.path)[0]
        if new is not None:
            mask ^= new.measure(entry.path)[0]
    return mask


def undo_patch(undo: list[list]) -> None:
    """Take back the edit :func:`apply_patch` logged in ``undo``, latest
    change first.  Each record swaps what it holds with what the tree
    holds, so the log then holds the edit: :func:`redo_patch` makes it
    again, without resolving a path."""
    _swap(reversed(undo))


def redo_patch(undo: list[list]) -> None:
    """Make again the edit that :func:`undo_patch` took back."""
    _swap(undo)


def _swap(records: Iterable[list]) -> None:
    for record in records:
        held, key, saved = record
        if key is None:  # a leaf's value
            record[2], held.value = held.value, saved
            continue
        record[2] = held.get(key, _ABSENT)
        if saved is _ABSENT:
            held.pop(key, None)  # (a create that raised made nothing)
        else:
            held[key] = saved


def find(tree: DataNode, path: str) -> Optional[DataNode]:
    """The node an entry path addresses in ``tree``, or None."""
    return tree.find(_strip_root(path, tree.schema.name))


def _resolve_creating(tree: DataNode, path: str,
                      undo: Optional[list[list]]) -> DataNode:
    """Resolve a path, creating missing *containers* on the way (NETCONF
    merge semantics), each logged to ``undo`` (see :func:`apply_patch`).
    Missing list instances are still errors — they must arrive via
    explicit CREATE entries."""
    from repro.yang.schema import Container

    _work.resolved += 1
    node = tree
    for token in [t for t in path.strip("/").split("/") if t]:
        name, _, rest = token.partition("[")
        if undo is not None and name not in node._children:
            undo.append([node._children, name, _ABSENT])
        if rest:
            node = node.list_node(name).instance(rest.rstrip("]"))
        elif isinstance(node._child_schema(token), Container):
            node = node.container(token)
        else:
            node = node.list_node(token)
    return node


def _strip_root(path: str, root_name: str) -> str:
    path = path.strip("/")
    prefix = root_name
    if path == prefix:
        return ""
    if path.startswith(prefix + "/"):
        return path[len(prefix) + 1:]
    # root may itself be a list instance token like "virtualizer[v1]"
    if path.startswith(prefix + "["):
        _, _, rest = path.partition("/")
        return rest
    raise ValidationError(f"path {path!r} does not start at root {root_name!r}")


def _split_leaf(path: str) -> tuple[str, str]:
    path = path.strip("/")
    if "/" not in path:
        return "", path
    parent, _, last = path.rpartition("/")
    return parent, last


def patch_size_bytes(entries: list[DiffEntry]) -> int:
    """Wire size of an edit script (JSON), for control-plane metrics."""
    return len(json.dumps([entry.to_dict() for entry in entries]).encode())
