"""Structural diff and patch for YANG-like data trees.

The Unify interface is diff-based: a manager fetches a view, edits it
locally and sends only the delta.  :func:`diff_trees` produces an
ordered edit script; :func:`apply_patch` replays it on another copy,
in place, and can log what each entry replaced, so that
:func:`undo_patch` takes the edit back in O(edit).  Deletes are emitted
before creates so that replace-by-key works.

A script SETs leaves and CREATEs or DELETEs list instances (and
DELETEs a leaf or container that went).  Both sides read a node's
leaves where they are, in its dict of values, and the undo log records
the member — a value, a node — that one of a node's dicts held under a
name, and writes it back through that node, so that a measured tree's
digest moves with the edit both ways.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.yang.data import _ABSENT, DataNode, ValidationError, _work
from repro.yang.schema import Container


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
    path = new.path()
    if new.is_list:
        was, now = old._instances, new._instances
        if was.keys() != now.keys():
            for key in sorted(was.keys() - now.keys()):
                entries.append(DiffEntry(DiffOp.DELETE, f"{path}[{key}]"))
            for key in sorted(now.keys() - was.keys()):
                entries.append(DiffEntry(DiffOp.CREATE, f"{path}[{key}]",
                                         now[key].to_dict()))
        for key in sorted(key for key, kept in now.items()
                          if was.get(key, kept) is not kept):
            _diff_node(was[key], now[key], entries)
        return
    # container or list instance: its leaves and child nodes, by name
    was_leaves, leaves = old._leaves, new._leaves
    was, now = old._children, new._children
    gone: list[str] = []
    came: list[str] = []
    changed: list[str] = []
    if was_leaves != leaves:
        if was_leaves.keys() != leaves.keys():
            gone += was_leaves.keys() - leaves.keys()
            came += leaves.keys() - was_leaves.keys()
        changed += [name for name, value in leaves.items()
                    if was_leaves.get(name, value) != value]
    if was.keys() != now.keys():
        gone += was.keys() - now.keys()
        came += now.keys() - was.keys()
    changed += [name for name, kept in now.items()
                if was.get(name, kept) is not kept]
    for name in sorted(gone):
        entries.append(DiffEntry(DiffOp.DELETE, f"{path}/{name}"))
    for name in sorted(came):
        if name in leaves:
            entries.append(DiffEntry(DiffOp.SET, f"{path}/{name}",
                                     leaves[name]))
        else:
            _emit_creates(now[name], f"{path}/{name}", entries)
    for name in sorted(changed):
        if name in leaves:
            entries.append(DiffEntry(DiffOp.SET, f"{path}/{name}",
                                     leaves[name]))
        else:
            _diff_node(was[name], now[name], entries)


def _emit_creates(node: DataNode, path: str, entries: list[DiffEntry]) -> None:
    """Emit CREATEs for every list instance reachable under a fresh node
    at ``path``, and SETs for loose leaves under fresh containers."""
    if node.is_list:
        # by key, as everywhere: not in the order the tree was filled in
        for key, instance in sorted(node._instances.items()):
            entries.append(DiffEntry(DiffOp.CREATE, f"{path}[{key}]",
                                     instance.to_dict()))
        return
    for name, value in node._leaves.items():
        entries.append(DiffEntry(DiffOp.SET, f"{path}/{name}", value))
    for name, child in node._children.items():
        _emit_creates(child, f"{path}/{name}", entries)


def apply_patch(tree: DataNode, entries: list[DiffEntry], *,
                undo: Optional[list[list]] = None) -> list[DataNode]:
    """Apply an edit script to ``tree`` in place, resolving a parent
    path only where it differs from the entry before's; returns the
    instances its CREATEs made, in order.  The tree's own mutators keep
    its measured nodes' digests right.

    Given an ``undo`` list, each change is logged there before it is
    made: the member (leaf value or node) an entry replaced or removed,
    and each container or list it created on the way.  :func:`undo_patch`
    then takes the edit back in O(edit), also when an entry raised
    part-way through the script."""
    root_name = tree.schema.name
    created: list[DataNode] = []
    # the parent resolved last: an entry removes or replaces a member of
    # its parent only, so the parent stays in the tree for the next one
    resolved, parent = None, tree
    for entry in entries:
        parent_path, _, token = _strip_root(
            entry.path, root_name).rpartition("/")
        name, _, rest = token.partition("[")
        key = rest.rstrip("]") if rest else None
        if parent_path != resolved:
            # a delete creates nothing, not even on its way
            parent = (tree.find(parent_path) if entry.op == DiffOp.DELETE
                      else _resolve_creating(tree, parent_path, undo))
            if parent is None:
                raise ValidationError(f"no parent node for {entry.path!r}")
            resolved = parent_path
        if entry.op == DiffOp.SET:
            if undo is not None:
                undo.append([parent, parent._leaves, token,
                             parent._leaves.get(token, _ABSENT)])
            parent.set_leaf(token, entry.value)
        elif entry.op == DiffOp.DELETE:
            node = parent.child(name) if key is not None else parent
            members, member = (
                (node._instances, key) if key is not None else
                (node._leaves, token) if token in node._leaves else
                (node._children, token))
            if member not in members:
                raise ValidationError(f"nothing to delete at {entry.path!r}")
            if undo is not None:
                undo.append([node, members, member, members[member]])
            node._replace(members, member)
        else:  # CREATE
            if undo is not None and name not in parent._children:
                undo.append([parent, parent._children, name, _ABSENT])
            holder = parent.list_node(name)
            old = holder.get_instance(key)
            if undo is not None:
                undo.append([holder, holder._instances, key,
                             _ABSENT if old is None else old])
            if old is not None:
                holder.remove_instance(key)
            created.append(holder.add_instance(key, entry.value))
    return created


def undo_patch(undo: list[list]) -> None:
    """Take back the edit :func:`apply_patch` logged in ``undo``, latest
    change first.  Each record swaps the member it holds with what the
    tree holds, so the log then holds the edit: :func:`redo_patch` makes
    it again, without resolving a path."""
    _swap(reversed(undo))


def redo_patch(undo: list[list]) -> None:
    """Make again the edit that :func:`undo_patch` took back."""
    _swap(undo)


def _swap(records: Iterable[list]) -> None:
    # through the node's writer, which keeps the digests right; a
    # create that raised made nothing, and puts nothing back
    for record in records:
        node, members, key, saved = record
        record[3] = node._replace(members, key, saved)


def _resolve_creating(tree: DataNode, path: str,
                      undo: Optional[list[list]]) -> DataNode:
    """Resolve a path, creating missing *containers* on the way (NETCONF
    merge semantics), each logged to ``undo`` (see :func:`apply_patch`).
    Missing list instances are still errors — they must arrive via
    explicit CREATE entries."""
    _work.resolved += 1
    node = tree
    for token in [t for t in path.strip("/").split("/") if t]:
        name, _, rest = token.partition("[")
        if undo is not None and name not in node._children:
            undo.append([node, node._children, name, _ABSENT])
        if rest:
            node = node.list_node(name).instance(rest.rstrip("]"))
        elif isinstance(node._child_schema(token), Container):
            node = node.container(token)
        else:
            node = node.list_node(token)
    return node


def _strip_root(path: str, root_name: str) -> str:
    path = path.strip("/")
    if path == root_name:
        return ""
    if path.startswith(root_name + "/"):
        return path[len(root_name) + 1:]
    # root may itself be a list instance token like "virtualizer[v1]"
    if path.startswith(root_name + "["):
        _, _, rest = path.partition("/")
        return rest
    raise ValidationError(f"path {path!r} does not start at root {root_name!r}")


def patch_size_bytes(entries: list[DiffEntry]) -> int:
    """Wire size of an edit script (JSON), for control-plane metrics."""
    return len(json.dumps([entry.to_dict() for entry in entries]).encode())
