"""Tests for YANG tree diff/patch — the Unify interface's delta format."""

import pytest

from repro.yang import (
    Container,
    DataNode,
    DiffOp,
    Leaf,
    LeafType,
    ValidationError,
    YangList,
    apply_patch,
    diff_trees,
)
from repro.yang.diff import DiffEntry, patch_size_bytes


@pytest.fixture
def schema():
    return Container("cfg", [
        Leaf("name"),
        Container("box", [Leaf("v", LeafType.INT)]),
        YangList("entry", key="id", children=[
            Leaf("id"), Leaf("value"),
            YangList("port", key="id", children=[Leaf("id"), Leaf("speed")]),
        ]),
    ])


def _base(schema):
    tree = DataNode(schema)
    tree.set_leaf("name", "base")
    tree.container("box").set_leaf("v", 1)
    entry = tree.list_node("entry").add_instance("e1")
    entry.set_leaf("value", "v1")
    entry.list_node("port").add_instance("p1").set_leaf("speed", "10G")
    return tree


def test_identical_trees_empty_diff(schema):
    a = _base(schema)
    assert diff_trees(a, a.copy()) == []


def test_leaf_change_produces_set(schema):
    a = _base(schema)
    b = a.copy()
    b.set_leaf("name", "new")
    entries = diff_trees(a, b)
    assert entries == [DiffEntry(DiffOp.SET, "/cfg/name", "new")]


def test_nested_leaf_change(schema):
    a = _base(schema)
    b = a.copy()
    b.container("box").set_leaf("v", 2)
    entries = diff_trees(a, b)
    assert entries[0].path == "/cfg/box/v" and entries[0].value == 2


def test_instance_create(schema):
    a = _base(schema)
    b = a.copy()
    b.list_node("entry").add_instance("e2").set_leaf("value", "v2")
    entries = diff_trees(a, b)
    assert len(entries) == 1
    assert entries[0].op == DiffOp.CREATE
    assert entries[0].path == "/cfg/entry[e2]"
    assert entries[0].value["value"] == "v2"


def test_instance_delete(schema):
    a = _base(schema)
    b = a.copy()
    b.list_node("entry").remove_instance("e1")
    entries = diff_trees(a, b)
    assert entries == [DiffEntry(DiffOp.DELETE, "/cfg/entry[e1]")]


def test_nested_list_diff(schema):
    a = _base(schema)
    b = a.copy()
    ports = b.list_node("entry").instance("e1").list_node("port")
    ports.remove_instance("p1")
    ports.add_instance("p2").set_leaf("speed", "40G")
    entries = diff_trees(a, b)
    ops = {(e.op, e.path) for e in entries}
    assert (DiffOp.DELETE, "/cfg/entry[e1]/port[p1]") in ops
    assert (DiffOp.CREATE, "/cfg/entry[e1]/port[p2]") in ops


def test_patch_roundtrip_complex(schema):
    a = _base(schema)
    b = a.copy()
    b.set_leaf("name", "patched")
    b.container("box").set_leaf("v", 9)
    b.list_node("entry").remove_instance("e1")
    new_entry = b.list_node("entry").add_instance("e9")
    new_entry.set_leaf("value", "nine")
    new_entry.list_node("port").add_instance("px").set_leaf("speed", "100G")
    entries = diff_trees(a, b)
    patched = a.copy()
    assert apply_patch(patched, entries) == a.digest() ^ b.digest()
    assert patched.to_dict() == b.to_dict()


def test_patch_create_replaces_existing(schema):
    a = _base(schema)
    entries = [DiffEntry(DiffOp.CREATE, "/cfg/entry[e1]",
                         {"id": "e1", "value": "replaced"})]
    apply_patch(a, entries)
    assert a.list_node("entry").instance("e1").get("value") == "replaced"


def test_patch_rejects_foreign_root(schema):
    a = _base(schema)
    with pytest.raises(ValidationError):
        apply_patch(a, [DiffEntry(DiffOp.SET, "/other/name", "x")])


def test_diff_rejects_different_schemas(schema):
    other = Container("different", [Leaf("name")])
    with pytest.raises(ValidationError):
        diff_trees(DataNode(schema), DataNode(other))


def test_patch_size_smaller_than_full_tree_for_small_change(schema):
    a = _base(schema)
    for index in range(20):
        a.list_node("entry").add_instance(f"bulk{index}")
    b = a.copy()
    b.set_leaf("name", "tweak")
    entries = diff_trees(a, b)
    assert patch_size_bytes(entries) < len(b.to_json().encode())


def test_diff_entry_dict_roundtrip():
    entry = DiffEntry(DiffOp.CREATE, "/cfg/entry[x]", {"id": "x"})
    assert DiffEntry.from_dict(entry.to_dict()) == entry


def test_new_container_content_emits_sets(schema):
    a = DataNode(schema)
    a.set_leaf("name", "x")
    b = a.copy()
    b.container("box").set_leaf("v", 5)
    entries = diff_trees(a, b)
    assert any(e.op == DiffOp.SET and e.path == "/cfg/box/v" for e in entries)
    patched = a.copy()
    assert apply_patch(patched, entries) == a.digest() ^ b.digest()
    assert patched.to_dict() == b.to_dict()


def test_deleted_container_emits_delete(schema):
    a = _base(schema)
    b = a.copy()
    b.remove_child("box")
    entries = diff_trees(a, b)
    assert DiffEntry(DiffOp.DELETE, "/cfg/box") in entries
    patched = a.copy()
    apply_patch(patched, entries)
    assert not patched.has_child("box")
