"""Property-based round-trips for the YANG diff engine with *forced*
list-entry creates and deletes.

The generic tree-pair properties in ``test_yang_properties.py`` only
exercise CREATE/DELETE when two independently drawn trees happen to
disagree on list keys; here the second tree is derived from the first
by explicit entry removal/insertion, so every example is guaranteed to
produce a patch containing both ops.  Every application also checks the
XOR mask ``apply_patch`` returns against the digests of the two trees.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.yang import (
    Container,
    DataNode,
    DiffOp,
    Leaf,
    LeafType,
    YangList,
    apply_patch,
    diff_trees,
)

SCHEMA = Container("cfg", [
    Leaf("name"),
    YangList("entry", key="id", children=[
        Leaf("id"), Leaf("value"),
        Container("sub", [Leaf("x", LeafType.INT)]),
        YangList("port", key="id", children=[Leaf("id"), Leaf("speed")]),
    ]),
])

keys = st.text(alphabet="abcdef", min_size=1, max_size=3)


def populate_entry(draw, entry):
    if draw(st.booleans()):
        entry.set_leaf("value", draw(keys))
    if draw(st.booleans()):
        entry.container("sub").set_leaf("x", draw(st.integers(0, 9)))
    for port_key in draw(st.sets(keys, max_size=3)):
        port = entry.list_node("port").add_instance(port_key)
        if draw(st.booleans()):
            port.set_leaf("speed", draw(keys))


@st.composite
def churned_trees(draw):
    """(old, new, deleted_keys, created_keys): new is old minus at least
    one existing entry plus at least one fresh entry."""
    old = DataNode(SCHEMA)
    entries = old.list_node("entry")
    original = draw(st.sets(keys, min_size=1, max_size=5))
    for key in original:
        populate_entry(draw, entries.add_instance(key))

    new = old.copy()
    doomed = draw(st.sets(st.sampled_from(sorted(original)), min_size=1))
    for key in doomed:
        new.list_node("entry").remove_instance(key)
    fresh = draw(st.sets(keys.filter(lambda k: k not in original),
                         min_size=1, max_size=3))
    for key in fresh:
        populate_entry(draw, new.list_node("entry").add_instance(key))
    return old, new, doomed, fresh


@given(churned_trees())
@settings(max_examples=80, deadline=None)
def test_patch_reproduces_churned_tree(case):
    old, new, doomed, fresh = case
    script = diff_trees(old, new)
    patched = old.copy()
    # the mask is what the script moved the digest by, measured as it
    # applied: a store keeps its digest without re-measuring its tree
    assert apply_patch(patched, script) == old.digest() ^ new.digest()
    assert patched.to_dict() == new.to_dict()


@given(churned_trees())
@settings(max_examples=60, deadline=None)
def test_script_names_every_churned_entry(case):
    old, new, doomed, fresh = case
    script = diff_trees(old, new)
    deletes = {e.path for e in script if e.op == DiffOp.DELETE}
    creates = {e.path for e in script if e.op == DiffOp.CREATE}
    for key in doomed:
        assert f"/cfg/entry[{key}]" in deletes
    for key in fresh:
        assert f"/cfg/entry[{key}]" in creates


@given(churned_trees())
@settings(max_examples=60, deadline=None)
def test_deletes_precede_creates_per_list(case):
    # replace-by-key relies on the delete landing first
    old, new, _, _ = case
    script = diff_trees(old, new)
    ops = [e.op for e in script
           if e.path.startswith("/cfg/entry[") and "]/" not in e.path]
    first_create = ops.index(DiffOp.CREATE) if DiffOp.CREATE in ops else len(ops)
    assert DiffOp.DELETE not in ops[first_create:]


@given(churned_trees())
@settings(max_examples=60, deadline=None)
def test_reverse_patch_restores_original(case):
    old, new, _, _ = case
    forward = diff_trees(old, new)
    backward = diff_trees(new, old)
    roundtrip = old.copy()
    masks = apply_patch(roundtrip, forward), apply_patch(roundtrip, backward)
    assert masks == (old.digest() ^ new.digest(),) * 2
    assert roundtrip.to_dict() == old.to_dict()


@given(churned_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_nested_port_churn_roundtrips(case, data):
    # churn the nested list of a *surviving* entry as well
    old, new, doomed, _ = case
    survivors = sorted(set(old.list_node("entry").instance_keys()) - doomed)
    if survivors:
        entry = new.list_node("entry").instance(survivors[0])
        ports = entry.list_node("port")
        for key in list(ports.instance_keys()):
            ports.remove_instance(key)
        ports.add_instance(data.draw(keys, label="new-port"))
    script = diff_trees(old, new)
    patched = old.copy()
    # the mask is what the script moved the digest by, measured as it
    # applied: a store keeps its digest without re-measuring its tree
    assert apply_patch(patched, script) == old.digest() ^ new.digest()
    assert patched.to_dict() == new.to_dict()
