"""Property-based tests for the YANG diff/patch engine: for arbitrary
tree pairs, ``apply_patch(a, diff(a, b))`` makes ``a`` into ``b``; and
for arbitrary trees, the digest is what its definition says, whatever
the tree's representation."""

from hashlib import blake2b

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.yang import Container, DataNode, Leaf, LeafType, YangList, diff_trees, apply_patch

SCHEMA = Container("cfg", [
    Leaf("name"),
    Leaf("count", LeafType.INT),
    Container("box", [Leaf("v", LeafType.INT), Leaf("w")]),
    YangList("entry", key="id", children=[
        Leaf("id"), Leaf("value"),
        Container("sub", [Leaf("x", LeafType.INT)]),
        YangList("port", key="id", children=[Leaf("id"), Leaf("speed")]),
    ]),
])

names = st.text(alphabet="abcde", min_size=1, max_size=4)


@st.composite
def random_tree(draw):
    tree = DataNode(SCHEMA)
    if draw(st.booleans()):
        tree.set_leaf("name", draw(names))
    if draw(st.booleans()):
        tree.set_leaf("count", draw(st.integers(0, 99)))
    if draw(st.booleans()):
        box = tree.container("box")
        box.set_leaf("v", draw(st.integers(0, 9)))
        if draw(st.booleans()):
            box.set_leaf("w", draw(names))
    entries = tree.list_node("entry")
    for key in draw(st.sets(names, max_size=4)):
        entry = entries.add_instance(key)
        if draw(st.booleans()):
            entry.set_leaf("value", draw(names))
        if draw(st.booleans()):
            entry.container("sub").set_leaf("x", draw(st.integers(0, 9)))
        ports = entry.list_node("port")
        for port_key in draw(st.sets(names, max_size=3)):
            instance = ports.add_instance(port_key)
            if draw(st.booleans()):
                instance.set_leaf("speed", draw(names))
    return tree


@given(random_tree(), random_tree())
@settings(max_examples=80, deadline=None)
def test_patch_transforms_a_into_b(a, b):
    entries = diff_trees(a, b)
    patched = a.copy()
    apply_patch(patched, entries)
    assert patched.to_dict() == b.to_dict()


@given(random_tree())
@settings(max_examples=40, deadline=None)
def test_self_diff_is_empty(tree):
    assert diff_trees(tree, tree.copy()) == []


@given(random_tree(), random_tree())
@settings(max_examples=40, deadline=None)
def test_diff_is_antisymmetric_in_size(a, b):
    forward = diff_trees(a, b)
    backward = diff_trees(b, a)
    # applying forward then backward returns to a
    roundtrip = a.copy()
    apply_patch(roundtrip, forward)
    apply_patch(roundtrip, backward)
    assert roundtrip.to_dict() == a.to_dict()


@given(random_tree(), random_tree())
@settings(max_examples=40, deadline=None)
def test_patch_is_idempotent_for_sets_and_creates(a, b):
    entries = [e for e in diff_trees(a, b)]
    patched_once = a.copy()
    apply_patch(patched_once, entries)
    # re-applying CREATE entries replaces-by-key, SET entries overwrite;
    # DELETE entries would fail on second application, so filter them
    from repro.yang import DiffOp
    repeatable = [e for e in entries if e.op != DiffOp.DELETE]
    patched_twice = patched_once.copy()
    apply_patch(patched_twice, repeatable)
    assert patched_twice.to_dict() == patched_once.to_dict()


def reference_measure(schema, data, path):
    """``(hash, size)`` of ``to_dict()`` output ``data`` of a container or
    list instance of ``schema`` at ``path``, straight from the digest's
    definition: the XOR over every leaf of the 64-bit blake2b of
    ``path/name=value``, and the summed length of ``=value``."""
    digest = size = 0
    for name, value in data.items():
        child = schema.children[name]
        if isinstance(child, Leaf):
            text = f"{path}/{name}={value}"
            digest ^= int.from_bytes(
                blake2b(text.encode(), digest_size=8).digest(), "big")
            size += len(f"={value}")
            continue
        members = ({f"{name}[{key}]": instance
                    for key, instance in value.items()}
                   if isinstance(child, YangList) else {name: value})
        for token, member in members.items():
            part, length = reference_measure(child, member, f"{path}/{token}")
            digest ^= part
            size += length
    return digest, size


@given(random_tree())
@settings(max_examples=300, deadline=None)
def test_measure_is_the_digest_definition(tree):
    assert tree.measure() == reference_measure(SCHEMA, tree.to_dict(), "/cfg")
    for entry in tree.list_node("entry").instances():
        assert entry.measure() == reference_measure(
            SCHEMA.children["entry"], entry.to_dict(), entry.path())
