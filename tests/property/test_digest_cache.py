"""A YANG tree carries its own digest: every node caches the ``(hash,
size)`` of its subtree once it has been measured, and every mutator keeps
that cache right in O(depth).

The state machine drives one tree through random sequences of leaf
writes, instance adds (empty or filled), removals, ``put``s of members
built in another tree, patches with their undo / redo, copies and
measures; after every step each cached ``(hash, size)`` must equal the
digest's definition (``reference_measure``, straight from ``to_dict``),
and a measured node may have measured descendants only.  Any mutator
that skips its cache update trips it.  The unit tests below pin where a
cache may travel (``put``) and that a teardown hashes nothing.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import perf
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain
from repro.yang import DataNode, ValidationError, apply_patch, diff_trees
from repro.yang.data import take_work
from repro.yang.diff import redo_patch, undo_patch
from tests.property.test_yang_properties import (
    SCHEMA,
    names,
    random_tree,
    reference_measure,
)


def definition(node: DataNode) -> tuple[int, int]:
    """``(hash, size)`` of ``node``'s subtree where it sits, from the
    digest's definition: no cache is read."""
    if node.is_list:
        digest = size = 0
        for instance in node.instances():
            part, length = definition(instance)
            digest ^= part
            size += length
        return digest, size
    return reference_measure(node.schema, node.to_dict(), node.path())


def nodes(node: DataNode):
    yield node
    for member in (*node.children(), *node.instances()):
        yield from nodes(member)


def check_caches(tree: DataNode) -> None:
    for node in nodes(tree):
        if node._measured is None:
            continue
        assert node._measured == definition(node), node.path()
        for member in (*node.children(), *node.instances()):
            assert member._measured is not None, member.path()


class TreeWithDigest(RuleBasedStateMachine):
    """One tree, edited every way a tree is edited."""

    @initialize(tree=random_tree(), measured=st.booleans())
    def start(self, tree, measured):
        self.tree = tree
        self.undo = None  # the log of the last patch, and whether undone
        self.undone = False
        if measured:
            tree.measure()

    def _entries(self):
        return self.tree.list_node("entry")

    def _some_entry(self, data):
        keys = self._entries().instance_keys()
        return (self._entries().instance(data.draw(st.sampled_from(keys)))
                if keys else None)

    @rule(name=names, count=st.integers(0, 99))
    def set_root_leaves(self, name, count):
        self.undo = None  # the log holds only while nothing else writes
        self.tree.set_leaf("name", name)
        self.tree.set_leaf("count", count)

    @rule(v=st.integers(0, 9), w=names)
    def set_box(self, v, w):
        self.undo = None
        box = self.tree.container("box")
        box.set_leaf("v", v)
        box.set_leaf("w", w)

    @rule(data=st.data(), value=names, x=st.integers(0, 9), port=names)
    def edit_an_entry(self, data, value, x, port):
        self.undo = None
        entry = self._some_entry(data)
        if entry is None:
            return
        entry.set_leaf("value", value)
        entry.container("sub").set_leaf("x", x)
        ports = entry.list_node("port")
        if ports.has_instance(port):
            ports.remove_instance(port)
        else:
            ports.add_instance(port).set_leaf("speed", value)

    @rule(key=names, value=names, filled=st.booleans())
    def add_entry(self, key, value, filled):
        self.undo = None
        if self._entries().has_instance(key):
            return
        if filled:
            self._entries().add_instance(key, {
                "id": key, "value": value, "sub": {"x": 1},
                "port": {value: {"id": value, "speed": key}}})
        else:
            self._entries().add_instance(key).set_leaf("value", value)

    @rule(data=st.data())
    def remove_entry(self, data):
        self.undo = None
        entry = self._some_entry(data)
        if entry is not None:
            self._entries().remove_instance(entry.key_value)

    @rule(name=st.sampled_from(["name", "count", "box", "entry"]))
    def remove_child(self, name):
        self.undo = None
        if self.tree.has_child(name):
            self.tree.remove_child(name)

    @rule(key=names, value=names, measured_there=st.booleans())
    def put_from_another_tree(self, key, value, measured_there):
        self.undo = None
        other = DataNode(SCHEMA)
        instance = other.list_node("entry").add_instance(key)
        instance.set_leaf("value", value)
        instance.list_node("port").add_instance(value).set_leaf("speed", key)
        if measured_there:  # at the path it takes here
            instance.measure()
        self.tree.list_node("entry").put(instance)

    @rule(target_tree=random_tree())
    def patch(self, target_tree):
        self.undo, self.undone = [], False
        apply_patch(self.tree, diff_trees(self.tree, target_tree),
                    undo=self.undo)

    @precondition(lambda self: self.undo is not None)
    @rule()
    def undo_or_redo(self):
        (redo_patch if self.undone else undo_patch)(self.undo)
        self.undone = not self.undone

    @rule()
    def copy(self):
        self.tree = self.tree.copy()
        self.undo = None

    @rule(data=st.data())
    def measure(self, data):
        entry = self._some_entry(data)
        node = entry if entry is not None and data.draw(
            st.booleans()) else self.tree
        assert node.measure() == definition(node)

    @invariant()
    def caches_are_the_definition(self):
        if hasattr(self, "tree"):
            check_caches(self.tree)


TestTreeWithDigest = TreeWithDigest.TestCase
TestTreeWithDigest.settings = settings(max_examples=150,
                                       stateful_step_count=25,
                                       deadline=None)


def test_put_refuses_a_member_measured_at_another_path():
    tree = DataNode(SCHEMA)
    tree.list_node("entry").add_instance("y").list_node("port")
    tree.measure()
    other = DataNode(SCHEMA)
    moved = other.list_node("entry").add_instance("x").list_node(
        "port").add_instance("p")
    moved.measure()  # at /cfg/entry[x]/port[p]
    ports = tree.list_node("entry").instance("y").list_node("port")
    with pytest.raises(ValidationError):
        ports.put(moved)
    assert not ports.has_instance("p")
    check_caches(tree)


def test_a_removed_member_is_not_hashed_again():
    tree = DataNode(SCHEMA)
    entries = tree.list_node("entry")
    for key in "abc":
        entries.add_instance(key).list_node("port").add_instance(
            key).set_leaf("speed", "10G")
    tree.set_leaf("name", "x")
    tree.measure()
    take_work()
    taken = tree.copy()
    apply_patch(taken, diff_trees(tree, DataNode(SCHEMA)))
    entries.remove_instance("a")
    tree.remove_child("entry")
    assert tree.measure() == definition(tree)
    assert taken.measure() == (0, 0)
    # only the root's leaf that the script deletes is hashed
    assert take_work()[:2] == (0, 1)


def test_a_fig1_teardown_hashes_nothing():
    testbed = build_reference_multidomain()
    for request_id in ("kept", "gone"):
        request = (ServiceRequestBuilder(request_id).sap("sap1").sap("sap2")
                   .nf(f"{request_id}-fw", "firewall")
                   .chain("sap1", f"{request_id}-fw", "sap2", bandwidth=5.0)
                   .build())
        assert testbed.service_layer.submit(request).success
    hashed = perf.counters.get("yang.hashed")
    assert testbed.service_layer.terminate("gone")
    assert perf.counters.get("yang.hashed") == hashed
    assert testbed.escape.cal.verify() == []
