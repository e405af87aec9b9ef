"""Tests for the YANG-like schema/data engine."""

import pytest

from repro.yang import (
    Container,
    DataNode,
    Leaf,
    LeafType,
    SchemaError,
    ValidationError,
    YangList,
    data_from_dict,
)


@pytest.fixture
def schema():
    return Container("root", [
        Leaf("id", mandatory=True),
        Leaf("count", LeafType.INT),
        Leaf("ratio", LeafType.DECIMAL),
        Leaf("enabled", LeafType.BOOLEAN),
        Leaf("mode", LeafType.ENUM, enum_values=("fast", "slow")),
        Container("nested", [Leaf("value")]),
        YangList("item", key="id", children=[
            Leaf("id"), Leaf("label"),
            Container("sub", [Leaf("x", LeafType.INT)]),
        ]),
    ])


class TestSchema:
    def test_leaf_type_checking(self):
        leaf = Leaf("n", LeafType.INT)
        assert leaf.check_value(5) == 5
        with pytest.raises(SchemaError):
            leaf.check_value("five")
        with pytest.raises(SchemaError):
            leaf.check_value(True)  # bool is not int here

    def test_decimal_accepts_int(self):
        leaf = Leaf("d", LeafType.DECIMAL)
        assert leaf.check_value(3) == 3.0

    def test_enum_requires_values(self):
        with pytest.raises(SchemaError):
            Leaf("e", LeafType.ENUM)

    def test_enum_rejects_unknown(self):
        leaf = Leaf("e", LeafType.ENUM, enum_values=("a",))
        with pytest.raises(SchemaError):
            leaf.check_value("b")

    def test_boolean(self):
        leaf = Leaf("b", LeafType.BOOLEAN)
        assert leaf.check_value(True) is True
        with pytest.raises(SchemaError):
            leaf.check_value(1)

    def test_string_rejects_non_string(self):
        with pytest.raises(SchemaError):
            Leaf("s").check_value(5)

    def test_duplicate_child_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.add(Leaf("id"))

    def test_bad_default_rejected(self):
        with pytest.raises(SchemaError):
            Leaf("n", LeafType.INT, default="zero")

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Container("a/b")

    def test_schema_path(self, schema):
        assert schema.child("nested").path() == "/root/nested"


class TestDataTree:
    def test_set_and_get_leaf(self, schema):
        tree = DataNode(schema)
        tree.set_leaf("id", "x")
        assert tree.get("id") == "x"
        assert tree.get("missing", "default") == "default"

    def test_set_leaf_wrong_type(self, schema):
        tree = DataNode(schema)
        with pytest.raises(SchemaError):
            tree.set_leaf("count", "not a number")

    def test_unknown_child_rejected(self, schema):
        tree = DataNode(schema)
        with pytest.raises(ValidationError):
            tree.set_leaf("ghost", "x")

    def test_container_get_or_create(self, schema):
        tree = DataNode(schema)
        nested = tree.container("nested")
        assert tree.container("nested") is nested
        nested.set_leaf("value", "v")
        assert tree.container("nested").get("value") == "v"

    def test_container_on_leaf_rejected(self, schema):
        tree = DataNode(schema)
        with pytest.raises(ValidationError):
            tree.container("id")

    def test_list_instances(self, schema):
        tree = DataNode(schema)
        items = tree.list_node("item")
        items.add_instance("a").set_leaf("label", "first")
        items.add_instance("b")
        assert items.instance_keys() == ["a", "b"]
        assert items.instance("a").get("label") == "first"
        assert items.instance("a").get("id") == "a"  # key auto-set

    def test_duplicate_instance_rejected(self, schema):
        items = DataNode(schema).list_node("item")
        items.add_instance("a")
        with pytest.raises(ValidationError):
            items.add_instance("a")

    def test_remove_instance(self, schema):
        items = DataNode(schema).list_node("item")
        items.add_instance("a")
        items.remove_instance("a")
        assert not items.has_instance("a")
        with pytest.raises(ValidationError):
            items.remove_instance("a")

    def test_paths(self, schema):
        tree = DataNode(schema)
        sub = tree.list_node("item").add_instance("k1").container("sub")
        sub.set_leaf("x", 5)
        assert sub.path() == "/root/item[k1]/sub"
        assert sub.get("x") == 5

    def test_validation_mandatory_leaf(self, schema):
        tree = DataNode(schema)
        problems = tree.validate()
        assert any("mandatory" in p for p in problems)
        tree.set_leaf("id", "ok")
        assert tree.validate() == []

    def test_copy_is_deep(self, schema):
        tree = DataNode(schema)
        tree.set_leaf("id", "x")
        tree.list_node("item").add_instance("a")
        clone = tree.copy()
        clone.list_node("item").add_instance("b")
        assert tree.list_node("item").instance_keys() == ["a"]

    def test_dict_roundtrip(self, schema):
        tree = DataNode(schema)
        tree.set_leaf("id", "x")
        tree.set_leaf("count", 3)
        tree.set_leaf("enabled", False)
        tree.set_leaf("mode", "fast")
        tree.container("nested").set_leaf("value", "deep")
        tree.list_node("item").add_instance("a").container("sub") \
            .set_leaf("x", 1)
        rebuilt = data_from_dict(schema, tree.to_dict())
        assert rebuilt.to_dict() == tree.to_dict()

    def test_dict_rejects_unknown_key(self, schema):
        with pytest.raises(ValidationError):
            data_from_dict(schema, {"alien": 1})

    def test_xml_rendering(self, schema):
        tree = DataNode(schema)
        tree.set_leaf("id", "x")
        xml = tree.to_xml()
        assert "<root>" in xml and "<id>x</id>" in xml

    def test_json_rendering(self, schema):
        tree = DataNode(schema)
        tree.set_leaf("id", "x")
        assert '"id": "x"' in tree.to_json(indent=1)

    def test_remove_child(self, schema):
        tree = DataNode(schema)
        tree.set_leaf("id", "x")
        tree.remove_child("id")
        assert not tree.has_child("id")
        with pytest.raises(ValidationError):
            tree.remove_child("id")
