"""Install-config codec: NETCONF config payloads as YANG data trees.

Domain adapters push ``{"nffg": nffg_to_dict(...)}`` payloads.  To diff
two such payloads with :func:`repro.yang.diff.diff_trees` we mirror the
payload onto a tiny YANG-like schema:

- ``id`` / ``name`` / ``version`` become string leaves,
- ``metadata`` becomes one leaf holding canonical JSON,
- the ``nodes`` / ``edges`` arrays become *keyed lists*: an edge
  instance holds the member dict as one canonical-JSON ``body`` leaf; a
  node instance splits into an ``attrs`` leaf (the port-free remainder
  of the node dict), a nested ``port`` list keyed by port id, and each
  port into its own ``attrs`` leaf plus a ``flowrule`` list keyed by
  hop id.

Keying the lists is what makes deltas small: an unchanged node or edge
compares equal through its canonical JSON leaves and contributes
nothing to the edit script, while additions/removals become CREATE and
DELETE entries addressed by key.  Splitting ports (and their flow
rules) out of the node body is what makes deltas proportional to the
*change* rather than to the accumulated state: installing one flow rule
on a transit switch ships one flowrule entry, not the switch's whole
flowtable grown by every service deployed so far.  The nffg <->
virtualizer translation is deliberately *not* used here — it is lossy,
and the delta path must reconstruct the exact ``{"nffg": ...}`` dict
the domain orchestrators parse.

Because list instances are keyed, reconstructing a config from a tree
yields nodes/edges/ports in canonical (key-sorted) order rather than
graph insertion order.  Equality across push modes is therefore defined
over the tree: :meth:`~repro.yang.data.DataNode.digest` does not depend
on member order, and both ends of a push hold the tree anyway.

A domain orchestrator does not re-read a whole tree after a delta
commit: :func:`touched_elements` names the nodes, infra ports and edges
an edit script addresses, and :func:`node_config` / :func:`port_config`
/ :func:`edge_config` decode just those.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from repro.yang.data import DataNode, ValidationError, data_from_dict
from repro.yang.schema import Container, Leaf, YangList

__all__ = [
    "install_config_schema",
    "config_to_tree",
    "adopt_others",
    "patch_tree",
    "tree_to_config",
    "touched_elements",
    "node_config",
    "port_config",
    "edge_config",
]


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _build_schema() -> Container:
    return Container("install-config", [
        Leaf("id"),
        Leaf("name"),
        Leaf("version"),
        Leaf("metadata"),
        YangList("node", key="key", children=[
            Leaf("key", mandatory=True),
            Leaf("attrs"),
            YangList("port", key="key", children=[
                Leaf("key", mandatory=True),
                Leaf("attrs"),
                YangList("flowrule", key="key", children=[
                    Leaf("key", mandatory=True),
                    Leaf("body"),
                ]),
            ]),
        ]),
        YangList("edge", key="key", children=[
            Leaf("key", mandatory=True),
            Leaf("body"),
        ]),
    ])


_SCHEMA = _build_schema()


def install_config_schema() -> Container:
    """The shared schema all install-config trees bind to (one instance,
    so :func:`diff_trees` accepts any pair of trees built here)."""
    return _SCHEMA


def _node_key(node: dict[str, Any]) -> str:
    try:
        return str(node["id"])
    except KeyError:
        raise ValidationError(f"config node without id: {node!r}") from None


def _edge_key(edge: dict[str, Any]) -> str:
    # edge ids are only unique per edge type; the type joins the key
    try:
        return f"{edge.get('type', 'STATIC')}|{edge['id']}"
    except KeyError:
        raise ValidationError(f"config edge without id: {edge!r}") from None


def _port_key(port: dict[str, Any]) -> str:
    try:
        return str(port["id"])
    except (TypeError, KeyError):
        raise ValidationError(f"config port without id: {port!r}") from None


def _flowrule_key(flowrule: dict[str, Any]) -> str:
    try:
        return str(flowrule["hop_id"])
    except (TypeError, KeyError):
        raise ValidationError(
            f"config flowrule without hop_id: {flowrule!r}") from None


def _splittable(member: dict[str, Any], field: str, keyer) -> bool:
    """Whether ``member[field]`` can become keyed list instances.  An
    absent/empty/malformed/key-colliding value stays inside ``attrs``
    verbatim so reconstruction is loss-free."""
    items = member.get(field)
    if not (isinstance(items, list) and items
            and all(isinstance(item, dict) for item in items)):
        return False
    try:
        keys = {keyer(item) for item in items}
    except ValidationError:
        return False
    return len(keys) == len(items)


def _encode_port(holder: DataNode, port: dict[str, Any],
                 donor: Optional[DataNode] = None,
                 fresh: Iterable[str] = ()) -> None:
    """One port dict as an instance of the ``port`` list ``holder``.
    ``donor`` is an earlier instance of the port: the flow rules it
    holds under keys outside ``fresh`` are moved over, not encoded."""
    instance = holder.add_instance(_port_key(port))
    attrs = port
    if _splittable(port, "flowrules", _flowrule_key):
        attrs = {name: value for name, value in port.items()
                 if name != "flowrules"}
        rule_holder = instance.list_node("flowrule")
        old_rules = donor.find("flowrule") if donor is not None else None
        for flowrule in port["flowrules"]:
            key = _flowrule_key(flowrule)
            if (old_rules is not None and key not in fresh
                    and old_rules.has_instance(key)):
                rule_holder.adopt(old_rules.instance(key))
            else:
                rule_holder.add_instance(key).set_leaf(
                    "body", _canonical_json(flowrule))
    instance.set_leaf("attrs", _canonical_json(attrs))


def _encode_node(holder: DataNode, member: dict[str, Any]) -> None:
    """One node dict as an instance of the ``node`` list ``holder``."""
    instance = holder.add_instance(_node_key(member))
    attrs = member
    if _splittable(member, "ports", _port_key):
        attrs = {name: value for name, value in member.items()
                 if name != "ports"}
        port_holder = instance.list_node("port")
        for port in member["ports"]:
            _encode_port(port_holder, port)
    instance.set_leaf("attrs", _canonical_json(attrs))


def _encode_edge(holder: DataNode, member: dict[str, Any]) -> None:
    holder.add_instance(_edge_key(member)).set_leaf(
        "body", _canonical_json(member))


def _header(tree: DataNode, nffg: dict[str, Any]) -> None:
    tree.set_leaf("id", str(nffg.get("id", "")))
    tree.set_leaf("name", str(nffg.get("name", "")))
    tree.set_leaf("version", str(nffg.get("version", "")))
    tree.set_leaf("metadata", _canonical_json(nffg.get("metadata", {})))


def config_to_tree(config: dict[str, Any]) -> DataNode:
    """Project an adapter config (``{"nffg": nffg_to_dict(...)}``) onto
    the install-config schema.  A Unify config (``{"virtualizer":
    Virtualizer.to_dict()}``) is a yang tree already and binds to the
    virtualizer schema as it is.
    """
    if isinstance(config, dict) and set(config) == {"virtualizer"}:
        from repro.virtualizer.model import virtualizer_schema  # imports us

        try:
            return data_from_dict(virtualizer_schema(), config["virtualizer"])
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"not a virtualizer: {exc}") from None
    try:
        nffg = config["nffg"]
    except (TypeError, KeyError):
        raise ValidationError(
            f"install config must be {{'nffg': ...}}-shaped, got {config!r}"
        ) from None
    tree = DataNode(_SCHEMA)
    _header(tree, nffg)
    node_holder = tree.list_node("node")
    for member in nffg.get("nodes", []):
        _encode_node(node_holder, member)
    edge_holder = tree.list_node("edge")
    for member in nffg.get("edges", []):
        _encode_edge(edge_holder, member)
    return tree


def adopt_others(target: DataNode, base: DataNode, path: str, skip) -> None:
    """Move into ``target``'s list at ``path`` — a list name behind the
    containers that lead to it — every instance ``base`` holds there
    under a key outside ``skip``; ``base`` still lists them and stays
    good to diff against and to read.  What an edit does not name is
    moved, not encoded, so a patched tree costs the edit."""
    held = base.find(path)
    kept = [] if held is None else [instance for instance in held.instances()
                                    if instance.key_value not in skip]
    if kept:  # a list nothing is kept of is not created
        *containers, name = path.split("/")
        for container in containers:
            target = target.container(container)
        target.list_node(name).adopt(*kept)


def patch_tree(base: DataNode, header: dict[str, Any],
               nodes: dict[str, Optional[dict[str, Any]]],
               ports: dict[tuple[str, str], Optional[dict[str, Any]]],
               hops: Iterable[str],
               edges: dict[str, Optional[dict[str, Any]]]) -> DataNode:
    """The install-config tree of a config that differs from ``base``'s
    in the named members only: ``nodes`` by node id, ``ports`` by (node
    id, port id) on nodes ``base`` has and ``nodes`` does not name,
    ``edges`` by edge id — each with its new dict, or None for "gone";
    on the named ports, flow rules differ under the hop ids ``hops``
    only; ``header`` carries the graph's id / name / version / metadata.
    Only the named members are encoded, every other instance is moved
    over from ``base`` (:func:`adopt_others`).  Equal, leaf for leaf, to
    :func:`config_to_tree` of the whole new config."""
    tree = DataNode(_SCHEMA)
    _header(tree, header)
    by_node: dict[str, dict[str, Optional[dict[str, Any]]]] = {}
    for (node_key, port_key), port in ports.items():
        by_node.setdefault(node_key, {})[port_key] = port
    node_holder = tree.list_node("node")
    adopt_others(tree, base, "node", nodes.keys() | by_node.keys())
    for member in filter(None, nodes.values()):
        _encode_node(node_holder, member)
    for node_key, own in by_node.items():
        old = base.child("node").instance(node_key)
        instance = node_holder.add_instance(node_key)
        instance.set_leaf("attrs", old.get("attrs"))
        adopt_others(instance, old, "port", own)  # no ports, no port list
        for port in filter(None, own.values()):
            _encode_port(instance.list_node("port"), port,
                         old.find(f"port[{_port_key(port)}]"), hops)
    edge_holder = tree.list_node("edge")
    adopt_others(tree, base, "edge", {
        f"{kind}|{edge_id}" for edge_id in edges
        for kind in ("STATIC", "DYNAMIC", "SG", "REQUIREMENT")})
    for member in filter(None, edges.values()):
        _encode_edge(edge_holder, member)
    return tree


def _port_member(instance: DataNode) -> dict[str, Any]:
    port = json.loads(instance.get("attrs", "null"))
    if instance.has_child("flowrule"):
        holder = instance.child("flowrule")
        flowrules = [json.loads(holder.instance(key).get("body", "null"))
                     for key in sorted(holder.instance_keys())]
        if flowrules:
            port["flowrules"] = flowrules
    return port


def _node_member(instance: DataNode) -> dict[str, Any]:
    member = json.loads(instance.get("attrs", "null"))
    if instance.has_child("port"):
        holder = instance.child("port")
        ports = [_port_member(holder.instance(key))
                 for key in sorted(holder.instance_keys())]
        if ports:
            member["ports"] = ports
    return member


def _edge_member(instance: DataNode) -> dict[str, Any]:
    return json.loads(instance.get("body", "null"))


def tree_to_config(tree: DataNode) -> dict[str, Any]:
    """Rebuild the ``{"nffg": ...}`` config dict from an install-config
    tree.  Nodes, edges and ports come back in canonical (key-sorted)
    order.  A virtualizer tree gives its ``{"virtualizer": ...}``."""
    if tree.schema is not _SCHEMA:
        return {tree.schema.name: tree.to_dict()}

    def members(list_name: str, decode) -> list[dict[str, Any]]:
        if not tree.has_child(list_name):
            return []
        holder = tree.child(list_name)
        return [decode(holder.instance(key))
                for key in sorted(holder.instance_keys())]

    return {"nffg": {
        "id": tree.get("id", ""),
        "name": tree.get("name", ""),
        "version": tree.get("version", ""),
        "metadata": json.loads(tree.get("metadata", "{}")),
        "nodes": members("node", _node_member),
        "edges": members("edge", _edge_member),
    }}


def node_config(tree: DataNode, key: str) -> Optional[dict[str, Any]]:
    """The config dict of node ``key`` (ports included), None if absent."""
    instance = tree.find(f"node[{key}]")
    return None if instance is None else _node_member(instance)


def port_config(tree: DataNode, node_key: str,
                port_key: str) -> Optional[dict[str, Any]]:
    """The config dict of one port (flow rules included), None if absent."""
    instance = tree.find(f"node[{node_key}]/port[{port_key}]")
    return None if instance is None else _port_member(instance)


def edge_config(tree: DataNode, key: str) -> Optional[dict[str, Any]]:
    """The config dict of edge ``key`` (``<type>|<id>``), None if absent."""
    instance = tree.find(f"edge[{key}]")
    return None if instance is None else _edge_member(instance)


def touched_elements(paths: Iterable[str],
                     ) -> tuple[set[str], set[tuple[str, str]], set[str]]:
    """What the entry ``paths`` of an install-config edit script address:
    ``(node keys, (node key, port key) pairs, edge keys)``.

    A node is named when it was created, deleted or changed outside its
    ports (such a node is re-read whole, so its ports are not listed);
    a port when anything at or below it changed.  Top-level leaves (id,
    name, version, metadata) name nothing.
    """
    nodes: set[str] = set()
    ports: set[tuple[str, str]] = set()
    edges: set[str] = set()
    for path in paths:
        tokens = path.strip("/").split("/")[1:]
        name, _, rest = tokens[0].partition("[") if tokens else ("", "", "")
        key = rest.rstrip("]")
        if name == "edge" and rest:
            edges.add(key)
        elif name == "node" and rest:
            port = tokens[1] if len(tokens) > 1 else ""
            if port.startswith("port["):
                ports.add((key, port[len("port["):].rstrip("]")))
            else:
                nodes.add(key)
    return nodes, {pair for pair in ports if pair[0] not in nodes}, edges
