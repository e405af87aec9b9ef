"""NFFG <-> virtualizer conversion.

Orchestration logic works on NFFGs (graphs are convenient for
embedding); the wire format of the Unify interface is the virtualizer
tree.  These converters bridge the two without information loss for the
control-plane-relevant content: infra nodes + ports + capacities,
supported NF sets, placed NF instances, flow entries, links, and SAPs
(encoded as ``port-sap`` ports).
"""

from __future__ import annotations

from itertools import count, takewhile
from typing import Iterable, Optional

from repro.nffg.graph import NFFG, EdgeObj
from repro.nffg.model import (
    DomainType,
    Flowrule,
    InfraType,
    NodeInfra,
    NodeNF,
    Port,
    ResourceVector,
)
from repro.nffg.ops import Touched
from repro.virtualizer.model import Virtualizer
from repro.yang.data import DataNode, ValidationError
from repro.yang.diff import DiffEntry, DiffOp, diff_trees


def nffg_to_virtualizer(nffg: NFFG, virtualizer_id: str | None = None) -> Virtualizer:
    """Encode the infra-level content of a (possibly mapped) NFFG."""
    virt = Virtualizer(virtualizer_id or nffg.id, name=nffg.name)
    for infra in nffg.infras:
        node = virt.add_node(
            infra.id, name=infra.name, type=infra.infra_type.value,
            domain=infra.domain.value,
            cpu=infra.resources.cpu, mem=infra.resources.mem,
            storage=infra.resources.storage,
            bandwidth=infra.resources.bandwidth, delay=infra.resources.delay,
            cost_per_cpu=infra.cost_per_cpu)
        if infra.supported_types:
            virt.set_supported_nfs(infra.id, sorted(infra.supported_types))
        for port in infra.ports.values():
            _encode_port(virt, node, port)
        for nf in nffg.nfs_on(infra.id):
            _encode_nf(virt, nffg, infra.id, nf)
    for link in nffg.links:
        _encode_link(virt, nffg, link)
    return virt


def _encode_port(virt: Virtualizer, node: DataNode, port: Port,
                 hops: set[str] | None = None) -> None:
    """One port of the BiS-BiS ``node`` and the flow entries it is the
    ingress of (given ``hops``, of those with a hop id only theirs).  An
    entry is keyed by what it is, ``<port>:<hop id>`` or ``<port>#<place
    among the port's rules without one>``: no edit elsewhere renames it."""
    Virtualizer.add_port(node, port.id, name=port.name, sap=port.sap_tag)
    hopless = 0
    for rule in port.flowrules:
        if rule.hop_id and hops is not None and rule.hop_id not in hops:
            continue
        hopless += not rule.hop_id
        virt.add_flowentry(
            node.key_value, (f"{port.id}:{rule.hop_id}" if rule.hop_id
                             else f"{port.id}#{hopless}"),
            port=port.id, out=rule.action_fields().get("output", ""),
            match=rule.match, action=rule.action, bandwidth=rule.bandwidth,
            delay=rule.delay, hop_id=rule.hop_id or "")


def _encode_nf(virt: Virtualizer, nffg: NFFG, infra_id: str, nf: NodeNF) -> None:
    instance = virt.add_nf_instance(
        infra_id, nf.id, type=nf.functional_type, name=nf.name,
        deployment_type=nf.deployment_type, status=nf.status,
        cpu=nf.resources.cpu, mem=nf.resources.mem,
        storage=nf.resources.storage)
    for nf_port in nf.ports.values():
        bound = nffg.infra_port_of_nf(nf.id, nf_port.id)
        Virtualizer.add_port(instance, nf_port.id,
                             name=bound[1] if bound else nf_port.name)


def _encode_link(virt: Virtualizer, nffg: NFFG, link: EdgeObj) -> None:
    """A link between two BiS-BiS (SAP attachments are ``port-sap``
    ports).  Of a bidirectional link's two directions the one with the
    smaller id stands for both, wherever in the graph an edit left them."""
    ends = {(link.src_node, link.src_port), (link.dst_node, link.dst_port)}
    if all(isinstance(nffg.node(node_id), NodeInfra)
           for node_id, _ in ends) and not any(
            twin.id < link.id and ends == {(twin.src_node, twin.src_port),
                                           (twin.dst_node, twin.dst_port)}
            for twin in nffg.edges_between(link.src_node, link.dst_node)):
        virt.add_link(link.id, src_node=link.src_node, src_port=link.src_port,
                      dst_node=link.dst_node, dst_port=link.dst_port,
                      delay=link.delay, bandwidth=link.bandwidth)


def encode_members(nffg: NFFG, touched: Touched) -> DataNode:
    """A virtualizer tree of just the members of ``nffg`` that
    ``touched`` names, each as :func:`nffg_to_virtualizer` encodes it:
    under every BiS-BiS that holds one — of an NF its current host (the
    attachment ports it left name the old one), of an infra port its
    node — the named ports with their flow entries under
    ``touched.hops`` or none, and the named NFs; and the named links.
    No other leaf or member of a node is encoded: the tree is what
    :func:`edit_virtualizer` edits a whole encode with."""
    virt = Virtualizer(nffg.id, name=nffg.name)
    nodes = virt.tree.container("nodes").list_node("node")
    opened: dict[str, DataNode] = {}
    hosts = [(nffg.host_of(nf_id), nf_id) for nf_id in touched.nodes]
    for node_id in {node_id for node_id, _ in touched.ports}.union(
            host for host, _ in hosts if host):
        opened[node_id] = nodes.add_instance(node_id)
    for node_id, port_id in touched.ports:
        port = nffg.infra(node_id).ports.get(port_id)
        if port is not None:
            _encode_port(virt, opened[node_id], port, touched.hops)
    for host, nf_id in hosts:
        if host:
            _encode_nf(virt, nffg, host, nffg.nf(nf_id))
    for edge_id in filter(nffg.has_edge, touched.edges):
        _encode_link(virt, nffg, nffg.edge(edge_id))
    return virt.tree


def edit_virtualizer(tree: DataNode, fresh: DataNode, touched: Touched,
                     ) -> tuple[list[DiffEntry], int, int]:
    """Edit ``tree`` — :func:`nffg_to_virtualizer` of a graph that
    differed from one in the ``touched`` members only — in place into
    the encode of that graph, given ``fresh``, its
    :func:`encode_members`.  Each named member is compared with the one
    ``tree`` holds and, where they differ, takes its place; nothing else
    is visited.  Returns what :func:`~repro.yang.diff.diff_trees` of the
    tree before and after returns, entry for entry and in order, and
    what the edit moved the tree's digest by (an XOR mask) and its size
    by (:meth:`~repro.yang.data.DataNode.measure`).  Everything is read
    before anything is written."""
    ports: dict[str, set[str]] = {}
    for node_id, port_id in touched.ports:
        ports.setdefault(node_id, set()).add(port_id)
    edits = [_ListEdit(tree, fresh, None, "links", "link", touched.edges)]
    for node in fresh.find("nodes/node").instances():
        node_id = node.key_value
        held = tree.find(f"nodes/node[{node_id}]")
        if held is None:
            raise ValidationError(f"no BiS-BiS {node_id!r} to edit")
        port_ids = ports.get(node_id, set())
        entries = {f"{port_id}:{hop_id}" for port_id in port_ids
                   for hop_id in touched.hops}
        held_entries = held.find("flowtable/flowentry")
        for port_id in port_ids if held_entries is not None else ():
            entries.update(takewhile(  # and its entries without a hop id
                lambda key: held_entries.get_instance(key) is not None,
                (f"{port_id}#{place}" for place in count(1))))
        fresh_entries = node.find("flowtable/flowentry")
        if fresh_entries is not None:
            entries.update(fresh_entries.instance_keys())
        edits += [_ListEdit(held, node, node_id, "NF_instances", "node",
                            touched.nodes),
                  _ListEdit(held, node, node_id, "flowtable", "flowentry",
                            entries),
                  _ListEdit(held, node, node_id, "ports", "port", port_ids)]
    script = [part for edit in edits for part in edit.script]
    leaves = {leaf: fresh.get(leaf) for leaf in ("id", "name")
              if tree.get(leaf) != fresh.get(leaf)}
    script += [((2, leaf), [DiffEntry(DiffOp.SET, f"/virtualizer/{leaf}",
                                      value)])
               for leaf, value in leaves.items()]
    mask = growth = 0
    for edit in edits:
        edit.write()
        mask ^= edit.mask
        growth += edit.growth
    for leaf, value in leaves.items():
        path = f"/virtualizer/{leaf}"
        was, before = tree.child(leaf).measure(path)
        now, after = tree.set_leaf(leaf, value).measure(path)
        mask ^= was ^ now
        growth += after - before
    script.sort(key=lambda part: part[0])
    return [entry for _, part in script for entry in part], mask, growth


class _ListEdit:
    """What an edit does to one list, ``container/name`` under ``held``
    — BiS-BiS ``node_id`` of the tree, or its root — of the members
    ``keys`` names: which ``fresh`` (the same place in the fresh tree)
    holds anew, no more or for the first time, what that moves the
    digest and size by, and the script :func:`~repro.yang.diff.diff_trees`
    emits for it, under a key that sorts it where that walk visits the
    list.  The walk visits a node's children (the root's; of the root,
    the ``nodes`` last, node by node) by name: first those that go,
    then those that come, then those that stay and differ — and so a
    list's container goes or comes whole with its last or first
    member."""

    def __init__(self, held: DataNode, fresh: DataNode,
                 node_id: Optional[str], container: str, name: str,
                 keys: Iterable[str]):
        self.held, self.container, self.name = held, container, name
        self.holder = held.find(f"{container}/{name}")
        anew = fresh.find(f"{container}/{name}")
        if node_id is None:
            path, place = f"/virtualizer/{container}", ()
        else:
            path = f"/virtualizer/nodes/node[{node_id}]/{container}"
            place = (2, "nodes", node_id)
        self.gone: list[str] = []
        self.put: list[DataNode] = []
        self.mask = self.growth = 0
        deleted, created, changed = [], [], []
        for key in sorted(keys):
            old = (self.holder.get_instance(key)
                   if self.holder is not None else None)
            new = anew.get_instance(key) if anew is not None else None
            member = f"{path}/{name}[{key}]"
            if old is not None and new is not None:
                script = diff_trees(old, new)
                if not script:
                    continue
                changed += script
            elif old is not None:
                deleted.append(DiffEntry(DiffOp.DELETE, member))
            elif new is not None:
                created.append(DiffEntry(DiffOp.CREATE, member, new.to_dict()))
            else:
                continue
            for node, sign in ((old, -1), (new, 1)):
                if node is not None:
                    digest, size = node.measure(member)
                    self.mask ^= digest
                    self.growth += sign * size
            if new is None:
                self.gone.append(key)
            else:
                self.put.append(new)
        was = self.holder.instance_count() if self.holder is not None else 0
        now = was - len(deleted) + len(created)
        phase, entries = ((0, [DiffEntry(DiffOp.DELETE, path)])
                          if was and not now else (1, created)
                          if now and not was else
                          (2, deleted + created + changed))
        self.script = [((*place, phase, container), entries)] if entries \
            else []

    def write(self) -> None:
        if not (self.gone or self.put):
            return
        holder = self.holder
        if holder is None:
            holder = self.held.container(self.container).list_node(self.name)
        for key in self.gone:
            holder.remove_instance(key)
        for instance in self.put:
            holder.put(instance)
        if not holder.instance_count():
            self.held.remove_child(self.container)


def virtualizer_to_nffg(virt: Virtualizer) -> NFFG:
    """Decode a virtualizer tree back into an NFFG resource view."""
    nffg = NFFG(id=virt.id, name=virt.name)
    for node in virt.nodes():
        infra = nffg.add_infra(
            node.get("id"), name=node.get("name", ""),
            infra_type=InfraType(node.get("type", "BiSBiS")),
            domain=DomainType(node.get("domain", "VIRTUAL")),
            resources=_read_resources(node),
            supported_types=virt.supported_nfs(node.get("id")),
            cost_per_cpu=node.get("cost_per_cpu", 1.0))
        for port in Virtualizer.ports(node):
            infra.add_port(port.get("id"), name=port.get("name", ""),
                           sap_tag=port.get("sap"))
        for instance in virt.nf_instances(infra.id):
            nf = nffg.add_node_copy(nf_from_instance(instance))
            port_pairs = []
            for nf_port in Virtualizer.ports(instance):
                infra_port_id = nf_port.get("name") or f"{nf.id}-{nf_port.get('id')}"
                if not infra.has_port(infra_port_id):
                    infra.add_port(infra_port_id)
                port_pairs.append((nf_port.get("id"), infra_port_id))
            if port_pairs:
                nffg.place_nf(nf.id, infra.id, port_pairs=port_pairs)
        for entry in virt.flowentries(infra.id):
            in_port, rule = flowrule_from_entry(entry)
            if in_port and infra.has_port(in_port):
                infra.port(in_port).flowrules.append(rule)
    # SAP nodes from port-sap ports
    for node in virt.nodes():
        for port in Virtualizer.ports(node):
            sap_tag = port.get("sap")
            if not sap_tag:
                continue
            if not nffg.has_node(sap_tag):
                sap = nffg.add_sap(sap_tag)
                nffg.add_link(sap_tag, list(sap.ports)[0],
                              node.get("id"), port.get("id"),
                              id=f"sl-{sap_tag}-{node.get('id')}",
                              bandwidth=0.0, delay=0.0)
    for link in virt.links():
        resources = link.container("resources") if link.has_child("resources") else None
        nffg.add_link(link.get("src_node"), link.get("src_port"),
                      link.get("dst_node"), link.get("dst_port"),
                      id=link.get("id"),
                      delay=resources.get("delay", 0.0) if resources else 0.0,
                      bandwidth=resources.get("bandwidth", 0.0) if resources else 0.0)
    return nffg


def nf_from_instance(instance: DataNode) -> NodeNF:
    """Decode one ``NF_instances/node`` entry (ports included)."""
    nf = NodeNF(instance.get("id"), instance.get("type"),
                name=instance.get("name", ""),
                deployment_type=instance.get("deployment_type", ""),
                resources=_read_resources(instance))
    nf.status = instance.get("status", "initialized")
    for nf_port in Virtualizer.ports(instance):
        nf.add_port(nf_port.get("id"))
    return nf


def flowrule_from_entry(entry: DataNode) -> tuple[str, Flowrule]:
    """Decode one ``flowtable/flowentry`` into (ingress port, rule)."""
    in_port = entry.get("port")
    resources = entry.child("resources") if entry.has_child("resources") \
        else None
    return in_port, Flowrule(
        match=entry.get("match", "") or f"in_port={in_port}",
        action=entry.get("action", "") or f"output={entry.get('out', '')}",
        bandwidth=resources.get("bandwidth", 0.0) if resources else 0.0,
        delay=resources.get("delay", 0.0) if resources else 0.0,
        hop_id=entry.get("hop_id") or None)


def _read_resources(node) -> ResourceVector:
    if not node.has_child("resources"):
        return ResourceVector()
    resources = node.container("resources")
    return ResourceVector(
        cpu=resources.get("cpu", 0.0) or 0.0,
        mem=resources.get("mem", 0.0) or 0.0,
        storage=resources.get("storage", 0.0) or 0.0,
        bandwidth=resources.get("bandwidth", 0.0) or 0.0,
        delay=resources.get("delay", 0.0) or 0.0)
