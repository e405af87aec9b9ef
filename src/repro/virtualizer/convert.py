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
from repro.yang.data import DataNode


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
            for twin in nffg.edges_of(link.src_node)):
        virt.add_link(link.id, src_node=link.src_node, src_port=link.src_port,
                      dst_node=link.dst_node, dst_port=link.dst_port,
                      delay=link.delay, bandwidth=link.bandwidth)


def patch_virtualizer(base: DataNode, nffg: NFFG, touched: Touched) -> DataNode:
    """``nffg_to_virtualizer(nffg).tree``, leaf for leaf, given the tree
    ``base`` of a graph that differed in the ``touched`` members only.
    Those are encoded anew — an NF on its current host (the attachment
    ports it left name the old one), an (infra, port) pair as the port
    and its flow entries under ``touched.hops`` or none, a link; every
    other node, port, NF instance, flow entry and link is ``base``'s own
    (:meth:`~repro.yang.data.DataNode.adopt_others`), so the tree and
    its diff cost the edit."""
    virt = Virtualizer(nffg.id, name=nffg.name)
    opened: dict[str, tuple[set[str], list[str]]] = {}  # ports, NFs by infra
    for node_id, port_id in touched.ports:
        opened.setdefault(node_id, (set(), []))[0].add(port_id)
    for nf_id in touched.nodes:
        if host := nffg.host_of(nf_id):
            opened.setdefault(host, (set(), []))[1].append(nf_id)
    virt.tree.adopt_others(base, "nodes/node", opened)
    for node_id, (port_ids, nf_ids) in opened.items():
        infra, old = nffg.infra(node_id), base.resolve(f"nodes/node[{node_id}]")
        node = virt.tree.container("nodes").list_node("node").add_instance(
            node_id)
        node.adopt(*(child for child in old.children() if child.schema.name
                     not in ("id", "ports", "NF_instances", "flowtable")))
        node.adopt_others(old, "ports/port", port_ids)
        node.adopt_others(old, "NF_instances/node", touched.nodes)
        gone = {f"{port_id}:{hop_id}" for port_id in port_ids
                for hop_id in touched.hops}
        for port_id in port_ids:  # and its entries without a hop id
            gone.update(takewhile(
                lambda key: old.find(f"flowtable/flowentry[{key}]"),
                (f"{port_id}#{place}" for place in count(1))))
        node.adopt_others(old, "flowtable/flowentry", gone)
        for port_id in port_ids & infra.ports.keys():
            _encode_port(virt, node, infra.ports[port_id], touched.hops)
        for nf_id in nf_ids:
            _encode_nf(virt, nffg, node_id, nffg.nf(nf_id))
    virt.tree.adopt_others(base, "links/link", touched.edges)
    for edge_id in filter(nffg.has_edge, touched.edges):
        _encode_link(virt, nffg, nffg.edge(edge_id))
    return virt.tree


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
