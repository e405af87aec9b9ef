"""NFFG <-> virtualizer conversion.

Orchestration logic works on NFFGs (graphs are convenient for
embedding); the wire format of the Unify interface is the virtualizer
tree.  These converters bridge the two without information loss for the
control-plane-relevant content: infra nodes + ports + capacities,
supported NF sets, placed NF instances, flow entries, links, and SAPs
(encoded as ``port-sap`` ports).
"""

from __future__ import annotations

from repro.nffg.graph import NFFG
from repro.nffg.model import (
    DomainType,
    Flowrule,
    InfraType,
    NodeNF,
    ResourceVector,
)
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
        for port in infra.ports.values():
            Virtualizer.add_port(node, port.id, name=port.name,
                                 sap=port.sap_tag)
        if infra.supported_types:
            virt.set_supported_nfs(infra.id, sorted(infra.supported_types))
        for nf in nffg.nfs_on(infra.id):
            instance = virt.add_nf_instance(
                infra.id, nf.id, type=nf.functional_type, name=nf.name,
                deployment_type=nf.deployment_type, status=nf.status,
                cpu=nf.resources.cpu, mem=nf.resources.mem,
                storage=nf.resources.storage)
            for nf_port in nf.ports.values():
                bound = nffg.infra_port_of_nf(nf.id, nf_port.id)
                Virtualizer.add_port(instance, nf_port.id,
                                     name=bound[1] if bound else nf_port.name)
        for entry_seq, (port, rule) in enumerate(infra.iter_flowrules(), 1):
            out_port = rule.action_fields().get("output", "")
            # keyed by what it is: removing a rule renames no other
            entry_id = (f"{port.id}:{rule.hop_id}" if rule.hop_id
                        else f"{infra.id}-fe{entry_seq}")
            virt.add_flowentry(
                infra.id, entry_id, port=port.id,
                out=out_port, match=rule.match, action=rule.action,
                bandwidth=rule.bandwidth, delay=rule.delay,
                hop_id=rule.hop_id or "")
    seen_pairs: set[frozenset[str]] = set()
    for link in nffg.links:
        if not (nffg.has_node(link.src_node) and nffg.has_node(link.dst_node)):
            continue
        src, dst = nffg.node(link.src_node), nffg.node(link.dst_node)
        if src.type.value != "INFRA" or dst.type.value != "INFRA":
            continue  # SAP attachments are encoded as port-sap ports
        pair = frozenset((f"{link.src_node}.{link.src_port}",
                          f"{link.dst_node}.{link.dst_port}"))
        if pair in seen_pairs:
            continue  # reverse direction of a bidirectional link
        seen_pairs.add(pair)
        virt.add_link(link.id, src_node=link.src_node, src_port=link.src_port,
                      dst_node=link.dst_node, dst_port=link.dst_port,
                      delay=link.delay, bandwidth=link.bandwidth)
    return virt


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
