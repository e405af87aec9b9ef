"""Element classes of the NFFG model: resources, ports, nodes, edges.

The model follows the UNIFY NFFG used by ESCAPEv2: three node types
(NF, SAP, Infra/BiS-BiS), four edge types (static link, dynamic link,
SG hop, requirement), ports on every node and flow rules attached to
infra ports.

Every element is a slotted record: its fields live in fixed slots and
it carries no instance ``__dict__``, so the many copies of a substrate
the stack holds (domain views, the DoV, install slices) cost little
each; edges also take weak references.  :func:`record` reads an
element's field values — what two elements are compared by.  Every
element exposes ``clone()``: a structured deep copy that writes the
known fields one by one instead of going through ``copy.deepcopy``'s
generic memo machinery — the basis of the :meth:`NFFG.copy` fast path.
"""

from __future__ import annotations

import copy as _copy
import enum
import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional


def _clone_payload(data: dict) -> dict:
    """Copy a metadata dict.

    Values are almost always scalars or small lists; ``deepcopy`` is
    only paid when the dict is non-empty.
    """
    return _copy.deepcopy(data) if data else {}


class NodeType(str, enum.Enum):
    NF = "NF"
    SAP = "SAP"
    INFRA = "INFRA"


class InfraType(str, enum.Enum):
    """Capability class of an infrastructure node."""

    BISBIS = "BiSBiS"          #: joint forwarding + compute element
    SDN_SWITCH = "SDN-SWITCH"  #: forwarding only (no NF hosting)
    EE = "EE"                  #: execution environment only (no steering)
    STATIC_EE = "STATIC-EE"    #: legacy appliance — fixed NFs


class DomainType(str, enum.Enum):
    """Technology domain an infra node belongs to (Fig. 1 of the paper)."""

    INTERNAL = "INTERNAL"          #: Mininet-like emulated domain
    OPENSTACK = "OPENSTACK"        #: legacy DC: OpenStack + OpenDaylight
    SDN = "SDN"                    #: legacy OpenFlow network + POX
    UN = "UNIVERSAL-NODE"          #: Universal Node
    UNIFY = "UNIFY"                #: a child UNIFY domain (recursion)
    VIRTUAL = "VIRTUAL"            #: abstract node in a virtual view


class LinkType(str, enum.Enum):
    STATIC = "STATIC"        #: infra-infra substrate link
    DYNAMIC = "DYNAMIC"      #: NF port <-> hosting BiS-BiS port
    SG = "SG"                #: service-graph hop (NF/SAP level)
    REQUIREMENT = "REQ"      #: end-to-end requirement edge


@functools.cache
def _fields_getter(cls: type, skip: str) -> Callable[[object], tuple]:
    return operator.attrgetter(*(
        name for klass in reversed(cls.__mro__)
        for name in getattr(klass, "__slots__", ())
        if name not in ("__weakref__", skip)))


def record(element: object, skip: str = "") -> tuple:
    """The values of a model element's fields but ``skip``: two elements
    of one type hold the same record when these tuples are equal."""
    return _fields_getter(type(element), skip)(element)


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Joint compute + network resource vector.

    ``cpu`` is in vCPU cores, ``mem``/``storage`` in MB, ``bandwidth``
    in Mbit/s (node internal switching capacity for infras, demand for
    SG hops), ``delay`` in ms (node traversal / link propagation).
    """

    cpu: float = 0.0
    mem: float = 0.0
    storage: float = 0.0
    bandwidth: float = 0.0
    delay: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu=self.cpu + other.cpu,
            mem=self.mem + other.mem,
            storage=self.storage + other.storage,
            bandwidth=self.bandwidth + other.bandwidth,
            delay=self.delay + other.delay,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu=self.cpu - other.cpu,
            mem=self.mem - other.mem,
            storage=self.storage - other.storage,
            bandwidth=self.bandwidth - other.bandwidth,
            delay=self.delay - other.delay,
        )

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            cpu=self.cpu * factor,
            mem=self.mem * factor,
            storage=self.storage * factor,
            bandwidth=self.bandwidth * factor,
            delay=self.delay * factor,
        )

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True if this demand fits into ``capacity`` (delay ignored —
        delay is a path constraint, not a consumable)."""
        eps = 1e-9
        return (self.cpu <= capacity.cpu + eps
                and self.mem <= capacity.mem + eps
                and self.storage <= capacity.storage + eps
                and self.bandwidth <= capacity.bandwidth + eps)

    def non_negative(self) -> bool:
        eps = 1e-9
        return (self.cpu >= -eps and self.mem >= -eps
                and self.storage >= -eps and self.bandwidth >= -eps)

    def to_dict(self) -> dict[str, float]:
        return {
            "cpu": float(self.cpu),
            "mem": float(self.mem),
            "storage": float(self.storage),
            "bandwidth": float(self.bandwidth),
            "delay": float(self.delay),
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "ResourceVector":
        return cls(**{key: float(value) for key, value in data.items()})


@dataclass(slots=True)
class Port:
    """A port on an NFFG node.

    ``sap_tag`` marks inter-domain SAP ports: two infra ports in
    different domains carrying the same tag represent the same physical
    hand-off point, which is how the merged global view is stitched.
    """

    id: str
    node_id: str = ""
    name: str = ""
    sap_tag: Optional[str] = None
    flowrules: list["Flowrule"] = field(default_factory=list)

    def add_flowrule(self, match: str, action: str, bandwidth: float = 0.0,
                     hop_id: Optional[str] = None, delay: float = 0.0) -> "Flowrule":
        rule = Flowrule(match=match, action=action, bandwidth=bandwidth,
                        hop_id=hop_id, delay=delay)
        self.flowrules.append(rule)
        return rule

    def clear_flowrules(self) -> None:
        self.flowrules.clear()

    def clone(self) -> "Port":
        # Flowrule is immutable: share the instances, copy the list
        return Port(self.id, self.node_id, self.name, self.sap_tag,
                    list(self.flowrules))

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"id": self.id}
        if self.name:
            data["name"] = self.name
        if self.sap_tag is not None:
            data["sap_tag"] = self.sap_tag
        if self.flowrules:
            data["flowrules"] = [rule.to_dict() for rule in self.flowrules]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any], node_id: str = "") -> "Port":
        port = cls(id=str(data["id"]), node_id=node_id,
                   name=data.get("name", ""), sap_tag=data.get("sap_tag"))
        for rule_data in data.get("flowrules", []):
            port.flowrules.append(Flowrule.from_dict(rule_data))
        return port


@dataclass(frozen=True, slots=True)
class Flowrule:
    """A flow rule inside a BiS-BiS: steering between two of its ports.

    ``match`` and ``action`` use a tiny textual syntax mirroring
    ESCAPE's: ``in_port=<p>;flowclass=<spec>`` matches, and
    ``output=<p>;tag=<t>`` / ``untag`` actions.  ``hop_id`` back-links
    the SG hop this rule realizes so rules can be garbage-collected when
    a chain is torn down.

    Frozen: rule changes are modeled by replacing the instance in its
    port's ``flowrules`` list, which lets clones share rule objects.
    """

    match: str
    action: str
    bandwidth: float = 0.0
    delay: float = 0.0
    hop_id: Optional[str] = None

    def clone(self) -> "Flowrule":
        return self  # immutable: sharing is safe

    def match_fields(self) -> dict[str, str]:
        return _parse_kv(self.match)

    def action_fields(self) -> dict[str, str]:
        return _parse_kv(self.action)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"match": self.match, "action": self.action}
        if self.bandwidth:
            data["bandwidth"] = self.bandwidth
        if self.delay:
            data["delay"] = self.delay
        if self.hop_id is not None:
            data["hop_id"] = self.hop_id
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Flowrule":
        return cls(match=data["match"], action=data["action"],
                   bandwidth=float(data.get("bandwidth", 0.0)),
                   delay=float(data.get("delay", 0.0)),
                   hop_id=data.get("hop_id"))


def _parse_kv(spec: str) -> dict[str, str]:
    """Parse ``key=value;key2=value2`` (bare keys map to empty string)."""
    fields: dict[str, str] = {}
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, _, value = token.partition("=")
            fields[key.strip()] = value.strip()
        else:
            fields[token] = ""
    return fields


class _NodeBase:
    """Shared behaviour for the three node classes."""

    __slots__ = ("id", "name", "ports", "metadata")
    type: NodeType

    def __init__(self, id: str, name: str = ""):
        self.id = id
        self.name = name or id
        self.ports: dict[str, Port] = {}
        self.metadata: dict[str, Any] = {}

    def add_port(self, port_id: Optional[str] = None, **kwargs: Any) -> Port:
        if port_id is None:
            port_id = str(len(self.ports) + 1)
        port_id = str(port_id)
        if port_id in self.ports:
            raise ValueError(f"duplicate port {port_id!r} on node {self.id!r}")
        port = Port(id=port_id, node_id=self.id, **kwargs)
        self.ports[port_id] = port
        return port

    def port(self, port_id: str) -> Port:
        return self.ports[str(port_id)]

    def has_port(self, port_id: str) -> bool:
        return str(port_id) in self.ports

    def iter_flowrules(self) -> Iterable[tuple[Port, Flowrule]]:
        for port in self.ports.values():
            for rule in port.flowrules:
                yield port, rule

    def _base_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"id": self.id, "type": self.type.value}
        if self.name != self.id:
            data["name"] = self.name
        if self.ports:
            data["ports"] = [port.to_dict() for port in self.ports.values()]
        if self.metadata:
            data["metadata"] = dict(self.metadata)
        return data

    def _load_base(self, data: dict[str, Any]) -> None:
        for port_data in data.get("ports", []):
            port = Port.from_dict(port_data, node_id=self.id)
            self.ports[port.id] = port
        self.metadata.update(data.get("metadata", {}))

    def _clone_base(self):
        """A new node of this one's class with its base fields copied;
        the subclass's ``clone`` copies the rest."""
        node = object.__new__(type(self))
        node.id = self.id
        node.name = self.name
        node.ports = {port_id: port.clone()
                      for port_id, port in self.ports.items()}
        node.metadata = _clone_payload(self.metadata)
        return node

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id}>"


class NodeNF(_NodeBase):
    """A network function with a resource demand.

    ``functional_type`` identifies *what* the NF does (e.g. "firewall");
    ``deployment_type`` identifies *how* it runs (e.g. "click", "docker",
    "vm") — domains advertise which deployment types they support.
    """

    __slots__ = ("functional_type", "deployment_type", "resources",
                 "status")
    type = NodeType.NF

    def __init__(self, id: str, functional_type: str, name: str = "",
                 deployment_type: str = "", resources: ResourceVector | None = None):
        super().__init__(id, name)
        self.functional_type = functional_type
        self.deployment_type = deployment_type
        self.resources = resources or ResourceVector(cpu=1.0, mem=128.0, storage=1.0)
        #: status managed by the orchestration layers
        self.status: str = "initialized"

    def clone(self) -> "NodeNF":
        node = self._clone_base()
        node.functional_type = self.functional_type
        node.deployment_type = self.deployment_type
        node.resources = self.resources  # immutable: shared
        node.status = self.status
        return node

    def to_dict(self) -> dict[str, Any]:
        data = self._base_dict()
        data["functional_type"] = self.functional_type
        if self.deployment_type:
            data["deployment_type"] = self.deployment_type
        data["resources"] = self.resources.to_dict()
        data["status"] = self.status
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NodeNF":
        node = cls(id=str(data["id"]), functional_type=data["functional_type"],
                   name=data.get("name", ""),
                   deployment_type=data.get("deployment_type", ""),
                   resources=ResourceVector.from_dict(data.get("resources", {})))
        node.status = data.get("status", "initialized")
        node._load_base(data)
        return node


class NodeSAP(_NodeBase):
    """Service access point: where user traffic enters/leaves the chain."""

    __slots__ = ("binding",)
    type = NodeType.SAP

    def __init__(self, id: str, name: str = "", binding: Optional[str] = None):
        super().__init__(id, name)
        #: optional binding to a physical port ("domain:node:port")
        self.binding = binding

    def clone(self) -> "NodeSAP":
        node = self._clone_base()
        node.binding = self.binding
        return node

    def to_dict(self) -> dict[str, Any]:
        data = self._base_dict()
        if self.binding:
            data["binding"] = self.binding
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NodeSAP":
        node = cls(id=str(data["id"]), name=data.get("name", ""),
                   binding=data.get("binding"))
        node._load_base(data)
        return node


class NodeInfra(_NodeBase):
    """Infrastructure node — a BiS-BiS in the general case.

    Carries a capacity :class:`ResourceVector`, the set of NF
    ``supported_types`` it can execute, its technology ``domain`` and the
    internal forwarding ``delay`` / ``bandwidth`` of the big switch.
    """

    __slots__ = ("infra_type", "domain", "resources", "supported_types",
                 "cost_per_cpu")
    type = NodeType.INFRA

    def __init__(self, id: str, name: str = "",
                 infra_type: InfraType = InfraType.BISBIS,
                 domain: DomainType = DomainType.INTERNAL,
                 resources: ResourceVector | None = None,
                 supported_types: Iterable[str] = (),
                 cost_per_cpu: float = 1.0):
        super().__init__(id, name)
        self.infra_type = infra_type
        self.domain = domain
        self.resources = resources or ResourceVector()
        #: immutable and shared by copies: a writer rebinds it
        self.supported_types: frozenset[str] = frozenset(supported_types)
        #: relative monetary/energy cost used by cost-aware embedders
        self.cost_per_cpu = cost_per_cpu

    def clone(self) -> "NodeInfra":
        node = self._clone_base()
        node.infra_type = self.infra_type
        node.domain = self.domain
        node.resources = self.resources  # immutable: shared
        node.supported_types = self.supported_types  # immutable: shared
        node.cost_per_cpu = self.cost_per_cpu
        return node

    def supports(self, functional_type: str) -> bool:
        if self.infra_type == InfraType.SDN_SWITCH:
            return False
        return (not self.supported_types) or functional_type in self.supported_types

    def to_dict(self) -> dict[str, Any]:
        data = self._base_dict()
        data["infra_type"] = self.infra_type.value
        data["domain"] = self.domain.value
        data["resources"] = self.resources.to_dict()
        if self.supported_types:
            data["supported_types"] = sorted(self.supported_types)
        if self.cost_per_cpu != 1.0:
            data["cost_per_cpu"] = self.cost_per_cpu
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NodeInfra":
        node = cls(id=str(data["id"]), name=data.get("name", ""),
                   infra_type=InfraType(data.get("infra_type", "BiSBiS")),
                   domain=DomainType(data.get("domain", "INTERNAL")),
                   resources=ResourceVector.from_dict(data.get("resources", {})),
                   supported_types=data.get("supported_types", ()),
                   cost_per_cpu=float(data.get("cost_per_cpu", 1.0)))
        node._load_base(data)
        return node


@dataclass(slots=True, weakref_slot=True)
class EdgeLink:
    """Static (substrate) or dynamic (NF binding) link between two ports."""

    id: str
    src_node: str
    src_port: str
    dst_node: str
    dst_port: str
    link_type: LinkType = LinkType.STATIC
    delay: float = 0.0
    bandwidth: float = 0.0
    #: bandwidth currently reserved by mapped SG hops
    reserved: float = 0.0

    @property
    def available_bandwidth(self) -> float:
        return self.bandwidth - self.reserved

    def clone(self) -> "EdgeLink":
        return EdgeLink(self.id, self.src_node, self.src_port, self.dst_node,
                        self.dst_port, self.link_type, self.delay,
                        self.bandwidth, self.reserved)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "type": self.link_type.value,
            "src_node": self.src_node, "src_port": self.src_port,
            "dst_node": self.dst_node, "dst_port": self.dst_port,
            "delay": self.delay, "bandwidth": self.bandwidth,
            "reserved": self.reserved,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EdgeLink":
        return cls(id=str(data["id"]),
                   src_node=str(data["src_node"]), src_port=str(data["src_port"]),
                   dst_node=str(data["dst_node"]), dst_port=str(data["dst_port"]),
                   link_type=LinkType(data.get("type", "STATIC")),
                   delay=float(data.get("delay", 0.0)),
                   bandwidth=float(data.get("bandwidth", 0.0)),
                   reserved=float(data.get("reserved", 0.0)))


@dataclass(slots=True, weakref_slot=True)
class EdgeSGHop:
    """A hop of the requested service chain (NF/SAP graph level).

    ``flowclass`` restricts which traffic takes the hop (e.g.
    ``dl_type=0x0800,tp_dst=80``); empty means all traffic from the
    source port.
    """

    id: str
    src_node: str
    src_port: str
    dst_node: str
    dst_port: str
    flowclass: str = ""
    bandwidth: float = 0.0
    delay: float = 0.0

    def clone(self) -> "EdgeSGHop":
        return EdgeSGHop(self.id, self.src_node, self.src_port, self.dst_node,
                         self.dst_port, self.flowclass, self.bandwidth,
                         self.delay)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "type": LinkType.SG.value,
            "src_node": self.src_node, "src_port": self.src_port,
            "dst_node": self.dst_node, "dst_port": self.dst_port,
            "flowclass": self.flowclass,
            "bandwidth": self.bandwidth, "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EdgeSGHop":
        return cls(id=str(data["id"]),
                   src_node=str(data["src_node"]), src_port=str(data["src_port"]),
                   dst_node=str(data["dst_node"]), dst_port=str(data["dst_port"]),
                   flowclass=data.get("flowclass", ""),
                   bandwidth=float(data.get("bandwidth", 0.0)),
                   delay=float(data.get("delay", 0.0)))


@dataclass(slots=True, weakref_slot=True)
class EdgeReq:
    """End-to-end requirement over a sequence of SG hops.

    The paper's service layer lets users attach bandwidth/delay
    constraints "between arbitrary elements in the service graph"; this
    edge carries such a constraint along an ordered hop list.
    """

    id: str
    src_node: str
    src_port: str
    dst_node: str
    dst_port: str
    sg_path: list[str] = field(default_factory=list)
    bandwidth: float = 0.0
    max_delay: float = float("inf")

    def clone(self) -> "EdgeReq":
        return EdgeReq(self.id, self.src_node, self.src_port, self.dst_node,
                       self.dst_port, list(self.sg_path), self.bandwidth,
                       self.max_delay)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "type": LinkType.REQUIREMENT.value,
            "src_node": self.src_node, "src_port": self.src_port,
            "dst_node": self.dst_node, "dst_port": self.dst_port,
            "sg_path": list(self.sg_path),
            "bandwidth": self.bandwidth,
            "max_delay": self.max_delay if self.max_delay != float("inf") else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EdgeReq":
        max_delay = data.get("max_delay")
        return cls(id=str(data["id"]),
                   src_node=str(data["src_node"]), src_port=str(data["src_port"]),
                   dst_node=str(data["dst_node"]), dst_port=str(data["dst_port"]),
                   sg_path=[str(hop) for hop in data.get("sg_path", [])],
                   bandwidth=float(data.get("bandwidth", 0.0)),
                   max_delay=float("inf") if max_delay is None else float(max_delay))
