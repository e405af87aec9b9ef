"""NFFG — the joint compute + network resource abstraction.

The UNIFY architecture describes both *service requests* and *resource
topologies* with one graph model, the Network Function Forwarding Graph:

- **NF** nodes: network functions with compute/memory/storage demands;
- **SAP** nodes: service access points (where user traffic enters);
- **Infra** nodes: infrastructure elements — most importantly the
  **BiS-BiS** ("Big Switch with Big Software"): a forwarding element
  fused with compute/storage able to host NFs and steer traffic among
  its ports via flow rules;
- **static links** between infra nodes (the substrate topology),
  **SG hops** between NFs/SAPs (the requested chain), **requirement
  edges** carrying end-to-end bandwidth/delay constraints, and
  **dynamic links** binding a placed NF's ports to its host BiS-BiS.

SFC programming per the paper is exactly (i) assigning NF nodes to
BiS-BiS nodes and (ii) editing flow rules within BiS-BiS nodes; both are
expressible as NFFG mutations.
"""

from repro.nffg.model import (
    DomainType,
    EdgeLink,
    EdgeReq,
    EdgeSGHop,
    Flowrule,
    InfraType,
    LinkType,
    NodeInfra,
    NodeNF,
    NodeSAP,
    NodeType,
    Port,
    ResourceVector,
)
from repro.nffg.graph import NFFG, NFFGError
from repro.nffg.builder import NFFGBuilder
from repro.nffg.ops import (
    available_resources,
    merge_nffgs,
    remaining_nffg,
)
from repro.nffg.serialize import nffg_from_dict, nffg_from_json, nffg_to_dict, nffg_to_json

__all__ = [
    "NFFG",
    "NFFGError",
    "NFFGBuilder",
    "DomainType",
    "EdgeLink",
    "EdgeReq",
    "EdgeSGHop",
    "Flowrule",
    "InfraType",
    "LinkType",
    "NodeInfra",
    "NodeNF",
    "NodeSAP",
    "NodeType",
    "Port",
    "ResourceVector",
    "available_resources",
    "merge_nffgs",
    "remaining_nffg",
    "nffg_from_dict",
    "nffg_from_json",
    "nffg_to_dict",
    "nffg_to_json",
]
