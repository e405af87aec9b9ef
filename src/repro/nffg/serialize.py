"""NFFG (de)serialization to plain dicts / JSON.

The UNIFY prototype exchanges NFFGs as JSON on the Sl-Or interface; we
keep the same discipline so orchestration layers never share object
references across layer boundaries.
"""

from __future__ import annotations

import json
from typing import Any

from repro.nffg.graph import NFFG, EdgeObj, NFFGError, NodeObj
from repro.nffg.model import (
    EdgeLink,
    EdgeReq,
    EdgeSGHop,
    LinkType,
    NodeInfra,
    NodeNF,
    NodeSAP,
)

_NODE_LOADERS = {
    "NF": NodeNF.from_dict,
    "SAP": NodeSAP.from_dict,
    "INFRA": NodeInfra.from_dict,
}


def nffg_to_dict(nffg: NFFG) -> dict[str, Any]:
    """Serialize an NFFG to a JSON-compatible dict."""
    return {
        "id": nffg.id,
        "name": nffg.name,
        "version": nffg.version,
        "metadata": dict(nffg.metadata),
        "nodes": [node.to_dict() for node in nffg.nodes],
        "edges": [edge.to_dict() for edge in nffg.edges],
    }


def node_from_dict(data: dict[str, Any]) -> NodeObj:
    """Rebuild one node from its ``to_dict`` form."""
    loader = _NODE_LOADERS.get(data.get("type"))
    if loader is None:
        raise NFFGError(f"unknown node type {data.get('type')!r}")
    return loader(data)


def edge_from_dict(data: dict[str, Any]) -> EdgeObj:
    """Rebuild one edge from its ``to_dict`` form."""
    edge_type = data.get("type", "STATIC")
    if edge_type in (LinkType.STATIC.value, LinkType.DYNAMIC.value):
        return EdgeLink.from_dict(data)
    if edge_type == LinkType.SG.value:
        return EdgeSGHop.from_dict(data)
    if edge_type == LinkType.REQUIREMENT.value:
        return EdgeReq.from_dict(data)
    raise NFFGError(f"unknown edge type {edge_type!r}")


def nffg_from_dict(data: dict[str, Any]) -> NFFG:
    """Rebuild an NFFG from :func:`nffg_to_dict` output."""
    nffg = NFFG(id=data.get("id", "NFFG"), name=data.get("name", ""),
                version=data.get("version", "1.0"))
    nffg.metadata.update(data.get("metadata", {}))
    for node_data in data.get("nodes", []):
        nffg.add_node_copy(node_from_dict(node_data))
    for edge_data in data.get("edges", []):
        nffg.add_edge_copy(edge_from_dict(edge_data))
    return nffg


def nffg_to_json(nffg: NFFG, indent: int | None = None) -> str:
    return json.dumps(nffg_to_dict(nffg), indent=indent, sort_keys=True)


def nffg_from_json(payload: str) -> NFFG:
    return nffg_from_dict(json.loads(payload))
