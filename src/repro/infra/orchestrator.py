"""What the domain-local orchestrators share: a NETCONF server whose
datastores hold the domain's install NFFG.

The server keeps the install config as a tree and commits edit scripts
into it in place; this base keeps the *parsed* form next to it.  One
:class:`~repro.nffg.graph.NFFG` (``install``) is built on a full replace
and from then on folded forward, commit by commit, from just the nodes,
infra ports and edges an edit script names — so validation and
reconciliation look at what a deploy changed, not at every service the
domain already runs.  A replace goes through the same reconcile hook
with "everything" as the change.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.infra.flowprog import PortKey
from repro.netconf.messages import UNIFY_CAPABILITY
from repro.netconf.server import NetconfServer
from repro.nffg.graph import NFFG, EdgeObj, NodeObj
from repro.nffg.model import NodeInfra, NodeNF, Port
from repro.nffg.serialize import edge_from_dict, nffg_from_dict, node_from_dict
from repro.yang.config import (
    edge_config,
    node_config,
    port_config,
    touched_elements,
)
from repro.yang.data import DataNode
from repro.yang.diff import DiffEntry


def _read_change(tree: DataNode, entries: list[DiffEntry]) -> tuple[
        dict[str, Optional[NodeObj]], dict[PortKey, Optional[Port]],
        dict[str, Optional[EdgeObj]]]:
    """The nodes, ports and edges (by id) that ``entries`` name, parsed
    from ``tree``; None for one that is not there.  Raises on anything
    that does not parse, and on an edge that joins a missing port."""
    nodes, ports, edges = touched_elements(entry.path for entry in entries)
    read_nodes: dict[str, Optional[NodeObj]] = {}
    for key in sorted(nodes):
        config = node_config(tree, key)
        read_nodes[key] = None if config is None else node_from_dict(config)
    read_ports: dict[PortKey, Optional[Port]] = {}
    for node_id, port_id in sorted(ports):
        config = port_config(tree, node_id, port_id)
        read_ports[node_id, port_id] = (
            None if config is None else Port.from_dict(config, node_id))
    read_edges: dict[str, Optional[EdgeObj]] = {}
    for key in sorted(edges):
        config = edge_config(tree, key)
        edge = None if config is None else edge_from_dict(config)
        read_edges[key.partition("|")[2]] = edge
        for node_id, port_id in (() if edge is None else (
                (edge.src_node, edge.src_port),
                (edge.dst_node, edge.dst_port))):
            if tree.find(f"node[{node_id}]/port[{port_id}]") is None:
                raise ValueError(
                    f"edge {edge.id}: port {node_id}.{port_id} missing")
    return read_nodes, read_ports, read_edges


class LocalOrchestrator(NetconfServer):
    """NETCONF-managed orchestrator of one domain's install NFFG.

    Subclasses say what is deployable (:meth:`_check_nodes`,
    :meth:`_check_install`) and how to realize it (:meth:`_reconcile`,
    :meth:`_teardown_all`).
    """

    def __init__(self, name: str):
        super().__init__(name, capabilities=[UNIFY_CAPABILITY])
        #: the running install config, parsed; only commits write it
        self.install = NFFG(id=f"{name}-empty")
        self.deploy_count = 0
        self.on_apply(self._apply_change)

    # -- subclass hooks ------------------------------------------------------

    def _check_install(self, install: NFFG) -> list[str]:
        """Whole-graph problems of a full config ([] = none)."""
        return []

    def _check_nodes(self, new: list[NodeObj],
                     old: list[NodeObj]) -> list[str]:
        """Problems with nodes ``new`` taking the place of the currently
        installed ``old`` ones (on a replace: all nodes for all nodes)."""
        return []

    def _reconcile(self, nodes: Optional[set[str]],
                   ports: Optional[list[PortKey]]) -> None:
        """Make the domain run :attr:`install`.  ``nodes``: ids whose
        node or placement may have changed; ``ports``: infra ports whose
        flow rules may have; None means all of them."""
        raise NotImplementedError

    def _teardown_all(self) -> None:
        raise NotImplementedError

    # -- NETCONF hooks -------------------------------------------------------

    def validate_config(self, config: Any) -> list[str]:
        if config is None:
            return []
        try:
            install = nffg_from_dict(config["nffg"])
        except Exception as exc:  # noqa: BLE001 - report, don't crash session
            return [f"config is not a valid NFFG: {exc}"]
        return (self._check_install(install)
                + self._check_nodes(install.nodes, self.install.nodes))

    def validate_patch(self, entries: list[DiffEntry]) -> list[str]:
        try:
            nodes, _, _ = _read_change(self.candidate.tree, entries)
        except Exception as exc:  # noqa: BLE001 - report, don't crash session
            return [f"patch is not a valid NFFG edit: {exc}"]
        return self._check_nodes(
            [node for node in nodes.values() if node is not None],
            [self.install.node(node_id) for node_id in nodes
             if self.install.has_node(node_id)])

    # -- reconciliation ------------------------------------------------------

    def _apply_change(self, change: Any) -> None:
        if change is None:
            self.install = NFFG(id=f"{self.name}-empty")
            self._teardown_all()
            return
        self.deploy_count += 1
        if isinstance(change, list):
            nodes, ports = self._fold(change)
        else:
            self.install = nffg_from_dict(change["nffg"])
            nodes = ports = None
        self._reconcile(nodes, ports)

    def _fold(self, entries: list[DiffEntry],
              ) -> tuple[set[str], Optional[list[PortKey]]]:
        """Bring :attr:`install` up to the running tree by re-reading
        what the committed ``entries`` name; returns the change in
        :meth:`_reconcile`'s terms."""
        tree, install = self.running.tree, self.install
        nodes, ports, edges = _read_change(tree, entries)
        moved = set(nodes)
        for edge in [install.edge(edge_id) for edge_id in edges
                     if install.has_edge(edge_id)]:
            moved.update((edge.src_node, edge.dst_node))
            install.remove_edge(edge.id)
        all_ports = False
        for node_id, node in nodes.items():
            old = install.node(node_id) if install.has_node(node_id) else None
            # an infra that came, went or changed: its ports are not
            # listed one by one, so every port's rules get re-checked
            all_ports |= isinstance(node or old, NodeInfra)
            if node is not None:
                install.put_node(node)
            elif old is not None:
                install.remove_node(node_id)
        for (node_id, port_id), port in ports.items():
            if port is not None:
                install.node(node_id).ports[port_id] = port
            else:
                install.node(node_id).ports.pop(port_id, None)
        for edge in edges.values():
            if edge is not None:
                install.add_edge_copy(edge)
                moved.update((edge.src_node, edge.dst_node))
        install.id = tree.get("id", install.id)
        return moved, None if all_ports else list(ports)

    def _placements(self, nodes: Optional[set[str]], deployed: Iterable[str],
                    ) -> tuple[list[str], dict[str, tuple[str, NodeNF]]]:
        """For NF reconciliation: the NF ids in scope (``nodes``, or all
        installed and ``deployed`` ones) in a fixed order, and ``(host,
        NF)`` for those of them the install places."""
        install = self.install
        if nodes is None:
            nodes = {nf.id for nf in install.nfs} | set(deployed)
        scope = sorted(nodes)
        placed: dict[str, tuple[str, NodeNF]] = {}
        for node_id in scope:
            host = install.host_of(node_id)
            if host is not None and isinstance(install.node(node_id), NodeNF):
                placed[node_id] = (host, install.nf(node_id))
        return scope, placed
