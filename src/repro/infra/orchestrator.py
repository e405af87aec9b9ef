"""The north side of the Unify interface: a NETCONF server whose
datastores hold a virtualizer.

The server keeps the running virtualizer as a tree and commits edit
scripts into it in place; this base keeps what an orchestrator reads of
it — the NF instances and the flow entries — *decoded* next to it.  The
tables are built on a full replace and from then on folded forward,
commit by commit, from just the instances and entries an edit script
names — so validation and reconciliation look at what a deploy changed,
not at every service the domain already runs.  A replace goes through
the same reconcile hook with "everything" as the change.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional

from repro.infra.flowprog import PortKey
from repro.netconf.messages import UNIFY_CAPABILITY
from repro.netconf.server import NetconfServer
from repro.nffg.model import Flowrule, NodeNF
from repro.virtualizer.convert import flowrule_from_entry, nf_from_instance
from repro.yang.data import DataNode
from repro.yang.diff import DiffEntry

#: the lists of a virtual node an orchestrator reads
NFS, ENTRIES = "NF_instances/node", "flowtable/flowentry"

#: what an edit-script path names of them: the virtual node, list (kind)
#: and key of one NF instance or flow entry — or a node (all nodes, one
#: of a node's two lists) that came or went whole.  Paths to ports,
#: resources and capabilities do not match.
_NAMED = re.compile(
    r"/virtualizer/nodes/node\[([^\]]*)\]"
    rf"/({NFS}|{ENTRIES})\[([^\]]*)\]"
    r"|/virtualizer/nodes(?:/node\[([^\]]*)\](?:/(NF_instances|flowtable))?)?$")

#: (virtual node id, NF id), as the NF table is keyed
NFKey = tuple[str, str]


def _members(tree: Optional[DataNode], kind: str, node_id: Optional[str] = None,
             ) -> Iterable[tuple[str, DataNode]]:
    """``(virtual node id, instance)`` for all of one list in ``tree``
    (given ``node_id``: under that node)."""
    nodes = tree.find("nodes/node") if tree is not None else None
    for node in nodes.instances() if nodes is not None else ():
        holder = node.find(kind) if node_id in (None, node.key_value) else None
        for instance in holder.instances() if holder is not None else ():
            yield node.key_value, instance


def _resolve(tree: DataNode, named: Iterable[tuple[str, str, str]],
             ) -> dict[tuple[str, str, str], Optional[DataNode]]:
    """The instance in ``tree`` of each ``(virtual node, kind, key)``
    (None: there is none), in order, each list resolved once."""
    lists: dict[tuple[str, str], Optional[DataNode]] = {}
    found: dict[tuple[str, str, str], Optional[DataNode]] = {}
    for node_id, kind, key in named:
        if (node_id, kind) not in lists:
            lists[node_id, kind] = tree.find(f"nodes/node[{node_id}]/{kind}")
        holder = lists[node_id, kind]
        found[node_id, kind, key] = (holder.get_instance(key)
                                     if holder is not None else None)
    return found


class LocalOrchestrator(NetconfServer):
    """UNIFY-conform orchestrator of one domain: the emulated, cloud and
    UN domains' local ones and, in front of a whole orchestrator, the
    :class:`~repro.orchestration.unify.UnifyAgent`.

    Subclasses say what is deployable (:meth:`_check`) and how to
    realize the decoded tables (:meth:`_reconcile`,
    :meth:`_teardown_all`).
    """

    def __init__(self, name: str):
        super().__init__(name, capabilities=[UNIFY_CAPABILITY])
        #: the running config, decoded; only :meth:`_read` writes them.
        #: NF instances by (virtual node, NF id) ...
        self.nfs: dict[NFKey, NodeNF] = {}
        #: ... flow entries by (virtual node, entry key) as (ingress
        #: port, rule), and the same rules by ingress port and entry key
        self.entries: dict[tuple[str, str], tuple[str, Flowrule]] = {}
        self.rules: dict[PortKey, dict[str, Flowrule]] = {}
        self.deploy_count = 0
        self.on_apply(self._apply_change)

    # -- subclass hooks ------------------------------------------------------

    def _check(self, node_ids: Iterable[str], new: list[NodeNF],
               old: list[NodeNF]) -> list[str]:
        """Problems with the virtual nodes ``node_ids`` and with NFs
        ``new`` taking the place of the currently installed ``old`` ones
        (on a replace: every node, all NFs for all NFs)."""
        return []

    def _reconcile(self, nfs: Optional[set[NFKey]],
                   ports: Optional[set[PortKey]]) -> None:
        """Make the domain run the decoded tables.  ``nfs``: the NF
        instances that may have changed, under the node that held or
        holds them; ``ports``: infra ports whose flow rules may have;
        None means all of them."""
        raise NotImplementedError

    def _teardown_all(self) -> None:
        """The config is gone and the tables are empty."""
        self._reconcile(None, None)

    # -- NETCONF hooks -------------------------------------------------------

    def validate_config(self, config: Any) -> list[str]:
        """The store parsed ``config`` when it took it (leaf types,
        unknown members); what is left to check is mandatory leaves and
        what the domain can run."""
        if config is None:
            return []
        tree = (self.candidate if config is self.candidate.config
                else self.running).read_tree()
        if tree is None:
            return ["config is not a valid virtualizer"]
        nodes = tree.find("nodes/node")
        return tree.validate() + self._check(
            nodes.instance_keys() if nodes is not None else [],
            [nf_from_instance(instance)
             for _, instance in _members(tree, NFS)],
            list(self.nfs.values()))

    def validate_patch(self, entries: list[DiffEntry]) -> list[str]:
        """The instances the patch created (as it created them), and
        the NF instances and nodes it names."""
        tree = self.candidate.tree
        named, node_ids = self._named(entries, tree)
        nfs = _resolve(tree, [name for name in named if name[1] == NFS])
        return [problem for node in self._created
                for problem in node.validate()] + self._check(
            [node_id for node_id in node_ids
             if tree.find(f"nodes/node[{node_id}]") is not None],
            [nf_from_instance(instance) for instance in nfs.values()
             if instance is not None],
            [self.nfs[node_id, key] for node_id, _, key in nfs
             if (node_id, key) in self.nfs])

    def _named(self, entries: list[DiffEntry], tree: DataNode,
               ) -> tuple[dict[tuple[str, str, str], None], list[str]]:
        """What ``entries`` name of what is read, as ``(virtual node,
        kind, key)`` in order: NF instances and flow entries one by one
        and, of a node or list that came or went whole, all that the
        tables hold and ``tree`` has; and the nodes that did so."""
        named: dict[tuple[str, str, str], None] = {}
        node_ids: list[str] = []
        for match in filter(None, (_NAMED.match(entry.path)
                                   for entry in entries)):
            if match[2]:
                named[match.group(1, 2, 3)] = None
                continue
            whole, holder = match.group(4, 5)
            if holder is None:
                nodes = tree.find("nodes/node")
                node_ids += ([whole] if whole else
                             nodes.instance_keys() if nodes is not None else [])
            for kind, table in ((NFS, self.nfs), (ENTRIES, self.entries)):
                if holder is None or kind.startswith(holder):
                    keys = (*table, *((node_id, instance.key_value)
                                      for node_id, instance
                                      in _members(tree, kind, whole)))
                    named.update(((node_id, kind, key), None)
                                 for node_id, key in keys
                                 if whole in (None, node_id))
        return named, node_ids

    # -- reconciliation ------------------------------------------------------

    def _apply_change(self, change: Any) -> None:
        scope = self._fold(change)
        if change is None:
            self._teardown_all()
        else:
            self.deploy_count += 1
            self._reconcile(*scope)

    def _read(self, node_id: str, kind: str, key: str,
              instance: Optional[DataNode]) -> Iterable[PortKey]:
        """Decode one NF instance or flow entry (None: it is gone) into
        the tables; returns the infra ports whose rules that moved."""
        if kind == NFS:
            if instance is None:
                self.nfs.pop((node_id, key), None)
            else:
                self.nfs[node_id, key] = nf_from_instance(instance)
            return ()
        new = None if instance is None else flowrule_from_entry(instance)
        old = self.entries.get((node_id, key))
        if old is not None:
            held = self.rules[node_id, old[0]]
            del held[key]
            if not held:
                del self.rules[node_id, old[0]]
        if new is None:
            self.entries.pop((node_id, key), None)
        else:
            self.entries[node_id, key] = new
            self.rules.setdefault((node_id, new[0]), {})[key] = new[1]
        return [(node_id, port_id) for port_id, _ in filter(None, (old, new))]

    def _fold(self, change: Any) -> tuple[Optional[set[NFKey]],
                                          Optional[set[PortKey]]]:
        """Bring the tables up to the running tree by re-reading what
        the committed ``change`` names: the NF instances and flow
        entries of an edit script (:meth:`_named`); all there are after
        a replace.  Returns the change in :meth:`_reconcile`'s terms."""
        tree = self.running.tree
        if isinstance(change, list):
            nfs: set[NFKey] = set()
            ports: set[PortKey] = set()
            named = _resolve(tree, self._named(change, tree)[0])
            for (node_id, kind, key), instance in named.items():
                ports.update(self._read(node_id, kind, key, instance))
                if kind == NFS:
                    nfs.add((node_id, key))
            return nfs, ports
        self.nfs.clear()
        self.entries.clear()
        self.rules.clear()
        for kind in (NFS, ENTRIES):
            for node_id, instance in _members(tree, kind):
                self._read(node_id, kind, instance.key_value, instance)
        return None, None

    def _wanted_rules(self, ports: Optional[set[PortKey]],
                      ) -> dict[PortKey, dict[str, Flowrule]]:
        """What :meth:`FlowProgrammer.sync` is to make of ``ports``
        (None: of every port): their rules by entry key, none for a port
        that has none left."""
        if ports is None:
            return self.rules
        return {port: self.rules.get(port, {}) for port in sorted(ports)}

    def _placements(self, nfs: Optional[set[NFKey]], deployed: Iterable[str],
                    ) -> tuple[list[str], dict[str, tuple[str, NodeNF]]]:
        """For NF reconciliation: the NF ids in scope (``nfs``, or all
        installed and ``deployed`` ones) in a fixed order, and ``(host,
        NF)`` for those of them the config places."""
        if nfs is None:
            nfs = {*self.nfs, *((None, nf_id) for nf_id in deployed)}
        placed = {nf_id: (host, self.nfs[host, nf_id])
                  for host, nf_id in sorted(nfs, key=lambda key: key[1])
                  if (host, nf_id) in self.nfs}
        return sorted({nf_id for _, nf_id in nfs}), placed
