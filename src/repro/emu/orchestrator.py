"""Domain-local orchestrator of the emulated domain.

A NETCONF server whose configuration datastore holds the domain's
virtualizer, one BiS-BiS per switch.  Committing a change reconciles the
dataplane: Click NFs are started/stopped on their BiS-BiS switches and
the steering flow rules that changed are programmed through an internal
OpenFlow controller — the "NETCONF and OpenFlow control channels" of the
prototype.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.click.catalog import NF_CATALOG, make_nf_process
from repro.emu.domain import EmulatedDomain
from repro.infra.flowprog import FlowProgrammer, PortKey, port_flows
from repro.infra.orchestrator import LocalOrchestrator, NFKey
from repro.nffg.graph import NFFG
from repro.nffg.model import NodeNF
from repro.nffg.serialize import nffg_to_dict
from repro.openflow.controller import ControllerEndpoint


class EmuDomainOrchestrator(LocalOrchestrator):
    """NETCONF-managed local orchestrator for :class:`EmulatedDomain`."""

    def __init__(self, domain: EmulatedDomain):
        super().__init__(f"{domain.name}-orchestrator")
        self.domain = domain
        self.controller = ControllerEndpoint(
            f"{domain.name}-ctl", simulator=domain.network.simulator)
        for switch in domain.switches.values():
            self.controller.connect_switch(switch)
        #: the steering entries on the switches; only _reconcile and
        #: _teardown_all write it
        self.flows = FlowProgrammer(self.controller)
        #: nf_id -> (switch id, functional type)
        self._deployed_nfs: dict[str, tuple[str, str]] = {}
        self.register_rpc("get-topology",
                          lambda params: nffg_to_dict(self.domain.domain_view()))
        self.register_rpc("get-nf-status", self._rpc_nf_status)

    # -- NETCONF integration -------------------------------------------------

    def _check(self, node_ids: Iterable[str], new: list[NodeNF],
               old: list[NodeNF]) -> list[str]:
        return ([f"unknown switch {node_id!r}" for node_id in node_ids
                 if node_id not in self.domain.switches]
                + [f"NF type {nf.functional_type!r} not deployable here"
                   for nf in new if nf.functional_type not in NF_CATALOG])

    def state_data(self) -> dict[str, Any]:
        return {
            "deployed_nfs": {nf_id: host
                             for nf_id, (host, _) in self._deployed_nfs.items()},
            "flow_mods_sent": self.controller.flow_mods_sent,
            "deploys": self.deploy_count,
        }

    def _rpc_nf_status(self, params: dict) -> dict[str, Any]:
        nf_id = params.get("id", "")
        record = self._deployed_nfs.get(nf_id)
        if record is None:
            return {"id": nf_id, "status": "absent"}
        switch_id, _ = record
        process = self.domain.switches[switch_id].nf_process(nf_id)
        return {"id": nf_id, "status": "running" if process else "absent",
                "host": switch_id,
                "stats": process.stats() if process else {}}

    # -- reconciliation ------------------------------------------------------------

    def _reconcile(self, nfs: Optional[set[NFKey]],
                   ports: Optional[set[PortKey]]) -> None:
        scope, placed = self._placements(nfs, self._deployed_nfs)
        wanted = {nf_id: (host, nf.functional_type)
                  for nf_id, (host, nf) in placed.items()}
        for nf_id in scope:
            deployed = self._deployed_nfs.get(nf_id)
            if deployed is not None and wanted.get(nf_id) != deployed:
                self.domain.switches[deployed[0]].detach_nf(nf_id)
                del self._deployed_nfs[nf_id]
                self.notify("vnf-stopped", {"id": nf_id})
        for nf_id, (switch_id, functional_type) in wanted.items():
            if nf_id in self._deployed_nfs:
                continue
            process = make_nf_process(nf_id, functional_type)
            nf_ports = sorted(int(p) for p in placed[nf_id][1].ports) or [1, 2]
            self.domain.switches[switch_id].attach_nf(nf_id, process,
                                                      nf_ports=nf_ports)
            self._deployed_nfs[nf_id] = (switch_id, functional_type)
            self.notify("vnf-started", {"id": nf_id, "host": switch_id})
        self.flows.sync(self._wanted_rules(ports), port_flows,
                        full=ports is None)
        self.notify("deploy-finished", {"nffg": self.running.tree.get("id"),
                                        "nfs": sorted(self._deployed_nfs)})

    def _teardown_all(self) -> None:
        for nf_id, (switch_id, _) in list(self._deployed_nfs.items()):
            self.domain.switches[switch_id].detach_nf(nf_id)
        self._deployed_nfs.clear()
        for dpid in self.domain.switches:
            self.controller.delete_flows(dpid)
        self.flows.clear()

    # -- direct access (used by the adapter when co-located) ---------------------------

    def current_view(self) -> NFFG:
        return self.domain.domain_view()

    def deployed_nf_count(self) -> int:
        return len(self._deployed_nfs)
