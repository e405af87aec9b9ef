"""The Universal Node domain and its local orchestrator."""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.click.catalog import supported_functional_types
from repro.infra.flowprog import FlowProgrammer, PortKey, rule_flow
from repro.infra.nfswitch import NFHostingSwitch
from repro.infra.orchestrator import LocalOrchestrator, NFKey
from repro.netem.network import Network
from repro.netem.node import Host
from repro.nffg.graph import NFFG
from repro.nffg.model import (
    DomainType,
    InfraType,
    NodeNF,
    ResourceVector,
)
from repro.openflow.controller import ControllerEndpoint
from repro.un.containers import Container, ContainerRuntime, ContainerState


class LogicalSwitchInstance(NFHostingSwitch):
    """The UN's DPDK-accelerated software switch.

    Same contract as any NF-hosting switch, but with a forwarding
    latency an order of magnitude below the software switches of the
    emulated domain — the "high performance forwarding" of the paper.
    """

    def __init__(self, dpid: str, simulator, forwarding_delay_ms: float = 0.001):
        super().__init__(dpid, simulator,
                         forwarding_delay_ms=forwarding_delay_ms)


class UniversalNodeDomain:
    """One Universal Node: a single LSI + a container runtime."""

    domain_type = DomainType.UN

    def __init__(self, name: str, network: Network, *,
                 cpu: float = 16.0, mem_mb: float = 16384.0,
                 storage_gb: float = 256.0,
                 port_bandwidth: float = 40_000.0,
                 container_start_delay_ms: float = 300.0):
        self.name = name
        self.network = network
        self.storage_gb = storage_gb
        self.port_bandwidth = port_bandwidth
        self.lsi = LogicalSwitchInstance(f"{name}-lsi", network.simulator)
        network.add(self.lsi)
        self.runtime = ContainerRuntime(
            network.simulator, node_name=name, cpu_capacity=cpu,
            mem_capacity_mb=mem_mb,
            start_delay_ms=container_start_delay_ms)
        self.sap_hosts: dict[str, Host] = {}
        self._handoff_ports: dict[str, tuple[str, str]] = {}

    # -- edge attachment ----------------------------------------------------

    def add_sap(self, sap_id: str) -> Host:
        host = self.network.add_host(f"{self.name}-host-{sap_id}")
        port = f"sap-{sap_id}"
        self.network.connect(host.id, "0", self.lsi.id, port,
                             bandwidth_mbps=self.port_bandwidth, delay_ms=0.05)
        self.sap_hosts[sap_id] = host
        self._handoff_ports[sap_id] = (self.lsi.id, port)
        return host

    def add_handoff(self, tag: str) -> tuple[str, str]:
        port = f"sap-{tag}"
        self._handoff_ports[tag] = (self.lsi.id, port)
        return self.lsi.id, port

    def handoff(self, tag: str) -> tuple[str, str]:
        return self._handoff_ports[tag]

    # -- northbound description -----------------------------------------------

    @property
    def bisbis_id(self) -> str:
        return f"{self.name}-bisbis"

    def domain_view(self) -> NFFG:
        view = NFFG(id=f"{self.name}-view",
                    name=f"universal node {self.name}")
        # installed inventory, not live-free: the parent's adaptation
        # layer tracks its own deployments (see CloudDomain.domain_view)
        infra = view.add_infra(
            self.bisbis_id, infra_type=InfraType.BISBIS,
            domain=self.domain_type,
            resources=ResourceVector(
                cpu=self.runtime.cpu_capacity,
                mem=self.runtime.mem_capacity_mb,
                storage=self.storage_gb,
                bandwidth=self.port_bandwidth, delay=0.002),
            supported_types=supported_functional_types(),
            cost_per_cpu=0.5)
        for tag in self._handoff_ports:
            infra.add_port(f"sap-{tag}", sap_tag=tag)
        for sap_id in self.sap_hosts:
            sap = view.add_sap(sap_id)
            view.add_link(sap_id, list(sap.ports)[0], infra.id,
                          f"sap-{sap_id}", id=f"sl-{self.name}-{sap_id}",
                          bandwidth=self.port_bandwidth, delay=0.05)
        return view


class UNLocalOrchestrator(LocalOrchestrator):
    """UN local orchestrator: containers + LSI flow control."""

    def __init__(self, domain: UniversalNodeDomain):
        super().__init__(f"{domain.name}-lo")
        self.domain = domain
        self.controller = ControllerEndpoint(
            f"{domain.name}-ctl", simulator=domain.network.simulator)
        self.controller.connect_switch(domain.lsi)
        #: the steering entries on the LSI; only _reconcile and
        #: _teardown_all write it
        self.flows = FlowProgrammer(self.controller)
        self._nf_containers: dict[str, Container] = {}
        self.register_rpc("list-containers", lambda params: [
            {"id": c.id, "name": c.name, "image": c.image,
             "state": c.state.value} for c in self.domain.runtime.running()])

    # -- NETCONF hooks ------------------------------------------------------------

    @staticmethod
    def _cpu(nfs: Iterable[NodeNF]) -> float:
        return sum(nf.resources.cpu for nf in nfs)

    def _check(self, node_ids: Iterable[str], new: list[NodeNF],
               old: list[NodeNF]) -> list[str]:
        problems = [f"unknown BiS-BiS {node_id!r}" for node_id in node_ids
                    if node_id != self.domain.bisbis_id]
        demand_cpu = (self._cpu(self.nfs.values()) - self._cpu(old)
                      + self._cpu(new))
        if demand_cpu > self.domain.runtime.cpu_capacity + 1e-9:
            problems.append(
                f"cpu demand {demand_cpu} exceeds UN capacity "
                f"{self.domain.runtime.cpu_capacity}")
        return problems

    def state_data(self) -> dict[str, Any]:
        return {
            "containers": {nf_id: c.state.value
                           for nf_id, c in self._nf_containers.items()},
            "flow_mods_sent": self.controller.flow_mods_sent,
            "deploys": self.deploy_count,
        }

    # -- reconciliation -----------------------------------------------------------------

    def _reconcile(self, nfs: Optional[set[NFKey]],
                   ports: Optional[set[PortKey]]) -> None:
        scope, placed = self._placements(nfs, self._nf_containers)
        wanted = {nf_id: nf for nf_id, (host, nf) in placed.items()
                  if host == self.domain.bisbis_id}
        for nf_id in scope:
            container = self._nf_containers.get(nf_id)
            if container is None:
                continue
            nf = wanted.get(nf_id)
            if nf is None or nf.functional_type != container.image:
                del self._nf_containers[nf_id]
                self.domain.lsi.detach_nf(nf_id)
                self.domain.runtime.stop(container.id)
                self.notify("vnf-stopped", {"id": nf_id})
        for nf_id, nf in wanted.items():
            if nf_id in self._nf_containers:
                continue
            container = self.domain.runtime.run(
                nf_id, nf.functional_type, cpu=nf.resources.cpu,
                mem_mb=nf.resources.mem)
            self._nf_containers[nf_id] = container
            nf_ports = sorted(int(p) for p in nf.ports) or [1, 2]
            container.on_running(
                lambda ctr, nf_id=nf_id, ports=nf_ports:
                self._attach_container(nf_id, ctr, ports))
        dpid = self.domain.lsi.dpid
        self.flows.sync(
            self._wanted_rules(ports),
            lambda port, _, rule: (rule_flow(dpid, port[1], rule),),
            full=ports is None)
        self.notify("deploy-finished", {"nffg": self.running.tree.get("id")})

    def _attach_container(self, nf_id: str, container: Container,
                          nf_ports: list[int]) -> None:
        assert container.process is not None
        self.domain.lsi.attach_nf(nf_id, container.process, nf_ports=nf_ports)
        self.notify("vnf-started", {"id": nf_id, "container": container.id})

    def _teardown_all(self) -> None:
        for nf_id, container in list(self._nf_containers.items()):
            self.domain.lsi.detach_nf(nf_id)
            self.domain.runtime.stop(container.id)
        self._nf_containers.clear()
        self.controller.delete_flows(self.domain.lsi.dpid)
        self.flows.clear()

    # -- helpers -----------------------------------------------------------------------

    def all_containers_running(self) -> bool:
        return all(c.state == ContainerState.RUNNING
                   for c in self._nf_containers.values())
