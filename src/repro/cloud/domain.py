"""The cloud domain: leaf-spine fabric + hypervisors + local orchestrator.

The domain advertises itself northbound as a **single BiS-BiS** whose
capacity is the whole Nova cell — the textbook use of the paper's
abstraction ("delegation of all resource management to the lower
layer").  Internally the :class:`CloudLocalOrchestrator` re-maps that
one-node configuration: NF instances become Nova VM boots placed by the
filter scheduler, and BiS-BiS flow entries become ODL-installed fabric
paths between gateway ports and VM vNIC ports.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.click.catalog import NF_CATALOG, make_nf_process, supported_functional_types
from repro.cloud.nova import (
    ComputeHost,
    Image,
    NovaCompute,
    NoValidHost,
    VMInstance,
    flavor_for,
)
from repro.cloud.odl import OdlController
from repro.infra.flowprog import Flow, PortKey
from repro.infra.nfswitch import NFHostingSwitch
from repro.infra.orchestrator import LocalOrchestrator, NFKey
from repro.infra.tags import vlan_for_hop
from repro.netem.network import Network
from repro.netem.node import Host
from repro.nffg.graph import NFFG
from repro.nffg.model import (
    DomainType,
    Flowrule,
    InfraType,
    NodeNF,
    ResourceVector,
)
from repro.openflow.switch import OpenFlowSwitch


class CloudDomain:
    """Physical DC: leaf-spine fabric, hypervisors, Nova + ODL."""

    domain_type = DomainType.OPENSTACK

    def __init__(self, name: str, network: Network, *,
                 num_spines: int = 2, num_leaves: int = 2,
                 hosts_per_leaf: int = 2,
                 host_vcpus: float = 16.0, host_ram_mb: float = 32768.0,
                 host_disk_gb: float = 512.0,
                 fabric_bandwidth: float = 10_000.0,
                 fabric_delay: float = 0.2,
                 vm_boot_delay_ms: float = 1500.0):
        self.name = name
        self.network = network
        self.fabric_bandwidth = fabric_bandwidth
        self.fabric_delay = fabric_delay
        self.nova = NovaCompute(network.simulator,
                                boot_delay_ms=vm_boot_delay_ms)
        self.odl = OdlController(f"{name}-odl", simulator=network.simulator)
        self.spines: list[OpenFlowSwitch] = []
        self.leaves: list[OpenFlowSwitch] = []
        self.compute_switches: dict[str, NFHostingSwitch] = {}
        self.sap_hosts: dict[str, Host] = {}
        self._handoff_ports: dict[str, tuple[str, str]] = {}
        self._build_fabric(num_spines, num_leaves, hosts_per_leaf,
                           host_vcpus, host_ram_mb, host_disk_gb)
        for functional_type in supported_functional_types():
            impl = NF_CATALOG[functional_type]
            self.nova.register_image(Image(
                name=f"img-{functional_type}", functional_type=functional_type,
                min_ram_mb=impl.default_resources.mem / 2))

    def _build_fabric(self, num_spines: int, num_leaves: int,
                      hosts_per_leaf: int, vcpus: float, ram: float,
                      disk: float) -> None:
        for index in range(num_spines):
            spine = OpenFlowSwitch(f"{self.name}-spine{index}",
                                   self.network.simulator,
                                   forwarding_delay_ms=0.005)
            self.network.add(spine)
            self.odl.connect(spine)
            self.spines.append(spine)
        for index in range(num_leaves):
            leaf = OpenFlowSwitch(f"{self.name}-leaf{index}",
                                  self.network.simulator,
                                  forwarding_delay_ms=0.005)
            self.network.add(leaf)
            self.odl.connect(leaf)
            self.leaves.append(leaf)
            for spine in self.spines:
                port_l, port_s = f"to-{spine.id}", f"to-{leaf.id}"
                self.network.connect(leaf.id, port_l, spine.id, port_s,
                                     bandwidth_mbps=self.fabric_bandwidth,
                                     delay_ms=self.fabric_delay)
                self.odl.register_link(leaf.id, port_l, spine.id, port_s)
            for host_index in range(hosts_per_leaf):
                dpid = f"{self.name}-compute{index}-{host_index}"
                vswitch = NFHostingSwitch(dpid, self.network.simulator,
                                          forwarding_delay_ms=0.01)
                self.network.add(vswitch)
                self.odl.connect(vswitch)
                self.compute_switches[dpid] = vswitch
                port_c, port_l = f"to-{leaf.id}", f"to-{dpid}"
                self.network.connect(dpid, port_c, leaf.id, port_l,
                                     bandwidth_mbps=self.fabric_bandwidth,
                                     delay_ms=self.fabric_delay)
                self.odl.register_link(dpid, port_c, leaf.id, port_l)
                self.nova.add_host(ComputeHost(name=dpid, vcpus=vcpus,
                                               ram_mb=ram, disk_gb=disk))

    # -- edge attachment ---------------------------------------------------

    def add_sap(self, sap_id: str, leaf_index: int = 0) -> Host:
        leaf = self.leaves[leaf_index]
        host = self.network.add_host(f"{self.name}-host-{sap_id}")
        port = f"sap-{sap_id}"
        self.network.connect(host.id, "0", leaf.id, port,
                             bandwidth_mbps=self.fabric_bandwidth,
                             delay_ms=0.1)
        self.sap_hosts[sap_id] = host
        self._handoff_ports[sap_id] = (leaf.id, port)
        return host

    def add_handoff(self, tag: str, leaf_index: int = 0) -> tuple[str, str]:
        leaf = self.leaves[leaf_index]
        port = f"sap-{tag}"
        self._handoff_ports[tag] = (leaf.id, port)
        return leaf.id, port

    def handoff(self, tag: str) -> tuple[str, str]:
        return self._handoff_ports[tag]

    # -- northbound resource description -----------------------------------------

    @property
    def bisbis_id(self) -> str:
        return f"{self.name}-bisbis"

    def domain_view(self) -> NFFG:
        """Single-BiS-BiS view of the whole data center.

        Capacities are the *installed inventory*: the orchestrator's
        adaptation layer is the single bookkeeper of what it deployed,
        so the view must not also subtract that consumption (it would
        be counted twice).
        """
        view = NFFG(id=f"{self.name}-view", name=f"cloud domain {self.name}")
        total_vcpus = sum(h.vcpus for h in self.nova.hosts.values())
        total_ram = sum(h.ram_mb for h in self.nova.hosts.values())
        total_disk = sum(h.disk_gb for h in self.nova.hosts.values())
        internal_delay = 4 * self.fabric_delay + 0.05
        infra = view.add_infra(
            self.bisbis_id, infra_type=InfraType.BISBIS,
            domain=self.domain_type,
            resources=ResourceVector(cpu=total_vcpus, mem=total_ram,
                                     storage=total_disk,
                                     bandwidth=self.fabric_bandwidth,
                                     delay=internal_delay),
            supported_types=[img.functional_type
                             for img in self.nova.images.values()],
            cost_per_cpu=0.7)
        for tag, (_, _) in self._handoff_ports.items():
            infra.add_port(f"sap-{tag}", sap_tag=tag)
        for sap_id in self.sap_hosts:
            sap = view.add_sap(sap_id)
            view.add_link(sap_id, list(sap.ports)[0], infra.id,
                          f"sap-{sap_id}", id=f"sl-{self.name}-{sap_id}",
                          bandwidth=self.fabric_bandwidth, delay=0.1)
        return view


class CloudLocalOrchestrator(LocalOrchestrator):
    """UNIFY-conform local orchestrator on top of the cloud domain.

    Accepts a single-BiS-BiS virtualizer over NETCONF and realizes it
    with Nova boots (its NF instances) + ODL fabric paths (its flow
    entries).  VM boots are asynchronous on the virtual clock; steering
    flows are installed immediately and carry traffic as soon as the
    VM's Click process attaches.
    """

    def __init__(self, domain: CloudDomain):
        super().__init__(f"{domain.name}-lo")
        self.domain = domain
        self._nf_vms: dict[str, VMInstance] = {}
        self._nf_attach: dict[str, str] = {}   # nf_id -> compute dpid
        #: fabric-internal VLAN of each path, by port id and flow entry
        #: key — the rule's identity, so no other rule's coming or going
        #: renumbers it — and the pool they are drawn from
        self._transport_vlans: dict[str, dict[str, int]] = {}
        self._free_vlans = list(range(4094, 1, -1))
        self.register_rpc("list-vms", lambda params: [
            {"id": vm.id, "name": vm.name, "state": vm.state.value,
             "host": vm.host} for vm in self.domain.nova.list_instances()])

    # -- NETCONF hooks -----------------------------------------------------------

    def _check(self, node_ids: Iterable[str], new: list[NodeNF],
               old: list[NodeNF]) -> list[str]:
        return ([f"unknown BiS-BiS {node_id!r} (expected "
                 f"{self.domain.bisbis_id!r})" for node_id in node_ids
                 if node_id != self.domain.bisbis_id]
                + [f"no image for NF type {nf.functional_type!r}"
                   for nf in new if f"img-{nf.functional_type}"
                   not in self.domain.nova.images])

    def state_data(self) -> dict[str, Any]:
        return {
            "vms": {nf_id: vm.state.value for nf_id, vm in self._nf_vms.items()},
            "paths_installed": self.domain.odl.paths_installed,
            "deploys": self.deploy_count,
        }

    # -- reconciliation -------------------------------------------------------------

    def _reconcile(self, nfs: Optional[set[NFKey]],
                   ports: Optional[set[PortKey]]) -> None:
        scope, placed = self._placements(nfs, self._nf_vms)
        wanted = {nf_id: nf for nf_id, (host, nf) in placed.items()
                  if host == self.domain.bisbis_id}
        flows = self.domain.odl.flows
        for nf_id in scope:
            vm = self._nf_vms.get(nf_id)
            if vm is None:
                continue
            nf = wanted.get(nf_id)
            if nf is None or vm.image.functional_type != nf.functional_type:
                self._destroy_vm(nf_id)
                if nf is not None:
                    # same ports, maybe another host: every path that
                    # ends at them has to be routed again
                    flows.invalidate()
                    ports = None
        for nf_id, nf in wanted.items():
            if nf_id in self._nf_vms:
                continue
            image = self.domain.nova.images[f"img-{nf.functional_type}"]
            flavor = flavor_for(nf.resources.cpu, nf.resources.mem,
                                nf.resources.storage)
            try:
                vm = self.domain.nova.boot(nf_id, flavor, image)
            except NoValidHost as exc:
                self.notify("vm-error", {"nf": nf_id, "error": str(exc)})
                continue
            self._nf_vms[nf_id] = vm
            nf_ports = sorted(int(p) for p in nf.ports) or [1, 2]
            vm.on_active(lambda active_vm, nf_id=nf_id, ports=nf_ports:
                         self._attach_vm(nf_id, active_vm, ports))
        rules = self._wanted_rules(ports)
        flows.sync(rules, self._path_flows, full=ports is None)
        # a path that went gives its VLAN back, for later commits only:
        # within this one its old entries were still up while new paths
        # were added
        vlans = self._transport_vlans
        for port_id in (list(vlans) if ports is None
                        else [port_id for _, port_id in ports]):
            held = vlans.get(port_id, {})
            members = rules.get((self.domain.bisbis_id, port_id), {})
            for key in [key for key in held if key not in members]:
                self._free_vlans.append(held.pop(key))
            if not held:
                vlans.pop(port_id, None)
        self.notify("deploy-finished", {"nffg": self.running.tree.get("id")})

    def _attach_vm(self, nf_id: str, vm: VMInstance, nf_ports: list[int]) -> None:
        vswitch = self.domain.compute_switches[vm.host]
        process = make_nf_process(nf_id, vm.image.functional_type)
        vswitch.attach_nf(nf_id, process, nf_ports=nf_ports)
        self._nf_attach[nf_id] = vm.host
        self.notify("vnf-started", {"id": nf_id, "host": vm.host,
                                    "vm": vm.id})

    def _destroy_vm(self, nf_id: str) -> None:
        vm = self._nf_vms.pop(nf_id, None)
        if vm is None:
            return
        dpid = self._nf_attach.pop(nf_id, None)
        if dpid is not None:
            self.domain.compute_switches[dpid].detach_nf(nf_id)
        self.domain.nova.delete(vm.id)
        self.notify("vnf-stopped", {"id": nf_id})

    # -- fabric steering ---------------------------------------------------------------

    def _resolve_port(self, port_id: str) -> tuple[str, str]:
        """BiS-BiS port id -> (fabric dpid, dataplane port)."""
        if port_id.startswith("sap-"):
            return self.domain.handoff(port_id[len("sap-"):])
        # NF attachment port "<nf_id>-<n>": locate the hosting vswitch
        nf_id, _, _ = port_id.rpartition("-")
        vm = self._nf_vms.get(nf_id)
        if vm is None:
            raise KeyError(f"port {port_id!r}: NF {nf_id!r} has no VM")
        return vm.host, port_id

    def _path_flows(self, port: PortKey, key: str,
                    rule: Flowrule) -> list[Flow]:
        """The fabric path one BiS-BiS flow rule becomes (none, with a
        ``path-error`` notification, when an end of it has no place)."""
        match_fields = rule.match_fields()
        action_fields = rule.action_fields()
        try:
            ingress_dpid, ingress_port = self._resolve_port(port[1])
            egress_dpid, egress_port = self._resolve_port(
                action_fields.get("output", ""))
        except KeyError as exc:
            self.notify("path-error", {"error": str(exc)})
            return []
        match_vlan = (vlan_for_hop(match_fields["tag"])
                      if "tag" in match_fields else None)
        if "tag" in action_fields:
            egress_vlan: Optional[int] = vlan_for_hop(action_fields["tag"])
        elif "untag" in action_fields:
            egress_vlan = None
        else:
            egress_vlan = match_vlan
        held = self._transport_vlans.setdefault(port[1], {})
        if key not in held:
            held[key] = self._free_vlans.pop()
        return self.domain.odl.path_flows({
            "ingress_dpid": ingress_dpid, "ingress_port": ingress_port,
            "egress_dpid": egress_dpid, "egress_port": egress_port,
            "flowclass": match_fields.get("flowclass", ""),
            "transport_vlan": held[key], "match_vlan": match_vlan,
            "egress_vlan": egress_vlan}, cookie=rule.hop_id or key)

    def _teardown_all(self) -> None:
        for nf_id in list(self._nf_vms):
            self._destroy_vm(nf_id)
        self.domain.odl.flows.sync({}, self._path_flows, full=True)
        for held in self._transport_vlans.values():
            self._free_vlans.extend(held.values())
        self._transport_vlans.clear()

    # -- helpers ------------------------------------------------------------------------

    def all_vms_active(self) -> bool:
        from repro.cloud.nova import VMState
        return all(vm.state == VMState.ACTIVE
                   for vm in self._nf_vms.values())

    def wait_ready(self, max_virtual_ms: float = 60_000.0) -> bool:
        """Run the simulator until every requested VM is ACTIVE."""
        deadline = self.domain.network.simulator.now + max_virtual_ms
        while not self.all_vms_active():
            next_time = self.domain.network.simulator.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.domain.network.simulator.step()
        return self.all_vms_active()
