"""A resident service keeps its placement and routes, not graph copies.

What the orchestrator books per installed service stays alive for as
long as the service does, and CPython's full collections run whenever
the long-lived heap has grown by a quarter: their amortised cost is
proportional to what each operation leaves behind.  So a resident
service must hold O(service) plain data — the booked result carries no
substrate copy and no closure over the mapping context — and a rebuild
of the derived views must free the remaining view it replaced instead
of leaving it pinned by the services mapped against it.  Likewise a
NETCONF server holds one config tree: its candidate is running plus an
edit staged on running's tree, and a commit keeps that edit, so no
second copy of the config stays installed at any recursion level.
"""

import gc
import weakref

import pytest

from repro.emu import EmulatedDomain
from repro.netconf import NetconfServer
from repro.netem import Network
from repro.nffg import NFFG, ResourceVector
from repro.nffg.model import NodeInfra
from repro.orchestration import (
    DirectDomainAdapter,
    EmuDomainAdapter,
    EscapeOrchestrator,
    UnifyAgent,
    UnifyDomainAdapter,
)
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain
from repro.yang.data import DataNode

from tests.test_cyclic_garbage import chain

DOMAINS = 4
SIDE = 3
NF_TYPES = ("firewall", "nat")


def _federation_domain(d: int) -> NFFG:
    """A SIDE x SIDE grid of BiS-BiS with one SAP at its first corner and
    ring hand-offs to its neighbours on the other two corners."""
    name = f"d{d}"
    view = NFFG(id=name)

    def node(index: int) -> str:
        return f"{name}-n{index}"

    for index in range(SIDE * SIDE):
        view.add_infra(node(index), resources=ResourceVector(
            cpu=8.0, mem=8192.0, storage=64.0, bandwidth=10_000.0,
            delay=0.05), supported_types=NF_TYPES)
    for index in range(SIDE * SIDE):
        row, col = divmod(index, SIDE)
        here = view.infra(node(index))
        for port, other, back in (("e", index + 1, "w"),
                                  ("s", index + SIDE, "n")):
            if (port == "e" and col + 1 < SIDE) or (
                    port == "s" and row + 1 < SIDE):
                there = view.infra(node(other))
                view.add_link(here.id, here.add_port(port).id, there.id,
                              there.add_port(back).id,
                              id=f"{here.id}-{port}", bandwidth=1000.0,
                              delay=0.2)
    sap_id = f"{name}-sap"
    sap = view.add_sap(sap_id)
    corner = view.infra(node(0))
    port = corner.add_port(f"to-{sap_id}", sap_tag=sap_id)
    view.add_link(sap_id, next(iter(sap.ports)), corner.id, port.id,
                  bandwidth=1000.0)
    view.infra(node(SIDE - 1)).add_port(
        "ho-out", sap_tag=f"ring-{d}-{(d + 1) % DOMAINS}")
    view.infra(node(SIDE * (SIDE - 1))).add_port(
        "ho-in", sap_tag=f"ring-{(d - 1) % DOMAINS}-{d}")
    return view


class Federation:
    """Static-view domains on a ring, chains from one SAP two domains on."""

    def __init__(self) -> None:
        self.escape = EscapeOrchestrator("federation")
        for d in range(DOMAINS):
            self.escape.add_domain(
                DirectDomainAdapter(f"d{d}", _federation_domain(d)))

    def deploy(self, index: int) -> None:
        src, dst = f"d{index % DOMAINS}-sap", f"d{(index + 2) % DOMAINS}-sap"
        prefix = f"fed{index}"
        builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
        names = [f"{prefix}-{nf_type}" for nf_type in NF_TYPES]
        for name, nf_type in zip(names, NF_TYPES):
            builder.nf(name, nf_type, cpu=0.5, mem=64.0)
        builder.chain(src, *names, dst, bandwidth=1.0)
        report = self.escape.deploy(builder.build().sg,
                                    wait_activation=False)
        assert report.success, report.error


class Fig1:
    """The reference multi-domain testbed, chains between its two SAPs."""

    def __init__(self) -> None:
        self.testbed = build_reference_multidomain()
        self.escape = self.testbed.escape

    def deploy(self, index: int) -> None:
        report = self.testbed.service_layer.submit(chain(
            f"svc{index}", "sap1", "sap2", NF_TYPES, bandwidth=1.0,
            tp_dst=10000 + index))
        assert report.success, report.error


class UnifyStack:
    """Three orchestrator levels joined by Unify agents over one
    emulated domain, chains deployed through the top."""

    def __init__(self) -> None:
        network = Network()
        ids = [f"emu-bb{i}" for i in range(3)]
        domain = EmulatedDomain("emu", network, node_ids=ids,
                                links=list(zip(ids, ids[1:])))
        domain.add_sap("sap1", ids[0])
        domain.add_sap("sap2", ids[-1])
        self.escape = EscapeOrchestrator("level0",
                                         simulator=network.simulator)
        self.escape.add_domain(EmuDomainAdapter("emu", domain))
        for level in (1, 2):
            parent = EscapeOrchestrator(f"level{level}",
                                        simulator=network.simulator)
            parent.add_domain(UnifyDomainAdapter(f"level{level - 1}-dom",
                                                 UnifyAgent(self.escape)))
            self.escape = parent

    def deploy(self, index: int) -> None:
        report = self.escape.deploy(chain(
            f"uni{index}", "sap1", "sap2", NF_TYPES, bandwidth=1.0,
            tp_dst=10000 + index).sg)
        assert report.success, report.error


SYSTEMS = {"fig1": Fig1, "federation": Federation}


def live_infras() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is NodeInfra)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_resident_services_hold_no_substrate_copy(system):
    # from the first push on, the install views exist: the infra count
    # then depends on the substrate alone, not on what is resident
    built = SYSTEMS[system]()
    for index in range(2):
        built.deploy(index)
    at_two = live_infras()
    for index in range(2, 8):
        built.deploy(index)
    at_eight = live_infras()
    assert at_eight == at_two, (
        f"{at_eight - at_two} NodeInfra objects more at 8 resident "
        f"chains than at 2 on {system}")
    assert built.escape.cal.verify() == []


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_a_rebuild_frees_the_view_it_replaced(system):
    built = SYSTEMS[system]()
    for index in range(4):
        built.deploy(index)
    cal = built.escape.cal
    replaced = weakref.ref(cal._remaining)
    cal.mark_stale()
    assert cal.resource_view() is not replaced()
    gc.collect()
    assert replaced() is None, (
        "the remaining view a rebuild replaced is still alive; held by "
        + ", ".join(sorted({type(holder).__name__ for holder in
                            gc.get_referrers(replaced())})))
    assert cal.verify() == []


def netconf_servers(escape: EscapeOrchestrator) -> list[NetconfServer]:
    """The NETCONF servers of ``escape``'s domains and, behind a Unify
    agent, of every level below it."""
    servers = []
    for adapter in escape.cal.adapters.values():
        server = getattr(adapter, "agent", getattr(adapter, "orchestrator",
                                                   None))
        if isinstance(server, NetconfServer):
            servers.append(server)
        if isinstance(server, UnifyAgent):
            servers += netconf_servers(server.orchestrator)
    return servers


def datanodes(*trees: DataNode) -> int:
    """The distinct nodes of ``trees``."""
    seen: set[int] = set()
    stack = [tree for tree in trees if tree is not None]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += [*node.children(), *node.instances()]
    return len(seen)


@pytest.mark.parametrize("system", [Fig1, UnifyStack],
                         ids=["fig1", "unify_stack3"])
def test_each_netconf_server_holds_one_config_tree(system):
    built = system()
    for index in range(4):
        built.deploy(index)
    servers = netconf_servers(built.escape)
    # Fig. 1: the emu, cloud and UN domains'; the stack: one per level
    assert len(servers) == 3, servers
    one_tree = sum(datanodes(server.running.tree) for server in servers)
    held = sum(datanodes(server.running.tree, server.candidate.tree)
               for server in servers)
    assert held == one_tree, (
        f"the servers hold {held} DataNodes for {one_tree} of config: "
        + ", ".join(f"{server.name} {datanodes(server.candidate.tree)}"
                    for server in servers
                    if server.candidate.tree is not server.running.tree)
        + " more in a candidate copy")
    assert built.escape.cal.verify() == []
