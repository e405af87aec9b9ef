"""A resident service keeps its placement and routes, not graph copies.

What the orchestrator books per installed service stays alive for as
long as the service does, and CPython's full collections run whenever
the long-lived heap has grown by a quarter: their amortised cost is
proportional to what each operation leaves behind.  So a resident
service must hold O(service) plain data — the booked result carries no
substrate copy and no closure over the mapping context — and a rebuild
of the derived views must free the DoV it replaced instead of leaving
it pinned by the services mapped against it.  The CAL keeps one
substrate graph, the DoV, with the free capacity in its index beside
it: no second, remaining-capacity graph of the whole substrate.  Likewise a
NETCONF server holds one config tree: its candidate is running plus an
edit staged on running's tree, and a commit keeps that edit, so no
second copy of the config stays installed at any recursion level.  And
a config tree is small for what it holds: a leaf is a value in a dict
of its parent, not a node, so copying a tree makes few objects for the
collector to track.  And a mapping is written once, into the DoV, where
its flow rules are checked: mapping copies no infra of the view.  And
an NFFG element is a slotted record with no instance dict, and a node
pair's edges are one tuple, so each copy of a view the stack holds is
small.  And an ended service leaves nothing behind: once every bounded
ring is full, further deploy / teardown or update / heal cycles leave
no more objects of any type alive.
"""

import collections
import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from repro.emu import EmulatedDomain
from repro.netconf import NetconfClient, NetconfServer
from repro.netconf.client import NOTIFICATION_RING
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
from repro.perf import counters
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain
from repro.yang.data import DataNode

from tests.test_cyclic_garbage import chain, ring

DOMAINS = 4
SIDE = 3
NF_TYPES = ("firewall", "nat")


def _federation_domain(d: int, side: int = SIDE) -> NFFG:
    """A side x side grid of BiS-BiS with one SAP at its first corner and
    ring hand-offs to its neighbours on the other two corners."""
    name = f"d{d}"
    view = NFFG(id=name)

    def node(index: int) -> str:
        return f"{name}-n{index}"

    for index in range(side * side):
        view.add_infra(node(index), resources=ResourceVector(
            cpu=8.0, mem=8192.0, storage=64.0, bandwidth=10_000.0,
            delay=0.05), supported_types=NF_TYPES)
    for index in range(side * side):
        row, col = divmod(index, side)
        here = view.infra(node(index))
        for port, other, back in (("e", index + 1, "w"),
                                  ("s", index + side, "n")):
            if (port == "e" and col + 1 < side) or (
                    port == "s" and row + 1 < side):
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
    view.infra(node(side - 1)).add_port(
        "ho-out", sap_tag=f"ring-{d}-{(d + 1) % DOMAINS}")
    view.infra(node(side * (side - 1))).add_port(
        "ho-in", sap_tag=f"ring-{(d - 1) % DOMAINS}-{d}")
    return view


class Federation:
    """Static-view domains on a ring, chains from one SAP two domains on."""

    def __init__(self) -> None:
        self.escape = EscapeOrchestrator("federation")
        for d in range(DOMAINS):
            self.escape.add_domain(
                DirectDomainAdapter(f"d{d}", _federation_domain(d)))

    @staticmethod
    def request(index: int) -> NFFG:
        src, dst = f"d{index % DOMAINS}-sap", f"d{(index + 2) % DOMAINS}-sap"
        prefix = f"fed{index}"
        builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
        names = [f"{prefix}-{nf_type}" for nf_type in NF_TYPES]
        for name, nf_type in zip(names, NF_TYPES):
            builder.nf(name, nf_type, cpu=0.5, mem=64.0)
        builder.chain(src, *names, dst, bandwidth=1.0)
        return builder.build().sg

    def deploy(self, index: int) -> None:
        report = self.escape.deploy(self.request(index),
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
def test_a_deploy_writes_its_mapping_once(system):
    """Into the DoV, and into no copy of the view beside it."""
    built = SYSTEMS[system]()
    built.deploy(0)
    before = counters.get("mapping.apply")
    for index in range(1, 5):
        built.deploy(index)
    assert counters.get("mapping.apply") - before == 4
    assert built.escape.cal.verify() == []


def test_mapping_clones_no_infra(monkeypatch):
    """The RO returns placement and routes: mapping a chain onto the
    remaining view copies none of its infras."""
    built = Federation()
    built.deploy(0)
    escape = built.escape
    view = escape.cal.resource_view()
    cloned: list[str] = []
    clone = NodeInfra.clone

    def counted(infra: NodeInfra) -> NodeInfra:
        cloned.append(infra.id)
        return clone(infra)

    monkeypatch.setattr(NodeInfra, "clone", counted)
    result = escape._orchestrate(Federation.request(1), view)
    assert result.success, result.failure_reason
    assert cloned == []


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_a_rebuild_frees_the_view_it_replaced(system):
    built = SYSTEMS[system]()
    for index in range(4):
        built.deploy(index)
    cal = built.escape.cal
    replaced = weakref.ref(cal.dov)
    cal.mark_stale()
    assert cal.resource_view() is not replaced()
    gc.collect()
    assert replaced() is None, (
        "the DoV a rebuild replaced is still alive; held by "
        + ", ".join(sorted({type(holder).__name__ for holder in
                            gc.get_referrers(replaced())})))
    assert cal.verify() == []


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_the_cal_holds_one_substrate_graph(system):
    """Beyond the domain views (the cached fetches, the adapters' own)
    and the install views sliced from the DoV, every live NodeInfra is
    one of the DoV's.  While the CAL kept a remaining view next to the
    DoV, the count was twice that: 12 for 6 on Fig. 1, 72 for 36 on the
    federation."""
    gc.collect()
    before = [obj for obj in gc.get_objects() if type(obj) is NodeInfra]
    built = SYSTEMS[system]()
    for index in range(4):
        built.deploy(index)
    cal = built.escape.cal
    graphs = [*cal._fetched.values(), *cal._replaced.values(),
              *(held.graph for held in cal._views.values()),
              *(value for adapter in cal.adapters.values()
                for value in vars(adapter).values()
                if isinstance(value, NFFG))]
    known = {id(obj) for obj in before} | {
        id(infra) for graph in graphs if graph is not None
        for infra in graph.infras}
    gc.collect()
    count = sum(1 for obj in gc.get_objects()
                if type(obj) is NodeInfra and id(obj) not in known)
    assert count == len(cal.dov.infras), (
        f"{count} NodeInfra objects beside the domain and install views "
        f"for a DoV of {len(cal.dov.infras)} infras on {system}")


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


def test_a_view_copy_holds_few_tracked_objects():
    """HEAL-1's set-up: a 6-switch emulated ring with its SAPs on
    opposite switches and 12 resident one-NF chains, half in each
    direction.  A copy of the emulated adapter's acknowledged tree — the
    config every delta push edits — stays within a budget of nodes and
    of objects the cyclic collector tracks.  While every leaf was a
    DataNode, the copy was 1 301 DataNodes and 2 047 tracked objects;
    with leaves as values in their parent's dict: 373 and 683."""
    network = Network()
    ids = [f"ring-bb{i}" for i in range(6)]
    links = [(ids[i], ids[(i + 1) % 6]) for i in range(6)]
    domain = EmulatedDomain("emu", network, node_ids=ids, links=links)
    domain.add_sap("sap1", ids[0])
    domain.add_sap("sap2", ids[3])
    escape = EscapeOrchestrator("ring", simulator=network.simulator)
    adapter = escape.add_domain(EmuDomainAdapter("emu", domain))
    reverse = random.Random(7).sample([False, True] * 6, 12)
    for index, back in enumerate(reverse):
        src, dst = ("sap2", "sap1") if back else ("sap1", "sap2")
        assert escape.deploy(chain(f"day{index}", src, dst, ("firewall",),
                                   bandwidth=2.0,
                                   tp_dst=10000 + index).sg).success
    tree = adapter._acked_tree
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        copy = tree.copy()
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert copy.digest() == tree.digest()
    assert datanodes(copy) <= 650, datanodes(copy)
    assert tracked <= 1024, tracked


def _bench_domain_view() -> NFFG:
    """A static domain view shaped like the benchmark's: an 8 x 8 grid
    of BiS-BiS with a SAP and two hand-offs, 65 nodes, 226 edges and 228
    ports."""
    return _federation_domain(0, side=8)


def test_a_domain_view_copy_makes_few_tracked_objects():
    """Exact: a copy of the view makes one object per node, port, port
    flow-rule list, edge and node pair, plus the adjacency dicts.
    While every element kept an instance dict and every node pair a
    ``{edge id: edge}`` dict, the same copy made 2 275 (and gave the
    source's elements their dicts on its first copy), 1 237 as slotted
    records and tuples, and 1 173 since the 64 infras share their
    ``supported_types`` frozenset with their copies."""
    view = _bench_domain_view()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        copy = view.copy()
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert (len(copy.nodes), len(copy.edges)) == (65, 226)
    assert tracked == 1173, tracked


def test_a_domain_view_copy_allocates_little():
    """The same copy allocates no more than 10 % over its 137 664 B on
    CPython 3.11.7 (241 264 B while elements kept instance dicts)."""
    view = _bench_domain_view()
    tracemalloc.start()
    try:
        copy = view.copy()
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(copy.edges) == 226
    assert allocated <= 137_664 * 1.1, allocated


def test_nffg_elements_are_slotted_records():
    """No NFFG element carries an instance ``__dict__``; edges and
    graphs accept weak references (the cyclic-garbage tests take
    them)."""
    view = _federation_domain(0)
    sg = NFFG(id="sg")
    sg.add_sap("sap1")
    sg.add_sap("sap2")
    sg.add_nf("fw", "firewall", num_ports=1)
    hops = [sg.add_sg_hop("sap1", "1", "fw", "1").id,
            sg.add_sg_hop("fw", "1", "sap2", "1").id]
    sg.add_requirement("sap1", "1", "sap2", "1", sg_path=hops)
    infra = view.infras[0]
    port = next(iter(infra.ports.values()))
    rule = port.add_flowrule("in_port=1", "output=2")
    elements = [*view.nodes, *sg.nodes, *view.edges, *sg.edges, port,
                rule, infra.resources, sg.nfs[0].resources]
    assert {type(element).__name__ for element in elements} == {
        "NodeInfra", "NodeSAP", "NodeNF", "EdgeLink", "EdgeSGHop",
        "EdgeReq", "Port", "Flowrule", "ResourceVector"}
    assert [type(element).__name__ for element in elements
            if hasattr(element, "__dict__")] == []
    for graph in (view, sg):
        assert weakref.ref(graph)() is graph
        for edge in graph.edges:
            assert weakref.ref(edge)() is edge


# -- an ended service leaves nothing behind ------------------------------------


class Fig1Churn(Fig1):
    """Submit -> terminate through the service layer, over every ordered
    pair of the three SAPs: the chains land on the emulated domain, the
    Universal Node and the cloud in turn."""

    PAIRS = list(itertools.permutations(("sap1", "sap2", "sap3"), 2))
    period = len(PAIRS)

    def cycle(self, index: int) -> None:
        src, dst = self.PAIRS[index % len(self.PAIRS)]
        layer = self.testbed.service_layer
        report = layer.submit(chain(f"svc{index}", src, dst, NF_TYPES,
                                    bandwidth=1.0, tp_dst=10000 + index))
        assert report.success, report.error
        assert layer.terminate(f"svc{index}")


class UnifyChurn(UnifyStack):
    """Deploy -> teardown through the top of the 3-level stack."""

    period = 1

    def cycle(self, index: int) -> None:
        self.deploy(index)
        assert self.escape.teardown(f"uni{index}")


class RingChurn:
    """The cyclic-garbage ring: four resident chains, each cycle updates
    one of them to the other version, fails a link, heals, restores the
    link and heals again."""

    #: four services toggling between two versions, three links
    period = 24

    def __init__(self) -> None:
        self.network, self.escape, self.links = ring()
        self.versions = {index: 1 for index in range(4)}
        for index in self.versions:
            assert self.escape.deploy(self.service(index)).success

    def service(self, index: int) -> NFFG:
        version = self.versions[index]
        return chain(f"ring{index}", "sap1", "sap2", NF_TYPES[:version],
                     bandwidth=1.0 + version, tp_dst=10000 + index).sg

    def cycle(self, index: int) -> None:
        target = index % len(self.versions)
        self.versions[target] = 3 - self.versions[target]
        assert self.escape.update(self.service(target)).success
        a, b = self.links[index % 3]
        self.network.fail_link(a, b)
        assert all(report.success for report in self.escape.heal().values())
        self.network.restore_link(a, b)
        self.escape.heal()


CHURN = {"fig1": Fig1Churn, "unify_stack3": UnifyChurn, "ring": RingChurn}
#: cycles that fill every client's notification ring on all three
WARMUP = 144
#: a multiple of every system's period, so both counts are taken in
#: the same state
K = 48


def census(*skip: object) -> collections.Counter:
    """The gc-tracked objects, counted by type, apart from ``skip``.

    Counted one by one: ``Counter(iterable)`` asks whether the iterable
    is a ``Mapping``, and the first time it meets a type that fills the
    negative caches of every ``Mapping`` subclass, 20 sets on Fig. 1.
    """
    gc.collect()
    skipped = {id(skip), *map(id, skip)}
    counts: collections.Counter = collections.Counter()
    for obj in gc.get_objects():
        if id(obj) not in skipped:
            counts[type(obj)] += 1
    return counts


def netconf_clients(escape: EscapeOrchestrator) -> list[NetconfClient]:
    """The NETCONF clients of ``escape``'s adapters and, behind a Unify
    agent, of every level below it."""
    clients = []
    for adapter in escape.cal.adapters.values():
        if isinstance(getattr(adapter, "client", None), NetconfClient):
            clients.append(adapter.client)
        if isinstance(getattr(adapter, "agent", None), UnifyAgent):
            clients += netconf_clients(adapter.agent.orchestrator)
    return clients


@pytest.mark.parametrize("system", sorted(CHURN))
def test_an_ended_service_leaves_nothing_behind(system):
    """Exact: after a warm-up that fills every bounded ring, no type has
    more live instances after 2K further cycles than after K, and the
    total does not grow.  While the service layer kept every request,
    the NETCONF clients every notification, the UN every stopped
    container and Nova every deleted VM, K = 48 Fig. 1 cycles left 48
    requests with their graphs, 384 notifications, 32 containers with
    their Click processes and 32 VMs alive; restoring any one of the
    four alone fails here."""
    built = CHURN[system]()
    assert K % built.period == 0
    index = itertools.count()
    for _ in range(WARMUP):
        built.cycle(next(index))
    clients = netconf_clients(built.escape)
    assert clients and all(len(client.notifications) >= NOTIFICATION_RING
                           for client in clients), [
        (client.name, len(client.notifications)) for client in clients]
    for _ in range(K):
        built.cycle(next(index))
    after_k = census()
    for _ in range(K):
        built.cycle(next(index))
    after_2k = census(after_k)
    grown = {kind: after_2k[kind] - after_k[kind] for kind in after_2k
             if after_2k[kind] > after_k[kind]}
    assert not grown, (
        f"{K} more cycles on {system} left more objects alive, by type: "
        + ", ".join(f"{kind.__qualname__} +{count}" for kind, count in
                    sorted(grown.items(), key=lambda item: -item[1])))
    assert sum(after_2k.values()) <= sum(after_k.values())
    assert built.escape.cal.verify() == []
