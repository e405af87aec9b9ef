"""An operation leaves nothing to the cyclic garbage collector.

Every layer creates and drops NFFGs, install slices, snapshots and
rebuilt client services on every operation.  When those are plain trees
of objects, reference counting frees them the moment they are dropped;
one reference cycle (a cached view that points back at its graph, a
journal that holds its orchestrator) turns the whole structure into work
for the full collections that set the tail latencies.  So each sequence
below runs with the collector off after warm-up, and a collection
afterwards must find nothing; on failure the message names the types it
found, which is where to look for the cycle.
"""

import collections
import gc
import weakref

import pytest

from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFG
from repro.orchestration import (
    EmuDomainAdapter,
    EscapeOrchestrator,
    UnifyAgent,
    UnifyDomainAdapter,
)
from repro.recovery import IntentJournal, recover
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain

WARMUP = 3


def left_to_collector(run) -> collections.Counter:
    """Run ``run()`` with the collector off; the objects a collection
    then finds unreachable, counted by type."""
    gc.collect()
    saved = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        garbage = collections.Counter(
            type(obj).__name__ for obj in gc.garbage[saved:])
        assert found == sum(garbage.values())
        return garbage
    finally:
        gc.set_debug(0)
        del gc.garbage[saved:]
        gc.enable()
        gc.collect()


def assert_no_garbage(run, sequence: str) -> None:
    garbage = left_to_collector(run)
    assert not garbage, (
        f"{sequence} left {sum(garbage.values())} objects to the cyclic "
        f"collector, by type: {garbage.most_common(10)}")


def chain(prefix: str, src: str, dst: str, nf_types, *, bandwidth: float,
          tp_dst: int):
    builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
    names = [f"{prefix}-{nf_type}" for nf_type in nf_types]
    for name, nf_type in zip(names, nf_types):
        builder.nf(name, nf_type)
    builder.chain(src, *names, dst, bandwidth=bandwidth,
                  flowclass=f"tp_dst={tp_dst}")
    return builder.build()


def test_fig1_submit_probe_terminate():
    testbed = build_reference_multidomain()
    src, dst = testbed.host("sap1"), testbed.host("sap2")

    def cycle(index: int) -> None:
        request = chain(f"svc{index}", "sap1", "sap2", ("firewall", "nat"),
                        bandwidth=2.0, tp_dst=10000 + index)
        report = testbed.service_layer.submit(request)
        assert report.success, report.error
        src.send(tcp_packet(src.ip, dst.ip, tp_dst=10000 + index))
        testbed.run()
        assert len(dst.received) == 1
        src.clear()
        dst.clear()
        assert testbed.service_layer.terminate(f"svc{index}")

    for index in range(WARMUP):
        cycle(index)
    assert_no_garbage(lambda: cycle(WARMUP),
                      "Fig. 1 submit -> probe -> terminate")
    assert testbed.escape.cal.verify() == []


def ring(journal=None):
    """A 6-switch emulated ring with its SAPs on opposite switches:
    the network, its orchestrator and the ring's links."""
    network = Network()
    ids = [f"ring-bb{i}" for i in range(6)]
    links = [(ids[i], ids[(i + 1) % 6]) for i in range(6)]
    domain = EmulatedDomain("emu", network, node_ids=ids, links=links)
    domain.add_sap("sap1", ids[0])
    domain.add_sap("sap2", ids[3])
    escape = EscapeOrchestrator("ring", simulator=network.simulator,
                                journal=journal)
    escape.add_domain(EmuDomainAdapter("emu", domain))
    return network, escape, links


def test_ring_update_heal_recover():
    journal = IntentJournal(checkpoint_every=4)
    network, escape, links = ring(journal)
    versions = {index: 1 for index in range(4)}

    def service(index: int):
        nf_types = ("firewall", "nat")[:versions[index]]
        return chain(f"ring{index}", "sap1", "sap2", nf_types,
                     bandwidth=1.0 + versions[index], tp_dst=10000 + index).sg

    for index in versions:
        assert escape.deploy(service(index)).success

    def cycle(index: int) -> None:
        target = index % len(versions)
        versions[target] = 3 - versions[target]
        assert escape.update(service(target)).success
        a, b = links[index % 3]
        network.fail_link(a, b)
        assert all(report.success for report in escape.heal().values())
        network.restore_link(a, b)
        escape.heal()
        report = recover(journal, list(escape.cal.adapters.values()),
                         dry_run=True, simulator=network.simulator)
        assert sorted(report.restored) == sorted(escape.deployed_services())

    for index in range(WARMUP):
        cycle(index)
    assert_no_garbage(lambda: cycle(WARMUP),
                      "ring update -> fail_link + heal -> restore_link + "
                      "heal -> recover(dry_run=True)")
    assert escape.cal.verify() == []


def test_unify_stack_deploy_teardown():
    network = Network()
    ids = [f"emu-bb{i}" for i in range(4)]
    domain = EmulatedDomain("emu", network, node_ids=ids,
                            links=list(zip(ids, ids[1:])))
    domain.add_sap("sap1", ids[0])
    domain.add_sap("sap2", ids[-1])
    levels = [EscapeOrchestrator("level0", simulator=network.simulator)]
    levels[0].add_domain(EmuDomainAdapter("emu", domain))
    for level in (1, 2):
        parent = EscapeOrchestrator(f"level{level}",
                                    simulator=network.simulator)
        parent.add_domain(UnifyDomainAdapter(f"level{level - 1}-dom",
                                             UnifyAgent(levels[-1])))
        levels.append(parent)
    top = levels[-1]

    def cycle(index: int) -> None:
        service = chain(f"uni{index}", "sap1", "sap2", ("firewall", "nat"),
                        bandwidth=1.0, tp_dst=10000 + index).sg
        assert top.deploy(service).success
        assert top.teardown(f"uni{index}")

    for index in range(WARMUP):
        cycle(index)
    assert_no_garbage(lambda: cycle(WARMUP),
                      "3-level Unify stack deploy -> teardown")
    assert all(level.cal.verify() == [] for level in levels)


@pytest.mark.parametrize("query", [
    "edges_of", "host_of", "nfs_on", "infra_port_of_nf", "copy",
    "copy_subgraph"])
def test_a_queried_nffg_is_freed_when_dropped(query):
    calls = {
        "edges_of": lambda nffg: list(nffg.edges_of("bb0")),
        "host_of": lambda nffg: nffg.host_of("fw"),
        "nfs_on": lambda nffg: nffg.nfs_on("bb0"),
        "infra_port_of_nf": lambda nffg: nffg.infra_port_of_nf("fw", "1"),
        "copy": lambda nffg: nffg.copy("clone"),
        "copy_subgraph": lambda nffg: nffg.copy_subgraph("sub", ["bb0", "fw"]),
    }

    def run() -> None:
        nffg = NFFG(id="g")
        nffg.add_infra("bb0", num_ports=1)
        nffg.add_infra("bb1", num_ports=1)
        nffg.add_link("bb0", "1", "bb1", "1", id="l01")
        nffg.add_nf("fw", "firewall", num_ports=2)
        nffg.place_nf("fw", "bb0")
        result = calls[query](nffg)
        graphs = [nffg] + ([result] if isinstance(result, NFFG) else [])
        refs = [weakref.ref(obj) for graph in graphs
                for obj in (graph, *graph.edges)]
        del nffg, result, graphs
        alive = [ref().id for ref in refs if ref() is not None]
        assert not alive, f"outlived their graph after {query}: {alive}"

    assert_no_garbage(run, f"an NFFG queried with {query}")
