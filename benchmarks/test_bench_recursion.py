"""DEMO-iii(a) — recursive orchestration.

"Unify domains can be stacked into a multi-level control hierarchy."
The harness stacks 1..4 ESCAPE levels above one physical emulated
domain, deploys the same chain through the top of each stack and
reports per-level overhead (deploy latency, Unify control bytes),
verifying the chain end to end at the bottom every time.  A second row
deploys the same request last, through three levels, beside 2 / 8 / 32
resident chains: what an edit costs must not depend on what is
installed.
"""

import time

import pytest

from benchmarks.conftest import emit
from repro import perf
from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFGBuilder
from repro.orchestration import (
    EmuDomainAdapter,
    EscapeOrchestrator,
    UnifyAgent,
    UnifyDomainAdapter,
)

LEVELS = [1, 2, 3, 4]

#: the exact units of tree work a deploy costs (``repro.perf`` counters)
WORK = ("yang.measured", "yang.hashed", "yang.resolved",
        "unify.parts_rederived")


def _stack(levels: int, cpu_per_node: float = 8.0):
    """A physical emu domain under a tower of `levels` orchestrators."""
    net = Network()
    domain = EmulatedDomain("emu", net, node_ids=["emu-bb0", "emu-bb1"],
                            links=[("emu-bb0", "emu-bb1")],
                            cpu_per_node=cpu_per_node)
    domain.add_sap("sap1", "emu-bb0")
    domain.add_sap("sap2", "emu-bb1")
    bottom = EscapeOrchestrator("level0", simulator=net.simulator)
    bottom.add_domain(EmuDomainAdapter("emu", domain))
    top = bottom
    adapters = []
    for level in range(1, levels):
        agent = UnifyAgent(top)
        parent = EscapeOrchestrator(f"level{level}",
                                    simulator=net.simulator)
        adapter = UnifyDomainAdapter(f"level{level - 1}-dom", agent)
        parent.add_domain(adapter)
        adapters.append(adapter)
        top = parent
    return net, domain, top, adapters


def _service(service_id: str, tp_dst: int = 0):
    return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
            .nf(f"{service_id}-fw", "firewall")
            .chain("sap1", f"{service_id}-fw", "sap2", bandwidth=5.0,
                   flowclass=f"tp_dst={tp_dst}" if tp_dst else "")
            .build())


@pytest.mark.parametrize("levels", LEVELS)
def test_bench_deploy_through_n_levels(benchmark, levels):
    def setup():
        return _stack(levels), {}

    def run(net, domain, top, adapters):
        report = top.deploy(_service("rsvc"))
        assert report.success, report.error
        return net, domain

    net, domain = benchmark.pedantic(run, setup=setup, rounds=3,
                                     iterations=1)
    # verify the dataplane at the very bottom
    h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
    h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
    net.run()
    assert len(h2.received) == 1


def test_bench_recursion_overhead_table(benchmark):
    """The DEMO-iii(a) table: cost per added orchestration level."""
    rows = []
    for levels in LEVELS:
        net, domain, top, adapters = _stack(levels)
        started = time.perf_counter()
        report = top.deploy(_service("rsvc"))
        elapsed_ms = (time.perf_counter() - started) * 1e3
        assert report.success, report.error
        unify_bytes = sum(adapter.channel.stats.bytes
                          for adapter in adapters)
        h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        rows.append({
            "levels": levels,
            "deploy_ms": elapsed_ms,
            "unify_ctrl_bytes": unify_bytes,
            "delivered": len(h2.received),
        })
    emit("DEMO-iii(a): recursive orchestration overhead per level", rows)
    assert all(row["delivered"] == 1 for row in rows)
    # Unify control bytes grow with stacking depth (one interface per
    # added level), while a single level costs none
    assert rows[0]["unify_ctrl_bytes"] == 0
    assert all(a["unify_ctrl_bytes"] < b["unify_ctrl_bytes"]
               for a, b in zip(rows, rows[1:]))
    net, domain, top, _ = _stack(2)
    benchmark(top.resource_view)


def test_bench_last_deploy_vs_resident_chains(benchmark, encoded_datanodes):
    """DEMO-iii(a), second row: the *last* deploy through three levels
    against the number of chains already installed (2 / 8 / 32).

    Every level reconciles per client service and ships edit scripts, so
    the same request sends the same FlowMods to the bottom switches and
    the same control messages at every resident level, and the same
    bytes on the Unify channels: each agent's notification names what
    the edit changed, not the parts it kept.  Every adapter of the stack
    — the two Unify ones and the emulated domain's, one encoder — edits
    the virtualizer it holds in place: the ``DataNode``s they construct
    to encode the deploy (the ``encoded_datanodes`` fixture) are the same
    at every level.  So is the tree work of the whole deploy, counted
    exactly in ``repro.perf``: the subtrees measured afresh for digests
    and the leaves hashed (client and server), the paths resolved, and
    the client services the Unify agents re-derive (only those holding a
    member the edit named).  The teardown that follows hashes nothing:
    what it removes carries its digest.
    """
    built = encoded_datanodes

    def measure(resident: int):
        net, domain, top, adapters = _stack(3, cpu_per_node=64.0)
        bottom = adapters[0].agent.orchestrator
        emu = bottom.cal.adapters["emu"]
        for index in range(resident):
            report = top.deploy(_service(f"res{index}", 10000 + index))
            assert report.success, report.error

        def counts():
            """(bottom FlowMods, control messages at every level,
            DataNodes the adapters encoded, subtrees measured, paths
            resolved, parts re-derived, bytes on the Unify channels) so
            far."""
            return (emu.orchestrator.controller.flow_mods_sent,
                    emu.control_stats()[0] + sum(
                        adapter.control_stats()[0] for adapter in adapters),
                    built[0], *(perf.counters.get(name) for name in WORK),
                    sum(adapter.channel.stats.bytes for adapter in adapters))

        samples = []
        for _ in range(3):
            before_deploy = counts()
            started = time.perf_counter()
            report = top.deploy(_service("last", 9999))
            elapsed_ms = (time.perf_counter() - started) * 1e3
            assert report.success, report.error
            samples.append((elapsed_ms, *(
                after - before
                for after, before in zip(counts(), before_deploy))))
            h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
            before = len(h2.received)
            h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=9999))
            net.run()
            assert len(h2.received) == before + 1
            hashed = perf.counters.get("yang.hashed")
            assert top.teardown("last").success
            assert perf.counters.get("yang.hashed") == hashed
        assert len({sample[1:] for sample in samples}) == 1, samples
        return {"resident": resident,
                "deploy_ms": sorted(s[0] for s in samples)[1],
                "flow_mods": samples[0][1],
                "control_messages": samples[0][2],
                "datanodes_encoded": samples[0][3],
                **dict(zip(WORK, samples[0][4:-1])),
                "unify_ctrl_bytes": samples[0][-1]}

    rows = [measure(resident) for resident in (2, 8, 32)]
    emit("DEMO-iii(a): last deploy through 3 levels vs resident chains",
         rows, group="control_plane")
    low = rows[0]
    for row in rows[1:]:
        for column in ("flow_mods", "control_messages"):
            assert row[column] <= 1.5 * low[column], rows
        for column in ("datanodes_encoded", *WORK, "unify_ctrl_bytes"):
            assert row[column] == low[column], rows
    # and exactly: each of the 16 members the deploy creates over the
    # three levels (an NF, its two ports and two flow entries per Unify
    # level, six members at the bottom) is measured once by each end,
    # where it lands, hashing its 113 leaves there; each server resolves
    # each parent path of its entries once, staging them on its one tree
    # (commit keeps the edit), and then each list the edit names once;
    # each client looks each list up once per tree; and one client
    # service is re-derived per agent.  Resolving every entry's parent
    # (63), re-resolving every entry to validate it and every named
    # instance to fold it (90), applying the entries again at commit
    # (106), measuring a member again as it leaves, or re-deriving every
    # part, moves these readings
    assert tuple(low[column] for column in WORK) == (32, 226, 57, 2), rows
    benchmark(lambda: measure(2))


def test_bench_view_propagation_depth(benchmark):
    """Cost of pulling the virtual view through N levels."""
    net, domain, top, _ = _stack(4)
    view = benchmark(top.resource_view)
    assert len(view.infras) == 1  # single BiS-BiS after 4 aggregations
    # capacity survives every aggregation unchanged
    assert view.infras[0].resources.cpu == 16.0
