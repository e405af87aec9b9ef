"""EXT-3 — dataplane behaviour of deployed chains.

Packet-level sanity of the emulated substrates: per-chain latency as
chains lengthen, throughput ceiling at a bottleneck link, and the UN's
fast path vs the emulated software switches.
"""

import itertools
import time

import pytest

from benchmarks.conftest import SMOKE, emit
from repro.cli import ScenarioRunner
from repro.netem.packet import tcp_packet
from repro.openflow import FlowTable, OpenFlowSwitch
from repro.service import ServiceRequestBuilder
from repro.topo import build_emulated_testbed, build_reference_multidomain


def _chain(request_id: str, length: int, flowclass: str = ""):
    builder = ServiceRequestBuilder(request_id).sap("sap1").sap("sap2")
    names = []
    for index in range(length):
        name = f"{request_id}-f{index}"
        builder.nf(name, "forwarder")
        names.append(name)
    builder.chain("sap1", *names, "sap2", bandwidth=1.0,
                  flowclass=flowclass)
    return builder.build()


@pytest.mark.parametrize("length", [1, 3, 5])
def test_bench_latency_vs_chain_length(benchmark, length):
    testbed = build_emulated_testbed(switches=3)
    runner = ScenarioRunner(testbed)
    report = runner.deploy(_chain(f"lat{length}", length))
    assert report.success

    def probe():
        return runner.probe("sap1", "sap2", count=5)

    traffic = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert traffic.delivered == 5


def test_bench_latency_table(benchmark):
    rows = []
    for length in (1, 3, 5):
        testbed = build_emulated_testbed(switches=3)
        runner = ScenarioRunner(testbed)
        report = runner.deploy(_chain(f"lat{length}", length))
        assert report.success, report.error
        traffic = runner.probe("sap1", "sap2", count=10)
        rows.append({
            "chain_nfs": length,
            "delivered": traffic.delivered,
            "mean_latency_ms": traffic.mean_latency_ms,
        })
    emit("EXT-3: end-to-end latency vs chain length", rows)
    latencies = [row["mean_latency_ms"] for row in rows]
    assert latencies == sorted(latencies)  # monotone in NF count
    testbed = build_emulated_testbed(switches=2)
    benchmark(testbed.escape.resource_view)


def test_bench_un_fast_path_vs_emulated(benchmark):
    """DPDK-class LSI forwarding vs the emulated software switch."""
    rows = []
    testbed = build_reference_multidomain()
    runner = ScenarioRunner(testbed)
    # one NF on the UN: sap2-adjacent
    request = (ServiceRequestBuilder("fast")
               .sap("sap1").sap("sap2")
               .nf("fast-f", "forwarder")
               .chain("sap1", "fast-f", "sap2", bandwidth=1.0).build())
    report = runner.deploy(request)
    assert report.success
    traffic = runner.probe("sap1", "sap2", count=10)
    lsi = testbed.un.lsi
    emu_switch = testbed.emu.switches["emu-bb0"]
    rows.append({
        "element": "UN LSI forwarding delay (ms)",
        "value": lsi.forwarding_delay_ms,
    })
    rows.append({
        "element": "emulated switch forwarding delay (ms)",
        "value": emu_switch.forwarding_delay_ms,
    })
    rows.append({
        "element": "chain mean latency (ms)",
        "value": traffic.mean_latency_ms,
    })
    emit("EXT-3: Universal Node fast path", rows)
    assert lsi.forwarding_delay_ms < emu_switch.forwarding_delay_ms
    benchmark(lambda: runner.probe("sap1", "sap2", count=2))


def test_bench_throughput_bottleneck(benchmark):
    """Delivered share collapses to the bottleneck link's capacity."""
    testbed = build_emulated_testbed(switches=2)
    # shrink the inter-switch link to 2 Mbit/s and keep short queues
    for link in testbed.network.links:
        if "emu-bb0" in (link.node_a.id, link.node_b.id) \
                and "emu-bb1" in (link.node_a.id, link.node_b.id):
            link.bandwidth_mbps = 2.0
            link.queue_packets = 8
    runner = ScenarioRunner(testbed)
    report = runner.deploy(_chain("bneck", 1))
    assert report.success

    def blast():
        src = testbed.host("sap1")
        dst = testbed.host("sap2")
        dst.clear()
        packets = [tcp_packet(src.ip, dst.ip, size=1500,
                              tp_src=30000 + i) for i in range(60)]
        src.send_burst(packets, interval=0.05)  # 240 Mbit/s offered
        testbed.run()
        return len(dst.received)

    delivered = benchmark.pedantic(blast, rounds=2, iterations=1)
    emit("EXT-3: bottleneck behaviour",
         [{"offered_packets": 60, "delivered": delivered,
           "delivery_ratio": delivered / 60}])
    assert delivered < 60  # the 2 Mbit/s link cannot carry the burst
    assert delivered > 0


def test_bench_per_packet_work_vs_resident_chains(benchmark):
    """EXT-3: a packet costs what it does, not what the switches hold.

    The Fig. 1 testbed at 6 / 24 / 48 resident 2-NF chains carries the
    same 240-packet burst, round-robin over the chains (what the
    ``chain_traffic`` workload of ``bench/`` sends at 24).  The flow
    tables classify by tuple space search, so the hash probes a lookup
    makes are bounded by the masks present — at most 2 here — while the
    tables grow from 8 to 80 entries; a scan tried 3.3 / 11.3 / 25.9
    entries per lookup on the same bursts.  Lookups per packet are the
    route's length (chains 25-48 take longer routes) and exact.  Wall µs
    per lookup is timed from outside, wrapper included (best of six
    bursts), and may grow at most 1.5x from 6 to 48 chains (full size
    only: smoke runs share their machine).
    """
    pairs = list(itertools.permutations(("sap1", "sap2", "sap3"), 2))
    burst = 240

    def chain(index: int):
        src, dst = pairs[index % len(pairs)]
        prefix = f"svc{index}"
        return (ServiceRequestBuilder(prefix).sap(src).sap(dst)
                .nf(f"{prefix}-fw", "firewall").nf(f"{prefix}-nat", "nat")
                .chain(src, f"{prefix}-fw", f"{prefix}-nat", dst,
                       bandwidth=1.0 + index % 8,
                       flowclass=f"tp_dst={10000 + index}").build())

    def measure(resident: int):
        testbed = build_reference_multidomain()
        for index in range(resident):
            report = testbed.service_layer.submit(chain(index))
            assert report.success, report.error
        tables = [node.table for node in testbed.network.nodes.values()
                  if isinstance(node, OpenFlowSwitch)]
        hosts = [testbed.host(sap) for sap in ("sap1", "sap2", "sap3")]

        def counted() -> list[int]:
            return [sum(getattr(table, name) for table in tables)
                    for name in ("lookups", "probes", "misses")]

        def send() -> float:
            """One burst; returns the wall µs a lookup took in it."""
            spent_ns = calls = 0
            lookup = FlowTable.lookup

            def timed(*args, **kwargs):
                nonlocal spent_ns, calls
                started = time.perf_counter_ns()
                try:
                    return lookup(*args, **kwargs)
                finally:
                    spent_ns += time.perf_counter_ns() - started
                    calls += 1

            per_host: dict[str, list] = {}
            for k in range(burst):
                src, dst = pairs[(k % resident) % len(pairs)]
                per_host.setdefault(src, []).append(tcp_packet(
                    testbed.host(src).ip, testbed.host(dst).ip,
                    tp_dst=10000 + k % resident, tp_src=20000 + k,
                    size=200))
            FlowTable.lookup = timed
            try:
                for src, packets in per_host.items():
                    testbed.host(src).send_burst(packets, interval=1.5)
                testbed.run()
            finally:
                FlowTable.lookup = lookup
            return spent_ns / 1e3 / calls

        before = counted()
        first_us = send()
        lookups, probes, misses = (
            after - start for after, start in zip(counted(), before))
        delivered = sum(len(host.received) for host in hosts)
        # the counts are the first burst's; the time is the best of six
        lookup_us = min([first_us] + [send() for _ in range(5)])
        testbed.escape.cal.dispatcher.shutdown()
        assert misses == 0
        return {"resident": resident,
                "largest_table": max(len(table) for table in tables),
                "delivered": delivered,
                "lookups_per_pkt": round(lookups / burst, 2),
                "probes_per_lookup": probes / lookups,
                "lookup_us": lookup_us}

    rows = [measure(resident) for resident in (6, 24, 48)]
    emit("EXT-3: per-packet work vs resident chains", rows)
    assert [row["delivered"] for row in rows] == [burst] * 3, rows
    assert [row["lookups_per_pkt"] for row in rows] == [9, 9, 11.33], rows
    assert all(row["probes_per_lookup"] <= 2 for row in rows), rows
    if not SMOKE:
        assert rows[2]["lookup_us"] <= 1.5 * rows[0]["lookup_us"], rows
    benchmark(lambda: measure(6))
