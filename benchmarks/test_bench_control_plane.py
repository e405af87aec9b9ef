"""EXT-2 — control-channel overhead.

What the narrow waist costs on the wire: NETCONF vs OpenFlow message
counts and bytes per deployment, and the payoff of the Unify diff-based
config exchange versus shipping full virtualizer trees.
"""

import itertools
import statistics
import time

import pytest

from benchmarks.conftest import SMOKE, emit
from repro import perf
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate
from repro.mapping import GreedyEmbedder
from repro.orchestration import UnifyAgent, UnifyDomainAdapter
from repro.orchestration.adapters import DirectDomainAdapter, _NetconfAdapter
from repro.orchestration.escape import EscapeOrchestrator
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain
from repro.virtualizer import nffg_to_virtualizer
from repro.virtualizer.views import FullTopologyView
from repro.yang import diff_trees
from repro.yang.diff import patch_size_bytes
from tests.mapped import mapped_graph


def _request(request_id="ctl"):
    return (ServiceRequestBuilder(request_id)
            .sap("sap1").sap("sap2")
            .nf(f"{request_id}-fw", "firewall").nf(f"{request_id}-nat", "nat")
            .chain("sap1", f"{request_id}-fw", f"{request_id}-nat", "sap2",
                   bandwidth=5.0).build())


def test_bench_per_domain_control_cost(benchmark):
    """The EXT-2 table: control messages/bytes per domain per deploy."""
    testbed = build_reference_multidomain()
    report = testbed.service_layer.submit(_request())
    assert report.success, report.error
    rows = [{
        "domain": adapter_report.domain,
        "messages": adapter_report.control_messages,
        "bytes": adapter_report.control_bytes,
        "nfs": adapter_report.nfs_requested,
        "flowrules": adapter_report.flowrules_requested,
    } for adapter_report in report.adapters]
    emit("EXT-2: control-plane cost per domain (one 2-NF deploy)", rows,
         group="control_plane")
    assert sum(row["messages"] for row in rows) == report.control_messages
    benchmark(lambda: build_reference_multidomain()
              .service_layer.submit(_request("timed")))


def test_bench_full_vs_delta_push(benchmark):
    """EXT-2 extension: per-domain config messages/bytes, full-config
    replace vs edit-config delta mode, on the steady-state (second and
    later) deploy.

    The first deploy is first contact — both modes ship the full
    config.  From the second deploy on, delta mode diffs against the
    acknowledged config and ships a patch; the full-mode run forgets
    the acknowledged configs (``reset_delta_state()``) right before the
    measured deploy, so that one goes out as a full replace,
    byte-identical to the pre-delta code path (the acked-config digests
    of both runs must agree).  The table reports
    the deploy of one more service with ``WARM_SERVICES`` already
    installed: full mode re-ships every installed service's state plus
    the substrate, the delta stays proportional to the one new service.
    """
    WARM_SERVICES = 4 if SMOKE else 6

    def run(full: bool):
        testbed = build_reference_multidomain()
        for index in range(WARM_SERVICES):
            warm = testbed.service_layer.submit(_request(f"warm{index}"))
            assert warm.success, warm.error
        if full:
            for adapter in testbed.escape.cal.adapters.values():
                adapter.reset_delta_state()
        steady = testbed.service_layer.submit(_request("steady"))
        assert steady.success, steady.error
        return testbed, steady

    full_bed, full_report = run(full=True)
    delta_bed, delta_report = run(full=False)
    full_by_domain = {r.domain: r for r in full_report.adapters}
    rows = []
    for report in delta_report.adapters:
        full = full_by_domain[report.domain]
        rows.append({
            "domain": report.domain,
            "full_messages": full.messages,
            "full_bytes": full.bytes,
            "delta_messages": report.messages,
            "delta_bytes": report.bytes,
            "delta": report.delta,
        })
    emit("EXT-2: full vs delta config push (steady-state deploy)", rows,
         group="control_plane")
    # hard gate (also in CI smoke): the delta path must never cost more
    # bytes than the full path it replaces — per domain, not just in sum
    for row in rows:
        assert row["delta_bytes"] <= row["full_bytes"], row
    # steady-state payoff: the patches add up to a fraction of the
    # full-config traffic
    full_total = sum(row["full_bytes"] for row in rows)
    delta_total = sum(row["delta_bytes"] for row in rows)
    assert full_total > 0
    assert delta_total <= 0.40 * full_total, (delta_total, full_total)
    # full mode stayed full; and both modes acknowledged byte-identical
    # configs (canonical digests agree per NETCONF domain)
    assert not any(r.delta for r in full_report.adapters)
    netconf = [r.domain for r in delta_report.adapters if isinstance(
        delta_bed.escape.cal.adapters[r.domain], _NetconfAdapter)]
    assert netconf
    for name in netconf:
        full_tree, delta_tree = (bed.escape.cal.adapters[name]._acked_tree
                                 for bed in (full_bed, delta_bed))
        assert full_tree is not None and delta_tree is not None, name
        assert full_tree.digest() == delta_tree.digest(), name
    benchmark(lambda: run(full=False))


def test_bench_parallel_vs_serial_push(benchmark):
    """CP-2: parallel vs serial push fan-out under 5 ms injected
    per-domain delay.

    Every domain's push is delayed by a real 5 ms sleep (the fault
    plan's sleep hook fires *outside* the plan lock).  The serial
    dispatcher pays the sum of the delays, the parallel dispatcher the
    max — the wall-clock ratio is the whole point of the fan-out.
    """
    from repro.nffg import NFFG
    from repro.orchestration.cal import ControllerAdaptationLayer
    from repro.resilience.faults import FaultKind, FaultPlan, FaultyAdapter

    domains = 4 if SMOKE else 6
    delay_s = 0.005

    def build(workers: int):
        cal = ControllerAdaptationLayer(push_workers=workers)
        plan = FaultPlan()
        plan.sleep = time.sleep
        for index in range(domains):
            name = f"d{index}"
            view = NFFG(id=name)
            view.add_infra(f"{name}-bb0", num_ports=1)
            plan.add(name, "push", kind=FaultKind.DELAY,
                     count=1_000_000, delay_s=delay_s)
            cal.register(FaultyAdapter(DirectDomainAdapter(name, view),
                                       plan))
        return cal

    serial_cal = build(workers=1)
    parallel_cal = build(workers=8)
    # warm up: builds the DoV and (for the parallel CAL) the pool
    serial_cal.push_all()
    parallel_cal.push_all()

    def timed(cal):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            reports = cal.push_all()
            best = min(best, time.perf_counter() - started)
            assert all(r.success for r in reports)
        return best * 1e3

    serial_ms = timed(serial_cal)
    parallel_ms = timed(parallel_cal)
    emit("CP-2: parallel vs serial push under 5 ms injected per-domain "
         "delay", [{
             "domains": domains,
             "delay_ms": delay_s * 1e3,
             "serial_ms": serial_ms,
             "parallel_ms": parallel_ms,
             "speedup_x": serial_ms / parallel_ms,
         }], group="control_plane")
    # serial pays the sum: N domains x 5 ms
    assert serial_ms >= domains * delay_s * 1e3
    # parallel pays the max, not the sum
    assert parallel_ms <= 0.5 * serial_ms, (parallel_ms, serial_ms)
    benchmark(parallel_cal.push_all)


def _mesh_chain(index: int, length: int = 3):
    builder = (ServiceRequestBuilder(f"svc{index}")
               .sap("sap1").sap("sap2"))
    names = [f"s{index}nf{j}" for j in range(length)]
    for name in names:
        builder.nf(name, "firewall", cpu=0.5, mem=64.0)
    builder.chain("sap1", *names, "sap2", bandwidth=2.0)
    return builder.build()


def test_bench_repeated_deploys(benchmark):
    """The control-plane hot loop: N service deploys against one
    unchanged substrate.

    With incremental DoV maintenance and the shared path cache the DoV
    is never re-merged between deploys (``dov.rebuild`` stays at its
    initial value) and most hop routes replay from the memo.
    """
    size = 20 if SMOKE else 60
    deploys = 5 if SMOKE else 20
    mesh = mesh_substrate(size, degree=4, seed=7,
                          supported_types=["firewall"])
    escape = EscapeOrchestrator(embedder=GreedyEmbedder())
    escape.add_domain(DirectDomainAdapter("dom", view=mesh))
    warmup = escape.deploy(_mesh_chain(0).sg, wait_activation=False)
    assert warmup.success, warmup.error

    perf.reset()
    started = time.perf_counter()
    for index in range(1, deploys + 1):
        report = escape.deploy(_mesh_chain(index).sg, wait_activation=False)
        assert report.success, report.error
    elapsed_ms = (time.perf_counter() - started) * 1e3
    snapshot = perf.snapshot()
    latency = perf.metrics.histogram("deploy.latency_s")

    emit("CP-1: repeated deploys on an unchanged substrate", [{
        "substrate_nodes": size,
        "deploys": deploys,
        "ms_per_deploy": elapsed_ms / deploys,
        "p50_ms": latency.percentile(50) * 1e3,
        "p95_ms": latency.percentile(95) * 1e3,
        "p99_ms": latency.percentile(99) * 1e3,
        "dov_rebuilds": snapshot.get("dov.rebuild", 0),
        "dov_inplace": snapshot.get("dov.apply_inplace", 0),
        "path_hits": snapshot.get("pathcache.hit", 0),
        "path_misses": snapshot.get("pathcache.miss", 0),
    }], group="control_plane")
    # the latency histogram saw exactly the timed deploys (perf.reset
    # above cleared the warmup's observation)
    assert latency.count == deploys
    # incremental maintenance: every deploy applied in place, no rebuild
    assert snapshot.get("dov.rebuild", 0) == 0
    assert snapshot.get("dov.apply_inplace", 0) == deploys
    # the resilience layer is pay-per-fault: a fault-free run schedules
    # no retries, trips no breakers, queues nothing for reconciliation
    assert perf.snapshot("resilience.") == {}

    def _deploy_teardown():
        report = escape.deploy(_mesh_chain(999).sg, wait_activation=False)
        assert report.success, report.error
        escape.teardown("svc999")

    benchmark(_deploy_teardown)


def test_bench_push_vs_resident_services(benchmark):
    """CP-4: what the *last* deploy costs against the number of chains
    already installed — push ms, FlowMods and control messages at 3 /
    12 / 24 resident 2-NF chains on the Fig. 1 testbed.

    Southbound programming is O(change): the same request (sap3 ->
    sap2, which the mapper places in the cloud at every level), deployed
    last, must send exactly the same FlowMods and control messages
    whatever is resident — an established chain's rules are not sent
    again — and its push may take at most twice as long at 24 resident
    as at 3 (what is left that grows: slicing the domain's install view
    out of the DoV and comparing it with the acknowledged one).  Each
    level reports the median of five deploys of the request.
    """
    pairs = list(itertools.permutations(("sap1", "sap2", "sap3"), 2))

    def resident(index: int):
        src, dst = pairs[index % len(pairs)]
        prefix = f"res{index}"
        return (ServiceRequestBuilder(prefix).sap(src).sap(dst)
                .nf(f"{prefix}-fw", "firewall").nf(f"{prefix}-nat", "nat")
                .chain(src, f"{prefix}-fw", f"{prefix}-nat", dst,
                       bandwidth=1.0 + index % 8,
                       flowclass=f"tp_dst={10000 + index}").build())

    def last():
        return (ServiceRequestBuilder("last").sap("sap3").sap("sap2")
                .nf("last-fw", "firewall").nf("last-nat", "nat")
                .chain("sap3", "last-fw", "last-nat", "sap2", bandwidth=2.0,
                       flowclass="tp_dst=9999").build())

    def measure(level: int):
        testbed = build_reference_multidomain()
        adapters = testbed.escape.cal.adapters
        endpoints = [testbed.sdn.pox.endpoint, testbed.cloud.odl.endpoint,
                     adapters["emu"].orchestrator.controller,
                     adapters["un"].orchestrator.controller]
        for index in range(level):
            report = testbed.service_layer.submit(resident(index))
            assert report.success, report.error
        samples = []
        for _ in range(5):
            mods = sum(endpoint.flow_mods_sent for endpoint in endpoints)
            report = testbed.service_layer.submit(last())
            assert report.success, report.error
            samples.append((
                report.push_time_s * 1e3,
                sum(e.flow_mods_sent for e in endpoints) - mods,
                report.control_messages))
            testbed.service_layer.terminate("last")
        testbed.escape.cal.dispatcher.shutdown()
        assert len({sample[1:] for sample in samples}) == 1, samples
        return {"resident": level,
                "push_ms": statistics.median(s[0] for s in samples),
                "flow_mods": samples[0][1],
                "control_messages": samples[0][2]}

    rows = [measure(level) for level in (3, 12, 24)]
    emit("CP-4: last-deploy push cost vs resident chains", rows,
         group="control_plane")
    low, _, high = rows
    assert len({row["flow_mods"] for row in rows}) == 1, rows
    assert len({row["control_messages"] for row in rows}) == 1, rows
    assert high["push_ms"] <= 2.0 * low["push_ms"], rows
    benchmark(lambda: measure(3))


def _grid_domain(index: int, count: int, side: int):
    """Domain ``index`` of a ring federation: a ``side`` x ``side`` grid
    of BiS-BiS.  Its SAP and both ring hand-offs sit on the same three
    corner nodes whatever the side, so one request routes alike."""
    from repro.nffg import NFFG, ResourceVector

    name = f"d{index}"
    view = NFFG(id=name)
    for number in range(side * side):
        view.add_infra(
            f"{name}-n{number}",
            resources=ResourceVector(cpu=8.0, mem=8192.0, storage=64.0,
                                     bandwidth=10_000.0, delay=0.05),
            supported_types=["firewall", "nat"])
    for row in range(side):
        for col in range(side):
            here = view.infra(f"{name}-n{row * side + col}")
            for port, back, (r2, c2) in (("e", "w", (row, col + 1)),
                                         ("s", "n", (row + 1, col))):
                if r2 < side and c2 < side:
                    there = view.infra(f"{name}-n{r2 * side + c2}")
                    view.add_link(here.id, here.add_port(port).id,
                                  there.id, there.add_port(back).id,
                                  id=f"{here.id}-{port}",
                                  bandwidth=1000.0, delay=0.2)
    sap = view.add_sap(f"{name}-sap")
    port = view.infra(f"{name}-n0").add_port("to-sap", sap_tag=sap.id)
    view.add_link(sap.id, next(iter(sap.ports)), f"{name}-n0", port.id,
                  bandwidth=1000.0, delay=0.0)
    view.infra(f"{name}-n1").add_port(
        "ho-out", sap_tag=f"ring-{index}-{(index + 1) % count}")
    view.infra(f"{name}-n{side}").add_port(
        "ho-in", sap_tag=f"ring-{(index - 1) % count}-{index}")
    return view


def test_bench_push_vs_domain_size_and_resident_chains(benchmark,
                                                       encoded_datanodes):
    """CP-5: what the *last* deploy's push costs the CAL against the
    size of the domains it lands in and the chains already installed
    there — push ms, its ``push.slice`` / ``push.encode`` / ``push.diff``
    shares and the elements cloned (``NFFG.copy`` + ``copy_subgraph``)
    during the deploy, on a ring of static-view domains at 16 / 64 / 256
    BiS-BiS per domain (8 chains resident) and at 8 / 64 resident chains
    (64 BiS-BiS per domain); then through a ``UnifyDomainAdapter``, onto
    a child that shows one such domain as its ``FullTopologyView``, at
    16 / 256 BiS-BiS.

    The hand-off above the adapters is O(change): the request (d0's SAP
    to d1's, NFs pinned to d0's corner) is pushed to the same two
    domains at every level, from install views the CAL keeps and edits
    in place, so nothing is cloned for the push and every reading stays
    within 1.5x of the smallest.  So is the hand-off through the Unify
    interface: the adapter edits the virtualizer the child
    acknowledged in place, and the push (the child's whole deploy included) stays
    within 1.5x from 16 to 256 BiS-BiS.  Each level reports the median
    of nine deploys of the request.

    The ``update`` rows (8 resident) are nine ``update()``s of that
    request, its bandwidth toggled.  ``update()`` re-fetches every view
    but keeps the derived state when none moved, so the install views
    are edited, not sliced anew, and handed over as an edit of the hops
    that changed: the ``DataNode``s the Unify adapter constructs to
    encode it are the same at 16 and 256 BiS-BiS, and ``push.encode`` +
    ``push.diff`` stay within 2x (an encode of the whole view read 11x;
    the adapter edits the acknowledged tree in place, so nothing of it
    grows with the domain).
    ``push.slice`` and the elements cloned are reported ungated: the
    re-fetch is still O(domain).
    """
    import gc

    from repro.nffg.graph import NFFG

    count = 4 if SMOKE else 8

    def chain(prefix: str, src: str, dst: str, pin=None, bandwidth=1.0):
        builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
        for kind in ("firewall", "nat"):
            builder.nf(f"{prefix}-{kind}", kind, cpu=0.05, mem=8.0,
                       pin_to=pin)
        return builder.chain(src, f"{prefix}-firewall", f"{prefix}-nat",
                             dst, bandwidth=bandwidth).build().sg

    cloned, built = [0], encoded_datanodes
    clone_subgraph, clone_graph = NFFG.copy_subgraph, NFFG.copy

    def counting(clone):
        def wrapper(self, *args, **kwargs):
            graph = clone(self, *args, **kwargs)
            cloned[0] += len(graph._nodes) + len(graph._edges)
            return graph
        return wrapper

    def measure(side: int, resident: int, unify: bool = False):
        """Direct: a ring of ``count`` domains under one orchestrator.
        Unify: domain 0 of a ring of two under a child orchestrator, its
        hand-off towards the absent neighbour serving as the far SAP."""
        escape = top = EscapeOrchestrator(f"cp5-{side}-{resident}")
        domains = 1 if unify else count
        for index in range(domains):
            escape.add_domain(DirectDomainAdapter(
                f"d{index}", _grid_domain(index, 2 if unify else count, side)))
        if unify:
            top = EscapeOrchestrator(f"cp5-{side}-{resident}-parent")
            top.add_domain(UnifyDomainAdapter("child", UnifyAgent(
                escape, view_policy=FullTopologyView())))
        saps = [f"d{index}-sap" for index in range(domains)]
        saps.append("ring-0-1" if unify else saps[0])
        for index in range(resident):
            report = top.deploy(
                chain(f"res{index}", saps[index % domains],
                      saps[index % domains + 1]), wait_activation=False)
            assert report.success, report.error
        def sample(operation, bandwidth=1.0):
            cloned[0] = built[0] = 0
            report = operation(chain("last", saps[0], saps[1], pin="d0-n0",
                                     bandwidth=bandwidth))
            assert report.success, report.error
            # the request's two domains come first either way
            assert [r.domain for r in report.adapters][:2] == (
                ["child"] if unify else ["d0", "d1"])
            stages = report.stage_timings()
            return (report.push_time_s * 1e3, cloned[0], *(
                stages[stage] * 1e3
                for stage in ("push.slice", "push.encode", "push.diff")),
                built[0])

        def row(op, samples):
            return {"adapter": "unify" if unify else "direct", "op": op,
                    "bisbis_per_domain": side * side, "resident": resident,
                    **{column: statistics.median(s[at] for s in samples)
                       for at, column in enumerate((
                           "push_ms", "elements_cloned", "push_slice_ms",
                           "push_encode_ms", "push_diff_ms",
                           "datanodes_built"))}}

        samples = []
        gc.collect()
        for _ in range(9):
            samples.append(sample(
                lambda sg: top.deploy(sg, wait_activation=False)))
            assert top.teardown("last").success
        rows = [row("deploy", samples)]
        if resident == 8:
            sample(lambda sg: top.deploy(sg, wait_activation=False))
            rows.append(row("update", [
                sample(top.update, bandwidth=1.0 + (turn + 1) % 2)
                for turn in range(9)]))
        for orchestrator in {escape, top}:
            orchestrator.cal.dispatcher.shutdown()
            assert orchestrator.cal.verify() == []
        return rows

    NFFG.copy_subgraph = counting(clone_subgraph)
    NFFG.copy = counting(clone_graph)
    try:
        rows = [row for side, resident in ((4, 8), (8, 8), (16, 8), (8, 64))
                for row in measure(side, resident)]
        rows += [row for side in (4, 16)
                 for row in measure(side, 8, unify=True)]
    finally:
        NFFG.copy_subgraph, NFFG.copy = clone_subgraph, clone_graph
    emit("CP-5: last-deploy push cost vs domain size and resident chains",
         rows, group="control_plane")
    for adapter in ("direct", "unify"):
        deploys, updates = ([row for row in rows if row["adapter"] == adapter
                             and row["op"] == op]
                            for op in ("deploy", "update"))
        for column in ("push_ms", "elements_cloned"):
            readings = [row[column] for row in deploys]
            assert max(readings) <= 1.5 * min(readings), (
                adapter, column, rows)
        assert len({row["datanodes_built"] for row in updates}) == 1, (
            adapter, rows)
        readings = [row["push_encode_ms"] + row["push_diff_ms"]
                    for row in updates]
        assert max(readings) <= 2.0 * min(readings), (adapter, rows)
    benchmark(lambda: measure(4, 8))


def test_bench_recovery_vs_cold_redeploy(benchmark):
    """RC-1: journal recovery of N committed services vs redeploying
    them cold.

    Recovery replays placements and routes verbatim from the journal's
    checkpoint + commit records — no mapping — and its anti-entropy
    push collapses to a no-op/delta on the surviving adapters thanks to
    the acked-config digest guard.  A cold redeploy pays full mapping
    and full pushes for every service.  Gate: recovery completes in at
    most 0.3x the cold redeploy time.
    """
    from repro.recovery import IntentJournal, recover

    services = 10 if SMOKE else 50
    size = 40 if SMOKE else 120

    def substrate():
        return mesh_substrate(size, degree=4, seed=7,
                              supported_types=["firewall"])

    # checkpoint_every=16 forces mid-run checkpoints, so the timed
    # recovery exercises the checkpoint + tail-replay path, not a pure
    # full-log walk
    journal = IntentJournal(checkpoint_every=16)
    escape = EscapeOrchestrator("rc", embedder=GreedyEmbedder(),
                                journal=journal)
    escape.add_domain(DirectDomainAdapter("dom", view=substrate()))
    for index in range(services):
        report = escape.deploy(_mesh_chain(index).sg, wait_activation=False)
        assert report.success, report.error

    adapters = list(escape.cal.adapters.values())
    recover_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = recover(journal, adapters, name="rc-successor")
        recover_s = min(recover_s, time.perf_counter() - started)
        assert result.ok()
        assert sorted(result.orchestrator.deployed_services()) \
            == sorted(escape.deployed_services())

    redeploy_s = float("inf")
    for _ in range(3 if SMOKE else 1):
        started = time.perf_counter()
        cold = EscapeOrchestrator("rc-cold", embedder=GreedyEmbedder())
        cold.add_domain(DirectDomainAdapter("dom", view=substrate()))
        for index in range(services):
            report = cold.deploy(_mesh_chain(index).sg,
                                 wait_activation=False)
            assert report.success, report.error
        redeploy_s = min(redeploy_s, time.perf_counter() - started)

    emit("RC-1: journal recovery vs cold redeploy", [{
        "services": services,
        "substrate_nodes": size,
        "recover_ms": recover_s * 1e3,
        "cold_redeploy_ms": redeploy_s * 1e3,
        "speedup_x": redeploy_s / recover_s,
        "journal_records": len(journal),
        "checkpoint_used": journal.replay().checkpoint_used,
    }], group="control_plane")
    # hard gate (also in CI): recovery must beat 0.3x the cold path at
    # the full 50-service scale; the 10-service smoke run gets a looser
    # 0.5x bound because both sides sit in timer-noise territory there
    gate = 0.5 if SMOKE else 0.3
    assert recover_s <= gate * redeploy_s, (recover_s, redeploy_s)
    benchmark(lambda: recover(journal, adapters, dry_run=True))


@pytest.mark.parametrize("size", [10, 40, 160])
def test_bench_diff_vs_full_config(benchmark, size):
    """Unify diff exchange vs full virtualizer tree, growing domains."""
    domain = mesh_substrate(size, degree=3, seed=4,
                            supported_types=["firewall", "nat"])
    service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
               .nf("fw", "firewall").chain("sap1", "fw", "sap2",
                                           bandwidth=1.0).build())
    result = GreedyEmbedder().map(service, domain)
    assert result.success
    before = nffg_to_virtualizer(domain, virtualizer_id="dom")
    after = nffg_to_virtualizer(mapped_graph(domain, result),
                                virtualizer_id="dom")
    entries = benchmark(diff_trees, before.tree, after.tree)
    assert entries  # the deploy changed the tree


def test_bench_diff_compression_table(benchmark):
    rows = []
    for size in (10, 40, 160):
        domain = mesh_substrate(size, degree=3, seed=4,
                                supported_types=["firewall", "nat"])
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("fw", "firewall")
                   .chain("sap1", "fw", "sap2", bandwidth=1.0).build())
        result = GreedyEmbedder().map(service, domain)
        assert result.success
        before = nffg_to_virtualizer(domain, virtualizer_id="dom")
        after = nffg_to_virtualizer(mapped_graph(domain, result),
                                    virtualizer_id="dom")
        full_bytes = len(after.tree.to_json().encode())
        entries = diff_trees(before.tree, after.tree)
        diff_bytes = patch_size_bytes(entries)
        rows.append({
            "domain_nodes": size,
            "full_tree_bytes": full_bytes,
            "diff_bytes": diff_bytes,
            "diff_entries": len(entries),
            "compression_x": full_bytes / diff_bytes,
        })
    emit("EXT-2: Unify diff vs full-config exchange", rows)
    # the diff stays roughly constant while the tree grows with the
    # domain: compression improves with domain size
    assert rows[-1]["compression_x"] > rows[0]["compression_x"]
    assert rows[-1]["compression_x"] > 10
    domain = mesh_substrate(40, degree=3, seed=4)
    benchmark(nffg_to_virtualizer, domain)


def test_bench_netconf_vs_openflow_split(benchmark):
    """Management (NETCONF) vs flow programming (OpenFlow) byte split
    in the emulated domain."""
    from repro.topo import build_emulated_testbed
    testbed = build_emulated_testbed(switches=3)
    adapter = testbed.escape.cal.adapters["emu"]
    report = testbed.service_layer.submit(_request("split"))
    assert report.success
    netconf_bytes = adapter.channel.stats.bytes
    of_stats = adapter.orchestrator.controller.total_stats()
    rows = [{
        "channel": "NETCONF (config)",
        "messages": adapter.channel.stats.messages,
        "bytes": netconf_bytes,
    }, {
        "channel": "OpenFlow (flow programming)",
        "messages": of_stats.messages,
        "bytes": of_stats.bytes,
    }]
    emit("EXT-2: NETCONF vs OpenFlow share (emu domain)", rows)
    assert netconf_bytes > 0 and of_stats.bytes > 0
    benchmark(adapter.get_view)
