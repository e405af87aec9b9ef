"""The six workloads.

A workload object is one built system plus its seeded request stream.
``--seed`` shuffles bandwidths everywhere, and SAP pairs, hand-off
chords, failed links and updated services where no dataplane depends on
them; the program only ever sees the generated requests.  Shuffling
fixed multisets (instead of drawing each value independently) keeps the
*mix* the same across seeds, so two seeds measure the same amount of
work in a different order.

Where packets are probed, the order of SAP pairs and directions is fixed:
the program derives VLAN ids from hop ids with ``crc32 % 3900``
(``repro.infra.tags``; the cloud fabric from ``transport:<hop>:<rule
index>``), two hops that collide on one switch port overwrite each
other's flow entry, and the chain of one of them black-holes until the
next push renumbers the rules.  With seeded pair orders 1 trial in 30 of
``fig1_resident`` lost a probe that way.  The fixed orders below were
run collision-free for several times the length of a trial; a benchmark
workload must be one on which no operation fails.

Each workload drives only public entry points and reports every
operation through the :class:`~bench.trial.Recorder` it is handed.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Iterable, Optional

from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFG, ResourceVector
from repro.openflow.flowtable import FlowTable
from repro.click.process import ClickProcess
from repro.orchestration import (
    CloudDomainAdapter,
    DirectDomainAdapter,
    EmuDomainAdapter,
    EscapeOrchestrator,
    SdnDomainAdapter,
    UnifyAgent,
    UnifyDomainAdapter,
    UNDomainAdapter,
)
from repro.recovery import IntentJournal, recover
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain

PROBE_BYTES = 200


def _shuffled(rng: random.Random, values: Iterable) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def of_endpoints(adapter) -> list:
    """The OpenFlow controller endpoints a domain adapter programs."""
    if isinstance(adapter, SdnDomainAdapter):
        return [adapter.domain.pox.endpoint]
    if isinstance(adapter, CloudDomainAdapter):
        return [adapter.domain.odl.endpoint]
    if isinstance(adapter, (EmuDomainAdapter, UNDomainAdapter)):
        return [adapter.orchestrator.controller]
    return []


class Workload:
    """Base: the pieces every workload shares."""

    name = ""
    why = ""
    #: the operation the ``*_per_deploy`` counts and layer times are
    #: taken over (None: the timed window has no control operation)
    headline: Optional[str] = "deploy"
    #: the timed cycles deploy and tear down; where they do not,
    #: ``deploy_ms_*``, ``teardown_ms_p50`` and ``map_cost_mean`` are not
    #: reported, except to the driver (:func:`bench.metrics.for_driver`)
    control_in_window = True
    #: resident services after the fill
    resident = 0
    #: timed cycles of a 10 s trial, sized to take about that long on
    #: the reference box at the commit that added the benchmark.  The
    #: count is fixed by ``--seconds`` alone, never by the clock, so a
    #: seed gives the same counts and both sides of a comparison sample
    #: the program's within-run drift identically.
    cycles_per_10s = 10
    min_cycles = 4
    #: set-ups per trial (the median is ``setup_s``): more where they are
    #: cheap, and a fixed number because ids the program hands out — and
    #: with them message sizes — depend on what ran before in the process
    setups = 3
    #: sizes ``--quick`` (the self-test) swaps in
    quick_sizes: dict = {}

    def __init__(self, seed: int, *, quick: bool = False) -> None:
        self.seed = seed
        if quick:
            vars(self).update(self.quick_sizes)
        self.rng = random.Random(seed)
        #: orchestrators, bottom level first
        self.levels: list[EscapeOrchestrator] = []
        self.simulator = None
        self.journal: Optional[IntentJournal] = None
        #: ids of deployed services, oldest first
        self.live: deque = deque()
        self.next_index = 0
        self.pristine_cpu = 0.0

    # -- to implement ------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def cycle(self, rec, index: int) -> None:
        raise NotImplementedError

    def deploy_next(self, rec):
        """Deploy the stream's next service; returns the report."""
        raise NotImplementedError

    def teardown_oldest(self, rec) -> None:
        raise NotImplementedError

    # -- shared ------------------------------------------------------------

    @property
    def top(self) -> EscapeOrchestrator:
        return self.levels[-1]

    def cycles_for(self, seconds: float) -> int:
        return max(self.min_cycles,
                   round(self.cycles_per_10s * seconds / 10.0))

    def adapters(self) -> list:
        return [adapter for escape in self.levels
                for adapter in escape.cal.adapters.values()]

    def _free_cpu(self) -> float:
        return sum(infra.resources.cpu
                   for infra in self.top.resource_view().infras)

    def built(self) -> None:
        """Call at the end of :meth:`build`: remember the empty books."""
        self.pristine_cpu = self._free_cpu()

    def fill(self, rec) -> None:
        for _ in range(self.resident):
            self.deploy_next(rec)

    def drain(self, rec) -> None:
        while self.live:
            self.teardown_oldest(rec)

    def leaks(self) -> list[str]:
        """Problems left after a drain (empty list = clean)."""
        problems = []
        for escape in self.levels:
            if escape.deployed_services():
                problems.append(f"{escape.name} still books "
                                f"{escape.deployed_services()}")
        free = self._free_cpu()
        if abs(free - self.pristine_cpu) > 1e-6:
            problems.append(f"free CPU {free} != pristine "
                            f"{self.pristine_cpu}")
        return problems

    def close(self) -> None:
        for escape in self.levels:
            escape.cal.dispatcher.shutdown()

    def instrument(self, tracer) -> None:
        """Register this instance's layer boundaries with a tracer."""
        for level, escape in enumerate(self.levels):
            tag = str(level)
            for attr in ("deploy", "teardown", "update", "heal"):
                tracer.add(escape, attr, f"escape.{attr}", tag)
            cal = escape.cal
            tracer.add(cal, "resource_view", "cal.resource_view", tag)
            tracer.add(cal, "pristine_view", "cal.pristine_view", tag)
            tracer.add(cal, "commit_mapping", "cal.commit_mapping", tag)
            tracer.add(cal, "remove_service", "cal.remove_service", tag)
            tracer.add(cal, "push_planned", "cal.push", tag)
            tracer.add(cal, "push_all", "cal.push", tag)
            tracer.add(escape.ro, "orchestrate", "ro.orchestrate", tag)
            for adapter in cal.adapters.values():
                tracer.add(adapter, "install", "adapter.install",
                           adapter.name)
                client = getattr(adapter, "client", None)
                if client is not None:
                    tracer.add(client, "rpc", "netconf.rpc", adapter.name)
                for endpoint in of_endpoints(adapter):
                    for attr in ("send_flow_mod", "delete_flows", "barrier"):
                        tracer.add(endpoint, attr, f"openflow.{attr}",
                                   adapter.name)
        if self.simulator is not None:
            tracer.add(self.simulator, "run", "sim.run")
        if self.journal is not None:
            tracer.add(self.journal, "replay", "recovery.replay")

    def probe(self, rec, src_host, dst_host, tp_dsts: list[int],
              network) -> None:
        """One packet per ``tp_dst`` from ``src_host`` to ``dst_host``;
        every one must arrive."""
        before = len(dst_host.received)
        src_host.send_burst(
            [tcp_packet(src_host.ip, dst_host.ip, tp_dst=tp_dst,
                        tp_src=20000 + k, size=PROBE_BYTES)
             for k, tp_dst in enumerate(tp_dsts)], interval=1.0)
        network.run()
        rec.probes(len(tp_dsts), len(dst_host.received) - before,
                   dst_host.latencies[before:])
        src_host.clear()
        dst_host.clear()


# -- Fig. 1 testbed: fig1_resident, fig1_empty, chain_traffic ----------------


class Fig1Workload(Workload):
    """2-NF chains over emu + sdn + cloud + un.  Capacity is 48 chains
    (the cloud takes 32, the Universal Node 8, the emulated domain 8)."""

    SAPS = ("sap1", "sap2", "sap3")
    BANDWIDTHS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    PROBES = 3

    def build(self) -> None:
        self.pairs = list(itertools.permutations(self.SAPS, 2))
        self.bandwidths = _shuffled(self.rng, self.BANDWIDTHS)
        self.testbed = build_reference_multidomain()
        self.levels = [self.testbed.escape]
        self.simulator = self.testbed.network.simulator
        self.built()

    def endpoints(self, index: int) -> tuple[str, str]:
        return self.pairs[index % len(self.pairs)]

    def request(self, index: int):
        src, dst = self.endpoints(index)
        prefix = f"svc{index}"
        return (ServiceRequestBuilder(prefix).sap(src).sap(dst)
                .nf(f"{prefix}-fw", "firewall").nf(f"{prefix}-nat", "nat")
                .chain(src, f"{prefix}-fw", f"{prefix}-nat", dst,
                       bandwidth=self.bandwidths[index
                                                 % len(self.bandwidths)],
                       flowclass=f"tp_dst={10000 + index}")
                .build())

    def deploy_next(self, rec):
        index = self.next_index
        self.next_index += 1
        report = rec.op("deploy", self.testbed.service_layer.submit,
                        self.request(index))
        if report.success:
            self.live.append(index)
        return report

    def teardown_oldest(self, rec) -> None:
        rec.op("teardown", self.testbed.service_layer.terminate,
               f"svc{self.live.popleft()}")

    def cycle(self, rec, index: int) -> None:
        report = self.deploy_next(rec)
        if report.success:
            newest = self.live[-1]
            src, dst = self.endpoints(newest)
            self.probe(rec, self.testbed.host(src), self.testbed.host(dst),
                       [10000 + newest] * self.PROBES, self.testbed.network)
        if self.live:
            self.teardown_oldest(rec)


class Fig1Resident(Fig1Workload):
    name = "fig1_resident"
    why = ("24 of 48 chains stay installed while one is added and one "
           "removed per cycle: push grows with installed state, so "
           "O(change) southbound programming has to show here")
    resident = 24
    cycles_per_10s = 95
    setups = 4
    quick_sizes = {"resident": 4, "min_cycles": 3, "setups": 1}


class Fig1Empty(Fig1Workload):
    name = "fig1_empty"
    why = ("control for fig1_resident: same testbed and cycle at 0 "
           "resident, so fixed per-deploy cost (lint, map, encode, NETCONF, "
           "activation) dominates; state-proportional work predicts no "
           "change")
    resident = 0
    cycles_per_10s = 700
    setups = 15
    quick_sizes = {"min_cycles": 6, "setups": 1}


class ChainTraffic(Fig1Workload):
    name = "chain_traffic"
    why = ("dataplane only: packet bursts over 24 installed chains, no "
           "control operation in the timed window; reads the flow tables "
           "push writes, so cheap FlowMods that slow lookups show")
    headline = None
    control_in_window = False
    resident = 24
    cycles_per_10s = 200
    BURST = 240
    #: virtual ms between packets of one source host; with three source
    #: SAPs the testbed sees a packet every 0.5 vms
    SPACING_VMS = 1.5
    setups = 4
    quick_sizes = {"resident": 6, "min_cycles": 3, "BURST": 24, "setups": 1}

    def instrument(self, tracer) -> None:
        super().instrument(tracer)
        tracer.add_total(FlowTable, "lookup", "openflow.lookup")
        tracer.add_total(ClickProcess, "push", "click.push")

    def cycle(self, rec, index: int) -> None:
        per_host: dict[str, list] = {}
        for k in range(self.BURST):
            chain = self.live[k % len(self.live)]
            src, dst = self.endpoints(chain)
            src_host, dst_host = self.testbed.host(src), self.testbed.host(dst)
            per_host.setdefault(src, []).append(
                tcp_packet(src_host.ip, dst_host.ip, tp_dst=10000 + chain,
                           tp_src=20000 + k, size=PROBE_BYTES))
        hosts = [self.testbed.host(sap) for sap in self.SAPS]

        def burst() -> None:
            for src, packets in per_host.items():
                self.testbed.host(src).send_burst(
                    packets, interval=self.SPACING_VMS)
            self.testbed.run()

        rec.op("burst", burst)
        rec.probes(self.BURST, sum(len(h.received) for h in hosts),
                   [latency for h in hosts for latency in h.latencies])
        for host in hosts:
            host.clear()


# -- federation ---------------------------------------------------------------


class Federation(Workload):
    name = "federation"
    why = ("32 static-view domains x 64 BiS-BiS, no NETCONF/OpenFlow/"
           "domain orchestrator: time goes to CAL (view, commit, slicing), "
           "dispatch, mapping and NFFG copies, not to push protocols")
    resident = 64
    cycles_per_10s = 140
    DOMAINS = 32
    SIDE = 8
    NF_TYPES = ("firewall", "nat", "dpi", "monitor")
    BANDWIDTHS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    MAX_DELAY_VMS = 60.0
    quick_sizes = {"DOMAINS": 8, "SIDE": 3, "resident": 6,
                   "min_cycles": 4, "setups": 1}

    def build(self) -> None:
        count = self.DOMAINS
        ring = [(d, (d + 1) % count) for d in range(count)]
        # chord hand-offs between domains at least 4 apart on the ring
        far = [(a, b) for a in range(count) for b in range(a + 4, count)
               if (a - b) % count >= 4]
        chords = sorted(self.rng.sample(far, count // 4))
        self.pairs = _shuffled(
            self.rng, ((d, (d + k) % count)
                       for d in range(count) for k in (1, 2, 3)))
        self.bandwidths = _shuffled(self.rng, self.BANDWIDTHS)
        escape = EscapeOrchestrator("federation", cal_shards=4)
        for d in range(count):
            escape.add_domain(DirectDomainAdapter(
                f"d{d:02d}", self._domain_view(d, ring, chords)))
        self.levels = [escape]
        self.built()

    def _domain_view(self, d: int, ring, chords) -> NFFG:
        """A SIDE x SIDE grid of BiS-BiS with one SAP, ring hand-offs on
        two corners and chord hand-offs in the middle."""
        name, side = f"d{d:02d}", self.SIDE
        view = NFFG(id=name)

        def node(row: int, col: int) -> str:
            return f"{name}-n{row * side + col:02d}"

        for row in range(side):
            for col in range(side):
                view.add_infra(
                    node(row, col),
                    resources=ResourceVector(cpu=8.0, mem=8192.0,
                                             storage=64.0,
                                             bandwidth=10_000.0, delay=0.05),
                    supported_types=self.NF_TYPES)
        for row in range(side):
            for col in range(side):
                here = view.infra(node(row, col))
                for port, (r2, c2), back in (("e", (row, col + 1), "w"),
                                             ("s", (row + 1, col), "n")):
                    if r2 < side and c2 < side:
                        there = view.infra(node(r2, c2))
                        view.add_link(here.id, here.add_port(port).id,
                                      there.id, there.add_port(back).id,
                                      id=f"{here.id}-{port}",
                                      bandwidth=1000.0, delay=0.2)
        sap_id = f"{name}-sap"
        sap = view.add_sap(sap_id)
        corner = view.infra(node(0, 0))
        port = corner.add_port(f"to-{sap_id}", sap_tag=sap_id)
        view.add_link(sap_id, next(iter(sap.ports)), corner.id, port.id,
                      bandwidth=1000.0, delay=0.0)
        middle = side // 2
        for kind, pairs, out_at, in_at in (
                ("ring", ring, (0, side - 1), (side - 1, 0)),
                ("chord", chords, (middle, middle),
                 (middle - 1, middle - 1))):
            for a, b in pairs:
                tag = f"{kind}-{a}-{b}"
                if a == d:
                    view.infra(node(*out_at)).add_port(f"ho-{tag}",
                                                       sap_tag=tag)
                if b == d:
                    view.infra(node(*in_at)).add_port(f"ho-{tag}",
                                                      sap_tag=tag)
        return view

    def service(self, index: int) -> NFFG:
        a, b = self.pairs[index % len(self.pairs)]
        src, dst = f"d{a:02d}-sap", f"d{b:02d}-sap"
        prefix = f"fed{index}"
        builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
        names = []
        for position, nf_type in enumerate(self.NF_TYPES):
            names.append(f"{prefix}-nf{position}")
            builder.nf(names[-1], nf_type, cpu=0.5, mem=64.0)
        builder.chain(src, *names, dst,
                      bandwidth=self.bandwidths[index % len(self.bandwidths)])
        builder.delay_requirement(src, dst, max_delay=self.MAX_DELAY_VMS)
        return builder.build().sg

    def deploy_next(self, rec):
        index = self.next_index
        self.next_index += 1
        report = rec.op("deploy", self.top.deploy, self.service(index),
                        wait_activation=False)
        if report.success:
            self.live.append(index)
        return report

    def teardown_oldest(self, rec) -> None:
        rec.op("teardown", self.top.teardown, f"fed{self.live.popleft()}")

    def cycle(self, rec, index: int) -> None:
        self.deploy_next(rec)
        if self.live:
            self.teardown_oldest(rec)


# -- unify_stack3 ---------------------------------------------------------------


class UnifyStack3(Workload):
    name = "unify_stack3"
    why = ("the paper's recursion: three orchestrator levels joined by "
           "Unify agents over one emulated domain; every level re-runs "
           "lint/map/push, so virtualizer/yang/netconf cost multiplies "
           "with depth")
    resident = 8
    cycles_per_10s = 65
    LEVELS = 3
    SWITCHES = 4
    BANDWIDTHS = (1.0, 2.0, 3.0, 4.0)
    setups = 6
    quick_sizes = {"resident": 2, "min_cycles": 3, "setups": 1}

    def build(self) -> None:
        self.bandwidths = _shuffled(self.rng, self.BANDWIDTHS)
        self.network = Network()
        self.simulator = self.network.simulator
        ids = [f"emu-bb{i}" for i in range(self.SWITCHES)]
        self.domain = EmulatedDomain("emu", self.network, node_ids=ids,
                                     links=list(zip(ids, ids[1:])))
        self.domain.add_sap("sap1", ids[0])
        self.domain.add_sap("sap2", ids[-1])
        bottom = EscapeOrchestrator("level0", simulator=self.simulator)
        bottom.add_domain(EmuDomainAdapter("emu", self.domain))
        self.levels = [bottom]
        for level in range(1, self.LEVELS):
            agent = UnifyAgent(self.levels[-1])
            parent = EscapeOrchestrator(f"level{level}",
                                        simulator=self.simulator)
            parent.add_domain(UnifyDomainAdapter(f"level{level - 1}-dom",
                                                 agent))
            self.levels.append(parent)
        self.built()

    def endpoints(self, index: int) -> tuple[str, str]:
        return ("sap2", "sap1") if index % 2 else ("sap1", "sap2")

    def service(self, index: int) -> NFFG:
        src, dst = self.endpoints(index)
        prefix = f"uni{index}"
        return (ServiceRequestBuilder(prefix).sap(src).sap(dst)
                .nf(f"{prefix}-fw", "firewall").nf(f"{prefix}-nat", "nat")
                .chain(src, f"{prefix}-fw", f"{prefix}-nat", dst,
                       bandwidth=self.bandwidths[index
                                                 % len(self.bandwidths)],
                       flowclass=f"tp_dst={10000 + index}")
                .build().sg)

    def deploy_next(self, rec):
        index = self.next_index
        self.next_index += 1
        report = rec.op("deploy", self.top.deploy, self.service(index))
        if report.success:
            self.live.append(index)
        return report

    def teardown_oldest(self, rec) -> None:
        rec.op("teardown", self.top.teardown, f"uni{self.live.popleft()}")

    def cycle(self, rec, index: int) -> None:
        report = self.deploy_next(rec)
        if report.success:
            newest = self.live[-1]
            src, dst = self.endpoints(newest)
            hosts = self.domain.sap_hosts
            self.probe(rec, hosts[src], hosts[dst], [10000 + newest],
                       self.network)
        if self.live:
            self.teardown_oldest(rec)


# -- day2_ring --------------------------------------------------------------------


class Day2Ring(Workload):
    name = "day2_ring"
    why = ("the other writers of the same layers: update, link failure + "
           "heal re-embed, full fan-out and journal recovery on a 6-switch "
           "ring, so a deploy gain that costs day-2 operations is visible")
    headline = "update"
    control_in_window = False
    resident = 12
    cycles_per_10s = 140
    SWITCHES = 6
    RECOVER_EVERY = 5
    setups = 12
    quick_sizes = {"resident": 3, "min_cycles": 4, "RECOVER_EVERY": 2,
                   "setups": 1}

    def build(self) -> None:
        count = self.SWITCHES
        self.network = Network()
        self.simulator = self.network.simulator
        ids = [f"ring-bb{i}" for i in range(count)]
        links = [(ids[i], ids[(i + 1) % count]) for i in range(count)]
        self.domain = EmulatedDomain("emu", self.network, node_ids=ids,
                                     links=links)
        self.domain.add_sap("sap1", ids[0])
        self.domain.add_sap("sap2", ids[count // 2])
        # the two arcs between the SAP switches: failing a link of the
        # arc the chains use moves all of them onto the other
        self.arcs = (links[:count // 2], links[count // 2:])
        self.directions = _shuffled(self.rng,
                                    [False, True] * (self.resident // 2 + 1))
        self.journal = IntentJournal(checkpoint_every=16)
        escape = EscapeOrchestrator("day2", simulator=self.simulator,
                                    journal=self.journal)
        escape.add_domain(EmuDomainAdapter("emu", self.domain))
        self.levels = [escape]
        #: service index -> (NF count, bandwidth), toggled by update
        self.versions: dict[int, tuple[int, float]] = {}
        self.built()

    def endpoints(self, index: int) -> tuple[str, str]:
        reverse = self.directions[index % len(self.directions)]
        return ("sap2", "sap1") if reverse else ("sap1", "sap2")

    def service(self, index: int) -> NFFG:
        nf_count, bandwidth = self.versions[index]
        src, dst = self.endpoints(index)
        prefix = f"day{index}"
        builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
        names = []
        for nf_type in ("firewall", "nat")[:nf_count]:
            names.append(f"{prefix}-{nf_type}")
            builder.nf(names[-1], nf_type)
        builder.chain(src, *names, dst, bandwidth=bandwidth,
                      flowclass=f"tp_dst={10000 + index}")
        return builder.build().sg

    def deploy_next(self, rec):
        index = self.next_index
        self.next_index += 1
        self.versions[index] = (1, 2.0)
        report = rec.op("deploy", self.top.deploy, self.service(index))
        if report.success:
            self.live.append(index)
        return report

    def teardown_oldest(self, rec) -> None:
        rec.op("teardown", self.top.teardown, f"day{self.live.popleft()}")

    def cycle(self, rec, index: int) -> None:
        target = self.rng.choice(list(self.live))
        nf_count, bandwidth = self.versions[target]
        self.versions[target] = (3 - nf_count, 7.0 - bandwidth)
        rec.op("update", self.top.update, self.service(target))

        a, b = self.rng.choice(self.arcs[index % 2])
        self.network.fail_link(a, b)
        rec.op("heal", self.top.heal)
        hosts = self.domain.sap_hosts
        for src, dst in (("sap1", "sap2"), ("sap2", "sap1")):
            chains = [i for i in self.live if self.endpoints(i) == (src, dst)]
            self.probe(rec, hosts[src], hosts[dst],
                       [10000 + i for i in chains], self.network)
        self.network.restore_link(a, b)
        rec.op("heal_noop", self.top.heal)

        if index % self.RECOVER_EVERY == self.RECOVER_EVERY - 1:
            report = rec.op("recover", recover, self.journal,
                            list(self.top.cal.adapters.values()),
                            dry_run=True, simulator=self.simulator)
            rec.check(sorted(report.restored)
                      == sorted(self.top.deployed_services()),
                      "recover(): restored service set differs from the "
                      "live one")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig1Resident, Fig1Empty, Federation,
                              UnifyStack3, ChainTraffic, Day2Ring)}
