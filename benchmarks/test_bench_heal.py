"""HEAL-1: a link flap is an edit, not a rebuild.

A 6-switch emulated ring with its two SAPs on opposite switches carries
12 resident one-NF chains, half in each direction (seeded order).  Each
cycle fails a link of one of the two arcs between the SAPs (alternating
arcs), heals, restores the link, heals again and updates a drawn chain
(one NF <-> two, 2 <-> 5 Mbps) — the ``day2_ring`` benchmark's cycle,
rebuilt here without importing ``bench/``.

Exact gates, per flap and heal:

- no NF is started or stopped: every NF host survived, so every broken
  chain keeps its placements and only the hops that lost a link are
  routed again;
- no mapping node is examined: nothing is placed;
- at most 7 FlowMods per re-routed hop (old and new path of a hop that
  moves to the other arc cover 8 switches, and the first switch's entry
  is rewritten in place);

and over a fail -> heal -> restore -> heal -> update cycle no
``dov.rebuild`` and no ``cal.view.slice``: the links-only topology
moves are folded into the live views, and ``update()`` drops derived
state only when a fetched view differs.

Before heal re-routed and the CAL folded links-only moves (commit
a9eeeb9), the ``day2_ring`` benchmark (seed 7, 100 cycles) read per
heal 1.34 NFs restarted, 96.8 mapping nodes examined, 83.8 FlowMods and
1.10 placements moved, and per cycle 2.20 ``dov.rebuild`` and 2.00
``cal.view.slice``.
"""

from __future__ import annotations

import random

from benchmarks.conftest import SMOKE, emit
from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.orchestration import EmuDomainAdapter
from repro.orchestration.escape import EscapeOrchestrator
from repro.perf import counters
from repro.service import ServiceRequestBuilder

SWITCHES = 6
RESIDENT = 12


def _chain(index: int, reverse: bool, nfs: int = 1, bandwidth: float = 2.0):
    src, dst = ("sap2", "sap1") if reverse else ("sap1", "sap2")
    prefix = f"day{index}"
    builder = ServiceRequestBuilder(prefix).sap(src).sap(dst)
    names = [f"{prefix}-{kind}" for kind in ("firewall", "nat")[:nfs]]
    for name, kind in zip(names, ("firewall", "nat")):
        builder.nf(name, kind)
    return builder.chain(src, *names, dst, bandwidth=bandwidth,
                         flowclass=f"tp_dst={10000 + index}").build().sg


def test_bench_link_flap_heal_is_an_edit():
    network = Network()
    ids = [f"ring-bb{i}" for i in range(SWITCHES)]
    links = [(ids[i], ids[(i + 1) % SWITCHES]) for i in range(SWITCHES)]
    domain = EmulatedDomain("emu", network, node_ids=ids, links=links)
    domain.add_sap("sap1", ids[0])
    domain.add_sap("sap2", ids[SWITCHES // 2])
    arcs = (links[:SWITCHES // 2], links[SWITCHES // 2:])
    escape = EscapeOrchestrator("ring", simulator=network.simulator)
    orchestrator = escape.add_domain(EmuDomainAdapter("emu",
                                                      domain)).orchestrator
    rng = random.Random(7)
    reverse = rng.sample([False, True] * (RESIDENT // 2), RESIDENT)
    versions = {index: (1, 2.0) for index in range(RESIDENT)}
    for index in range(RESIDENT):
        assert escape.deploy(_chain(index, reverse[index])).success

    nf_events = []
    notify = orchestrator.notify

    def counting(event, data):
        if event in ("vnf-started", "vnf-stopped"):
            nf_events.append((event, data["id"]))
        notify(event, data)

    orchestrator.notify = counting
    rows = []
    for cycle in range(4 if SMOKE else 12):
        before = {service_id: escape.cal.snapshot_service(service_id)[1]
                  for service_id in escape.deployed_services()}
        flow_mods = orchestrator.controller.flow_mods_sent
        starts_stops = len(nf_events)
        rebuilds = counters.get("dov.rebuild")
        slices = counters.get("cal.view.slice")
        arc = arcs[cycle % 2]
        a, b = arc[cycle // 2 % len(arc)]

        network.fail_link(a, b)
        healed = escape.heal()
        assert healed and all(report.success for report in healed.values())
        moved = sum(route != before[service_id].hop_routes.get(hop_id)
                    for service_id, report in healed.items()
                    for hop_id, route in report.mapping.hop_routes.items())
        row = {"cycle": cycle, "healed": len(healed), "hops_moved": moved,
               "flow_mods": orchestrator.controller.flow_mods_sent - flow_mods,
               "nf_starts_stops": len(nf_events) - starts_stops,
               "nodes_examined": sum(report.mapping.nodes_examined
                                     for report in healed.values())}
        network.restore_link(a, b)
        assert escape.heal() == {}
        target = rng.randrange(RESIDENT)
        nfs, bandwidth = versions[target] = (3 - versions[target][0],
                                             7.0 - versions[target][1])
        assert escape.update(_chain(target, reverse[target], nfs,
                                    bandwidth)).success
        row["dov_rebuilds"] = counters.get("dov.rebuild") - rebuilds
        row["view_slices"] = counters.get("cal.view.slice") - slices
        rows.append(row)
        assert escape.cal.verify() == []
    escape.cal.dispatcher.shutdown()
    emit("HEAL-1: a link flap and heal on a 6-switch ring, 12 resident",
         rows)
    for row in rows:
        assert row["hops_moved"] > 0, rows
        assert row["nf_starts_stops"] == 0, rows
        assert row["nodes_examined"] == 0, rows
        assert row["flow_mods"] <= 7 * row["hops_moved"], rows
        assert row["dov_rebuilds"] == 0 and row["view_slices"] == 0, rows
