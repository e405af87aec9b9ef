"""EXT-3 — mapping quality x speed matrix on large substrates.

The substrate index (PR 10) exists to keep the mapping layer usable at
thousands of nodes: instead of scanning every infra per NF, embedders
ask ``ctx.candidates(nf, k)`` and get a pruned, capacity-bucketed set.
This matrix measures both axes of that trade on meshes up to 5k nodes:

- **speed** — median map time, full-scan vs index-backed; the gate
  demands the indexed greedy run at the largest size is at least
  ``SPEEDUP_FLOOR`` x faster than the full scan.
- **quality** — mapping cost; the gate demands the indexed run stays
  within ``COST_TOLERANCE`` of the full scan, i.e. pruning must not
  buy speed with materially worse placements.
- **work** — ``nodes_examined`` must grow sub-linearly with substrate
  size when the index is attached (that is the whole point).

A second table counts accepted requests where the two built-in
embedders part ways:

- **scarce** — the scarce-capability trap of
  ``tests/property/test_substrate_index.py``; greedy's scarcity tier
  must accept all eight services.
- **delay-tight** — seeded small-mesh chains under an end-to-end delay
  bound drawn from [1, 12); backtracking must accept at least one
  request more than greedy (and never fewer).
"""

import random
import statistics
import time

from benchmarks.conftest import SMOKE, bench_sizes, emit
from repro.mapping import (BacktrackingEmbedder, GreedyEmbedder,
                           SubstrateIndex, make_embedder)
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate
from tests.property.test_substrate_index import (scarce_acceptance,
                                                 scarce_services)

NF_TYPES = ["firewall", "nat", "dpi", "monitor"]
SIZES = bench_sizes([1000, 2500, 5000], smoke=[150, 400])
CHAIN_LENGTH = 6
REPEATS = 2 if SMOKE else 3
#: indexed cost must stay within this factor of the full-scan cost
COST_TOLERANCE = 1.10
#: full-scan / indexed map-time ratio required at the largest size
SPEEDUP_FLOOR = 5.0
#: seeded delay-tight requests (cheap at any size: 4-14 node meshes)
DELAY_TIGHT_CASES = 500
DELAY_TIGHT_SEED = 1


def _chain(length: int, bandwidth: float = 2.0):
    builder = NFFGBuilder(f"chain{length}").sap("sap1").sap("sap2")
    names = []
    for index in range(length):
        name = f"nf{index}"
        builder.nf(name, NF_TYPES[index % len(NF_TYPES)], cpu=1.0)
        names.append(name)
    builder.chain("sap1", *names, "sap2", bandwidth=bandwidth)
    return builder.build()


def _measure(name, service, substrate, index):
    """Median map time over REPEATS runs with a fresh embedder each."""
    times = []
    result = None
    for _ in range(REPEATS):
        embedder = make_embedder(name)
        started = time.perf_counter()
        result = embedder.map(service, substrate, index=index)
        times.append((time.perf_counter() - started) * 1e3)
        assert result.success, (name, result.failure_reason)
    return statistics.median(times), result


def test_bench_mapping_matrix(benchmark):
    """The EXT-3 table: embedder x substrate size, full-scan vs indexed."""
    rows = []
    summary = []
    examined = {}
    for size in SIZES:
        substrate = mesh_substrate(size, degree=3, seed=7,
                                   supported_types=NF_TYPES)
        service = _chain(CHAIN_LENGTH)
        index = SubstrateIndex()
        index.sync(substrate, epoch=1)
        # One warm-up run so the indexed columns measure steady state —
        # in production the CAL keeps one index (and its delay memo) hot
        # across every request on the same topology epoch.
        make_embedder("greedy").map(service, substrate, index=index)

        full_ms, full_result = _measure("greedy", service, substrate, None)
        indexed_ms, result = _measure("greedy", service, substrate, index)
        for indexed, map_ms, run in ((False, full_ms, full_result),
                                     (True, indexed_ms, result)):
            rows.append({
                "substrate_nodes": size, "embedder": "greedy",
                "indexed": indexed, "map_ms": map_ms, "cost": run.cost,
                "nodes_examined": run.nodes_examined,
            })
        examined[size] = result.nodes_examined
        summary.append({
            "substrate_nodes": size,
            "full_scan_ms": full_ms,
            "indexed_ms": indexed_ms,
            "speedup_x": full_ms / indexed_ms if indexed_ms else float("inf"),
            "full_cost": full_result.cost,
            "indexed_cost": result.cost,
            "full_examined": full_result.nodes_examined,
            "indexed_examined": result.nodes_examined,
        })

    emit("EXT-3: mapping quality x speed matrix (embedder x substrate)",
         rows, group="mapping")
    emit("EXT-3: substrate index speedup (greedy, full-scan vs indexed)",
         summary, group="mapping")

    # quality gate: pruning never trades more than COST_TOLERANCE of cost
    for entry in summary:
        assert entry["indexed_cost"] <= COST_TOLERANCE * entry["full_cost"], (
            "indexed greedy cost regressed past tolerance", entry)

    # work gate: nodes_examined grows sub-linearly with substrate size
    small, large = SIZES[0], SIZES[-1]
    size_ratio = large / small
    examined_ratio = examined[large] / max(1, examined[small])
    assert examined_ratio < size_ratio, (
        "indexed nodes_examined is not sub-linear",
        examined, size_ratio)

    # speed gate (full sizes only; smoke substrates are too small for a
    # stable timing ratio and are gated on work + cost instead)
    if not SMOKE:
        top = summary[-1]
        assert top["speedup_x"] >= SPEEDUP_FLOOR, (
            "indexed greedy speedup below floor at largest size", top)

    warm = SubstrateIndex()
    small_substrate = mesh_substrate(SIZES[0], degree=3, seed=7,
                                     supported_types=NF_TYPES)
    warm.sync(small_substrate, epoch=1)
    benchmark(make_embedder("greedy").map, _chain(CHAIN_LENGTH),
              small_substrate, index=warm)


def _delay_tight_cases():
    """Seeded single-chain requests drawn like the mapping property
    tests' cases, with a delay bound on every chain."""
    rng = random.Random(DELAY_TIGHT_SEED)
    for case in range(DELAY_TIGHT_CASES):
        substrate = mesh_substrate(
            rng.randint(4, 14), degree=3, seed=rng.randint(0, 50),
            cpu=rng.uniform(2, 32), link_bw=rng.uniform(50, 2000),
            supported_types=NF_TYPES)
        builder = NFFGBuilder(f"tight{case}").sap("sap1").sap("sap2")
        names = []
        for position in range(rng.randint(1, 4)):
            names.append(f"nf{position}")
            builder.nf(names[-1], rng.choice(NF_TYPES),
                       cpu=rng.uniform(0.5, 4))
        builder.chain("sap1", *names, "sap2", bandwidth=rng.uniform(0, 100))
        builder.requirement("sap1", "sap2", max_delay=rng.uniform(1, 12))
        yield substrate, builder.build()


def test_bench_mapping_acceptance():
    """The EXT-3 acceptance rows: scarce and delay-tight requests."""
    tight = {"greedy": 0, "backtrack": 0}
    for substrate, service in _delay_tight_cases():
        for name, embedder in (("greedy", GreedyEmbedder()),
                               ("backtrack", BacktrackingEmbedder())):
            tight[name] += embedder.map(service, substrate).success
    rows = [
        {"workload": "scarce", "requests": len(scarce_services()),
         "greedy": scarce_acceptance(GreedyEmbedder()),
         "backtrack": scarce_acceptance(BacktrackingEmbedder())},
        {"workload": "delay-tight", "requests": DELAY_TIGHT_CASES,
         **tight},
    ]
    emit("EXT-3: accepted requests (scarce and delay-tight)", rows,
         group="mapping")
    scarce, delay_tight = rows
    assert scarce["greedy"] == scarce["requests"], scarce
    assert delay_tight["backtrack"] > delay_tight["greedy"], delay_tight
