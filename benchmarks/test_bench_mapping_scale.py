"""EXT-1 — embedding algorithm scalability.

Mapping time vs substrate size and chain length for the two built-in
embedders ("can be extended easily with ... network embedding
algorithms").  The shapes to expect: polynomial growth in substrate
size, near-linear in chain length.  Backtracking ranks hosts by greedy's
score, so where greedy's choices route it finds a mapping of the same
cost; it searches further only when a hop fails to route.
"""

import statistics
import time

import pytest

from benchmarks.conftest import SMOKE, bench_sizes, emit
from repro.mapping import BacktrackingEmbedder, GreedyEmbedder
from repro.mapping.pathcache import PathCache
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate

NF_TYPES = ["firewall", "nat", "dpi", "monitor"]
SIZES = bench_sizes([10, 50, 150], smoke=[10, 30])
EMBEDDERS = {
    "greedy": GreedyEmbedder,
    "backtrack": BacktrackingEmbedder,
}


def _chain(length: int, bandwidth: float = 2.0):
    builder = NFFGBuilder(f"chain{length}").sap("sap1").sap("sap2")
    names = []
    for index in range(length):
        name = f"nf{index}"
        builder.nf(name, NF_TYPES[index % len(NF_TYPES)], cpu=1.0)
        names.append(name)
    builder.chain("sap1", *names, "sap2", bandwidth=bandwidth)
    return builder.build()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", list(EMBEDDERS))
def test_bench_mapping_vs_substrate_size(benchmark, name, size):
    substrate = mesh_substrate(size, degree=3, seed=2,
                               supported_types=NF_TYPES)
    service = _chain(4)
    embedder = EMBEDDERS[name]()
    result = benchmark(embedder.map, service, substrate)
    assert result.success, result.failure_reason


@pytest.mark.parametrize("length", [2, 6, 10])
def test_bench_mapping_vs_chain_length(benchmark, length):
    substrate = mesh_substrate(40, degree=3, seed=2,
                               supported_types=NF_TYPES)
    service = _chain(length)
    result = benchmark(GreedyEmbedder().map, service, substrate)
    assert result.success, result.failure_reason


def test_bench_scalability_table(benchmark):
    """The EXT-1 table: embedder x substrate size -> time and cost."""
    rows = []
    for size in SIZES:
        substrate = mesh_substrate(size, degree=3, seed=2,
                                   supported_types=NF_TYPES)
        service = _chain(4)
        for name, embedder_cls in EMBEDDERS.items():
            embedder = embedder_cls()
            started = time.perf_counter()
            result = embedder.map(service, substrate)
            elapsed_ms = (time.perf_counter() - started) * 1e3
            assert result.success, (name, size, result.failure_reason)
            rows.append({
                "substrate_nodes": size,
                "embedder": name,
                "map_ms": elapsed_ms,
                "cost": result.cost,
                "nodes_examined": result.nodes_examined,
            })
    emit("EXT-1: mapping time vs substrate size", rows, group="mapping")
    # polynomial growth: biggest substrate is slower than smallest for
    # every embedder, but still sub-second
    for name in EMBEDDERS:
        times = [row["map_ms"] for row in rows if row["embedder"] == name]
        assert times[-1] < 2000.0
    benchmark(GreedyEmbedder().map, _chain(4),
              mesh_substrate(SIZES[0], degree=3, seed=2,
                             supported_types=NF_TYPES))


def test_bench_path_cache_repeat(benchmark):
    """Shared path cache across repeated requests on one substrate.

    The second and later requests should route mostly from the memo —
    the table shows uncached vs cached mean mapping time and the
    cache's hit counters.
    """
    size = SIZES[-1]
    substrate = mesh_substrate(size, degree=3, seed=2,
                               supported_types=NF_TYPES)
    service = _chain(4)
    repeats = 3 if SMOKE else 10
    embedder = GreedyEmbedder()

    def _median_ms(cache):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            if cache is None:
                result = embedder.map(service, substrate)
            else:
                result = embedder.map(service, substrate, path_cache=cache)
            times.append((time.perf_counter() - started) * 1e3)
            assert result.success, result.failure_reason
        return statistics.median(times)

    uncached_ms = _median_ms(None)
    cache = PathCache()
    cached_ms = _median_ms(cache)

    emit("EXT-1: shared path cache on repeated requests", [{
        "substrate_nodes": size,
        "repeats": repeats,
        "uncached_ms": uncached_ms,
        "cached_ms": cached_ms,
        "speedup_x": uncached_ms / cached_ms if cached_ms else float("inf"),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    }], group="mapping")
    assert cache.hits > 0
    benchmark(embedder.map, service, substrate, path_cache=cache)
