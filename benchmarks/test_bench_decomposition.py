"""DEMO-iii(b) — NF decomposition.

Reproduces the shape of ref [2] (Sahhaf et al., NetSoft'15): selecting
among alternative NF decompositions during mapping improves the request
acceptance ratio and lowers resource cost compared to fixed single-
implementation mapping.  Workload: a stream of vCPE/dpi/lb-web tenants
over a substrate whose domains support different component images.
"""

import pytest

from benchmarks.conftest import emit
from repro.mapping import (
    GreedyEmbedder,
    default_decomposition_library,
)
from repro.mapping.decomposition import map_with_decomposition
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate
from repro.orchestration import ResourceOrchestrator
from repro.sim import SeededRandom
from tests.mapped import mapped_graph

ABSTRACT_TYPES = ["vCPE", "dpi", "lb-web"]
#: per-node supported component images: intentionally heterogeneous so
#: no single decomposition option fits everywhere
IMAGE_SETS = [
    ["firewall", "nat", "classifier", "analyzer"],
    ["fw-nat-combo", "loadbalancer", "webserver"],
    ["firewall", "nat", "dpi", "loadbalancer", "webserver"],
]


def _substrate(num_nodes=12, seed=3, cpu=6.0):
    substrate = mesh_substrate(num_nodes, degree=3, seed=seed, cpu=cpu,
                               supported_types=["firewall"])
    rng = SeededRandom(seed)
    for infra in substrate.infras:
        infra.supported_types = set(rng.choice(IMAGE_SETS))
    return substrate


def _tenant(index: int, rng: SeededRandom):
    abstract = rng.choice(ABSTRACT_TYPES)
    request_id = f"tenant{index}"
    return (NFFGBuilder(request_id).sap("sap1").sap("sap2")
            .nf(f"{request_id}-nf", abstract, num_ports=2)
            .chain("sap1", f"{request_id}-nf", "sap2", bandwidth=2.0)
            .build())


def _run_workload(decomposition: bool, tenants: int = 30, seed: int = 7):
    substrate = _substrate()
    library = default_decomposition_library() if decomposition else None
    ro = ResourceOrchestrator(GreedyEmbedder(),
                              decomposition_library=library)
    rng = SeededRandom(seed)
    accepted = 0
    total_cost = 0.0
    view = substrate
    for index in range(tenants):
        service = _tenant(index, rng)
        result = ro.orchestrate(service, view)
        if result.success:
            accepted += 1
            total_cost += result.cost
            # consume resources for subsequent tenants
            view = mapped_graph(view, result)
    return accepted, total_cost, tenants


def test_bench_decomposition_acceptance(benchmark):
    """The DEMO-iii(b) table: acceptance and cost, decomposition on/off."""
    rows = []
    for enabled in (False, True):
        accepted, cost, tenants = _run_workload(enabled)
        rows.append({
            "decomposition": "on" if enabled else "off",
            "tenants": tenants,
            "accepted": accepted,
            "acceptance_ratio": accepted / tenants,
            "mean_cost_per_accepted": (cost / accepted) if accepted else 0.0,
        })
    emit("DEMO-iii(b): NF decomposition improves acceptance (ref [2] shape)",
         rows)
    off_row = next(r for r in rows if r["decomposition"] == "off")
    on_row = next(r for r in rows if r["decomposition"] == "on")
    # without decomposition only the directly-deployable tenants embed
    # (dpi where a dpi image happens to exist); with it most of the
    # workload does — the acceptance-ratio shape of ref [2]
    assert off_row["acceptance_ratio"] <= 0.5
    assert on_row["acceptance_ratio"] >= 0.8
    assert on_row["accepted"] > 2 * off_row["accepted"]
    benchmark.pedantic(lambda: _run_workload(True, tenants=10),
                       rounds=2, iterations=1)


@pytest.mark.parametrize("option_count", [1, 2])
def test_bench_decomposition_option_search(benchmark, option_count):
    """Cost of trying up to N decomposition options per request."""
    substrate = _substrate()
    library = default_decomposition_library()
    service = (NFFGBuilder("probe").sap("sap1").sap("sap2")
               .nf("probe-nf", "vCPE")
               .chain("sap1", "probe-nf", "sap2", bandwidth=2.0).build())
    embedder = GreedyEmbedder()
    result = benchmark(map_with_decomposition, embedder, service,
                       substrate, library, option_count)
    if option_count >= 2:
        assert result.success


def test_bench_alternative_choice_under_pressure(benchmark):
    """When nodes with the cheap option fill up, mapping falls back to
    the alternative decomposition — choice is exercised, not just
    configured."""
    accepted_options: dict[str, int] = {}
    substrate = _substrate(num_nodes=8, cpu=4.0)
    library = default_decomposition_library()
    view = substrate
    rng = SeededRandom(11)
    for index in range(20):
        request_id = f"vcpe{index}"
        service = (NFFGBuilder(request_id).sap("sap1").sap("sap2")
                   .nf(f"{request_id}-nf", "vCPE")
                   .chain("sap1", f"{request_id}-nf", "sap2",
                          bandwidth=1.0).build())
        result = map_with_decomposition(GreedyEmbedder(), service, view,
                                        library)
        if not result.success:
            continue
        option = list(result.decompositions.values())[0]
        accepted_options[option] = accepted_options.get(option, 0) + 1
        view = mapped_graph(view, result)
    emit("DEMO-iii(b): decomposition options chosen under load",
         [{"option": option, "times_chosen": count}
          for option, count in sorted(accepted_options.items())])
    assert len(accepted_options) >= 2  # both options actually used
    benchmark(lambda: default_decomposition_library().options_for("vCPE"))
