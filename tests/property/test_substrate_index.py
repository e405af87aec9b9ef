"""Property tests for the substrate index (PR 10).

Three invariants, matching the index's three promises:

1. **Equivalence under churn** — after any interleaving of deploys,
   teardowns, link failures and heals driven through the real
   orchestrator, the incrementally-maintained index must agree exactly
   with a fresh full-scan rebuild of the CAL's remaining view (free
   maps, link bandwidths, and per-type candidate sets).
2. **Pruning is quality-safe** — the index-backed (pruned) greedy run
   must stay feasible wherever the full scan is, with cost inside a
   fixed tolerance, on seeded 200-node substrates.
3. **Greedy protects scarce types** — on a scarce-resource scenario
   (few DPI-capable hosts, placed where greedy's detour score loves
   them) greedy's scarcity tier keeps the DPI hosts for DPI and accepts
   every service, with and without an index.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.emu import EmulatedDomain
from repro.mapping import GreedyEmbedder, SubstrateIndex
from repro.netem import Network
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate
from repro.nffg.graph import NFFG
from repro.nffg.model import DomainType, ResourceVector
from repro.orchestration import EmuDomainAdapter, EscapeOrchestrator

NF_TYPES = ["firewall", "nat", "dpi", "monitor"]
COST_TOLERANCE = 1.10


def _chain(service_id, nf_type="firewall", cpu=1.0, bandwidth=1.0):
    return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
            .nf(f"{service_id}-nf", nf_type, cpu=cpu)
            .chain("sap1", f"{service_id}-nf", "sap2", bandwidth=bandwidth)
            .build())


def _triangle_escape():
    net = Network()
    emu = EmulatedDomain("emu", net, node_ids=["bb0", "bb1", "bb2"],
                         links=[("bb0", "bb1"), ("bb1", "bb2"),
                                ("bb0", "bb2")])
    emu.add_sap("sap1", "bb0")
    emu.add_sap("sap2", "bb1")
    escape = EscapeOrchestrator("esc", simulator=net.simulator)
    escape.add_domain(EmuDomainAdapter("emu", emu))
    return net, escape


def _full_scan_supporters(view: NFFG, functional_type: str) -> set:
    from repro.nffg.model import InfraType
    return {infra.id for infra in view.infras
            if infra.infra_type != InfraType.SDN_SWITCH
            and infra.supports(functional_type)}


@given(st.lists(st.tuples(st.sampled_from(["deploy", "teardown", "heal"]),
                          st.integers(0, 3),
                          st.sampled_from(NF_TYPES)),
                min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_index_matches_full_rescan_after_churn(ops):
    """Incremental apply == fresh rebuild, through real deploy paths."""
    net, escape = _triangle_escape()
    links = [("bb0", "bb1"), ("bb1", "bb2"), ("bb0", "bb2")]
    failed = set()
    for op, slot, nf_type in ops:
        service_id = f"svc{slot}"
        assert escape.cal.verify() == []
        if op == "deploy" and service_id not in escape.deployed_services():
            escape.deploy(_chain(service_id, nf_type))
        elif op == "teardown" and service_id in escape.deployed_services():
            escape.teardown(service_id)
        elif op == "heal":
            # fail one link (keeping the triangle connected), heal,
            # restore — exercises re-map + incremental re-apply
            link = links[slot % len(links)]
            if link not in failed and len(failed) == 0:
                net.fail_link(*link)
                failed.add(link)
                escape.heal()
                assert escape.cal.verify() == []
                net.restore_link(*link)
                failed.discard(link)
                escape.heal()
    view = escape.cal.resource_view()
    assert escape.cal.verify() == []
    index = escape.cal.substrate_index
    assert index.resource is view
    for functional_type in NF_TYPES:
        assert set(index.candidate_ids(functional_type)) == \
            _full_scan_supporters(index.resource, functional_type)


@given(st.integers(0, 19), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_pruned_greedy_feasible_and_cost_bounded(seed, chain_length):
    """Index pruning never loses feasibility and stays cost-close."""
    substrate = mesh_substrate(200, degree=3, seed=seed,
                               supported_types=NF_TYPES)
    builder = NFFGBuilder("svc").sap("sap1").sap("sap2")
    names = []
    for position in range(chain_length):
        name = f"nf{position}"
        builder.nf(name, NF_TYPES[position % len(NF_TYPES)], cpu=1.0)
        names.append(name)
    service = builder.chain("sap1", *names, "sap2", bandwidth=2.0).build()

    full = GreedyEmbedder().map(service, substrate)
    index = SubstrateIndex()
    index.sync(substrate, epoch=0)
    pruned = GreedyEmbedder().map(service, substrate, index=index)

    assert full.success, full.failure_reason
    assert pruned.success, pruned.failure_reason
    assert pruned.cost <= COST_TOLERANCE * full.cost + 1e-9, \
        (pruned.cost, full.cost)


def scarce_substrate() -> NFFG:
    """Two DPI-capable hosts sitting exactly where greedy's detour
    score prefers them (on the SAP attachment points), six generic
    hosts one hop further out."""
    view = NFFG(id="scarce")
    specialist = ["firewall", "nat", "monitor", "dpi"]
    generic = ["firewall", "nat", "monitor"]
    for node_id in ("d0", "d1"):
        view.add_infra(node_id, domain=DomainType.INTERNAL,
                       resources=ResourceVector(cpu=5.0, mem=4096.0,
                                                storage=64.0,
                                                bandwidth=1000.0, delay=0.1),
                       supported_types=specialist)
    for position in range(6):
        view.add_infra(f"g{position}", domain=DomainType.INTERNAL,
                       resources=ResourceVector(cpu=4.0, mem=4096.0,
                                                storage=64.0,
                                                bandwidth=1000.0, delay=0.1),
                       supported_types=generic)

    def connect(a, b, delay):
        node_a, node_b = view.node(a), view.node(b)
        port_a = node_a.add_port(f"to-{b}")
        port_b = node_b.add_port(f"to-{a}")
        view.add_link(a, port_a.id, b, port_b.id,
                      bandwidth=1000.0, delay=delay)

    connect("d0", "d1", delay=0.5)
    for position in range(6):
        connect("d0", f"g{position}", delay=1.0)
        connect("d1", f"g{position}", delay=1.0)
    for sap_id, infra_id in (("sap1", "d0"), ("sap2", "d1")):
        sap = view.add_sap(sap_id)
        infra = view.node(infra_id)
        port = infra.add_port(f"sap-{sap_id}", sap_tag=sap_id)
        view.add_link(sap_id, list(sap.ports)[0], infra_id, port.id,
                      bandwidth=1000.0, delay=0.0)
    return view


def scarce_services() -> list[NFFG]:
    """Six fat firewall services, then two DPI services: a detour-only
    score burns both DPI-capable hosts on firewalls."""
    services = [_chain(f"fw{position}", "firewall", cpu=4.0)
                for position in range(6)]
    services += [_chain(f"dpi{position}", "dpi", cpu=2.0)
                 for position in range(2)]
    return services


def scarce_acceptance(embedder, indexed: bool = True) -> int:
    """Sequential admission of :func:`scarce_services`: map (with the
    live index, or by full scan), fold accepted mappings back in (the
    CAL's deploy loop in miniature)."""
    substrate = scarce_substrate()
    index = SubstrateIndex()
    index.sync(substrate, epoch=0)
    accepted = 0
    for service in scarce_services():
        result = embedder.map(service, substrate,
                              index=index if indexed else None)
        if result.success:
            index.fold(service, result, 1.0)
            accepted += 1
    return accepted


def test_greedy_protects_scarce_types():
    """Greedy keeps the DPI-capable hosts for the DPI services."""
    total = len(scarce_services())
    assert scarce_acceptance(GreedyEmbedder(), indexed=True) == total
    assert scarce_acceptance(GreedyEmbedder(), indexed=False) == total
