"""Property-based tests: any successful embedding must be sound.

The independent validator re-derives capacity, routing, bandwidth and
delay constraints, so "success implies zero violations" is a strong
invariant to fuzz across random substrates and random chains.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mapping import (
    BacktrackingEmbedder,
    GreedyEmbedder,
    validate_mapping,
)
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate

NF_TYPES = ["firewall", "nat", "dpi", "monitor"]


@st.composite
def substrate_and_service(draw):
    substrate = mesh_substrate(
        draw(st.integers(4, 14)), degree=3,
        seed=draw(st.integers(0, 50)),
        cpu=draw(st.floats(2, 32, allow_nan=False)),
        link_bw=draw(st.floats(50, 2000, allow_nan=False)),
        supported_types=NF_TYPES)
    chain_length = draw(st.integers(1, 4))
    builder = NFFGBuilder("svc").sap("sap1").sap("sap2")
    names = []
    for index in range(chain_length):
        name = f"nf{index}"
        builder.nf(name, draw(st.sampled_from(NF_TYPES)),
                   cpu=draw(st.floats(0.5, 4, allow_nan=False)))
        names.append(name)
    bandwidth = draw(st.floats(0, 100, allow_nan=False))
    builder.chain("sap1", *names, "sap2", bandwidth=bandwidth)
    if draw(st.booleans()):
        builder.requirement("sap1", "sap2",
                            max_delay=draw(st.floats(5, 500,
                                                     allow_nan=False)))
    return substrate, builder.build()


@given(substrate_and_service(),
       st.sampled_from([GreedyEmbedder, BacktrackingEmbedder]))
@settings(max_examples=40, deadline=None)
def test_successful_mappings_are_always_valid(case, embedder_cls):
    substrate, service = case
    result = embedder_cls().map(service, substrate)
    if result.success:
        violations = validate_mapping(service, substrate, result)
        assert violations == [], violations


@given(substrate_and_service())
@settings(max_examples=30, deadline=None)
def test_mapping_does_not_mutate_inputs(case):
    substrate, service = case
    substrate_before = substrate.summary()
    reserved_before = [link.reserved for link in substrate.links]
    service_before = service.summary()
    GreedyEmbedder().map(service, substrate)
    assert substrate.summary() == substrate_before
    assert [link.reserved for link in substrate.links] == reserved_before
    assert service.summary() == service_before


@given(substrate_and_service())
@settings(max_examples=30, deadline=None)
def test_greedy_and_backtrack_agree_on_feasibility_direction(case):
    """Backtracking explores a superset of greedy's choices: whenever
    greedy succeeds, backtracking must too."""
    substrate, service = case
    greedy = GreedyEmbedder().map(service, substrate)
    if greedy.success:
        backtrack = BacktrackingEmbedder().map(service, substrate)
        assert backtrack.success, backtrack.failure_reason
