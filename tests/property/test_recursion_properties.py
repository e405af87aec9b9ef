"""Property-based test: the Unify recursion boundary is lossless.

For arbitrary chain-shaped services mapped onto a single-BiS-BiS view,
reconstructing the service from the resulting virtual install
(`service_from_virtual_install`) must preserve the SAP/NF topology,
hop ids, flowclasses and bandwidths — otherwise stacked orchestrators
would silently mutate tenant intent.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mapping import GreedyEmbedder
from repro.nffg import NFFGBuilder
from repro.nffg.builder import single_bisbis_view
from repro.orchestration import service_from_virtual_install

from tests.mapped import mapped_graph

NF_TYPES = ["firewall", "nat", "dpi", "monitor", "forwarder"]


@st.composite
def chain_service(draw):
    length = draw(st.integers(1, 5))
    builder = NFFGBuilder("svc").sap("sap1").sap("sap2")
    names = []
    for index in range(length):
        name = f"nf{index}"
        builder.nf(name, draw(st.sampled_from(NF_TYPES)),
                   cpu=draw(st.floats(0.5, 2.0, allow_nan=False)))
        names.append(name)
    flowclass = draw(st.sampled_from(["", "tp_dst=80", "nw_proto=6"]))
    bandwidth = draw(st.floats(0.5, 50.0, allow_nan=False))
    builder.chain("sap1", *names, "sap2", flowclass=flowclass,
                  bandwidth=bandwidth)
    return builder.build()


@given(chain_service())
@settings(max_examples=50, deadline=None)
def test_recursion_boundary_is_lossless(service):
    view = single_bisbis_view(cpu=128.0, sap_tags=["sap1", "sap2"])
    result = GreedyEmbedder().map(service, view)
    assert result.success, result.failure_reason
    rebuilt = service_from_virtual_install(mapped_graph(view, result), "rebuilt")

    assert {nf.id for nf in rebuilt.nfs} == {nf.id for nf in service.nfs}
    assert {sap.id for sap in rebuilt.saps} == \
        {sap.id for sap in service.saps}
    original_hops = {hop.id: hop for hop in service.sg_hops}
    rebuilt_hops = {hop.id: hop for hop in rebuilt.sg_hops}
    assert set(rebuilt_hops) == set(original_hops)
    for hop_id, original in original_hops.items():
        clone = rebuilt_hops[hop_id]
        assert clone.src_node == original.src_node
        assert clone.dst_node == original.dst_node
        assert clone.flowclass == original.flowclass
        assert abs(clone.bandwidth - original.bandwidth) < 1e-9


@given(chain_service())
@settings(max_examples=30, deadline=None)
def test_rebuilt_service_remaps_identically(service):
    """Mapping the reconstructed service again must succeed with the
    same NF placement shape (fixed point of the recursion)."""
    view = single_bisbis_view(cpu=128.0, sap_tags=["sap1", "sap2"])
    first = GreedyEmbedder().map(service, view)
    assert first.success
    rebuilt = service_from_virtual_install(mapped_graph(view, first), "rebuilt")
    second = GreedyEmbedder().map(rebuilt, view)
    assert second.success, second.failure_reason
    assert set(second.nf_placement) == set(first.nf_placement)
