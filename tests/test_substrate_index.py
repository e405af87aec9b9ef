"""Unit tests for the substrate index and the embedder registry.

The deeper equivalence/acceptance properties live in
``tests/property/test_substrate_index.py``; these tests pin the
individual mechanisms: bucket maintenance, the residual fold (the free
maps move, the bound view is not written; ``cal.verify()`` is the drift
check and is tested in ``tests/test_cal.py``), copy-on-write ledger seeding,
candidate pruning, the scarce-specialist memo, and registry plumbing.
"""

import types

import pytest

from repro.mapping import (
    EMBEDDERS,
    BacktrackingEmbedder,
    GreedyEmbedder,
    MappingContext,
    SubstrateIndex,
    make_embedder,
    register_embedder,
)
from repro.mapping.base import Embedder
from repro.mapping.index import cpu_class
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate
from repro.nffg.model import InfraType, ResourceVector
from repro.nffg.ops import remaining_nffg

from tests.mapped import mapped_graph

NF_TYPES = ["firewall", "nat", "dpi", "monitor"]


def _substrate(size=12, seed=3, **kwargs):
    kwargs.setdefault("supported_types", NF_TYPES)
    return mesh_substrate(size, degree=3, seed=seed, **kwargs)


def _chain(length=3, service_id="svc", cpu=1.0, bandwidth=2.0):
    builder = NFFGBuilder(service_id).sap("sap1").sap("sap2")
    names = []
    for index in range(length):
        name = f"{service_id}-nf{index}"
        builder.nf(name, NF_TYPES[index % len(NF_TYPES)], cpu=cpu)
        names.append(name)
    builder.chain("sap1", *names, "sap2", bandwidth=bandwidth)
    return builder.build()


def _synced(substrate, epoch=1):
    index = SubstrateIndex()
    index.sync(substrate, epoch=epoch)
    return index


def _matches_rescan(index, substrate, *results):
    """The live index states exactly what a fresh one would over the
    view with ``results`` written into it and netted out — placed NFs
    and link reservations subtracted by ``remaining_nffg`` (up to float
    noise in the capacities)."""
    for result in results:
        substrate = mapped_graph(substrate, result)
    fresh = _synced(remaining_nffg(substrate, include_deployed=False))
    fresh, live = fresh.facts(), index.facts()
    return fresh.keys() == live.keys() and all(
        fresh[name] == pytest.approx(live[name]) for name in fresh)


class TestCpuClass:
    def test_exhausted_is_class_zero(self):
        assert cpu_class(0.0) == 0
        assert cpu_class(-1.0) == 0

    def test_monotone_powers_of_two(self):
        classes = [cpu_class(value) for value in (0.5, 1.0, 2.0, 4.0, 16.0)]
        assert classes == sorted(classes)
        assert cpu_class(3.9) == cpu_class(2.1)
        assert cpu_class(4.1) > cpu_class(3.9)


class TestLifecycle:
    def test_rebuild_populates_free_and_type_sets(self):
        substrate = _substrate()
        index = _synced(substrate)
        assert set(index.free) == {infra.id for infra in substrate.infras}
        for infra in substrate.infras:
            assert index.free[infra.id].cpu == infra.resources.cpu
        for functional_type in NF_TYPES:
            assert index.supporters(functional_type) == len(substrate.infras)
        stats = index.stats()
        assert stats["rebuilds"] == 1
        assert stats["applies"] == 0

    def test_sync_is_idempotent_per_epoch(self):
        substrate = _substrate()
        index = _synced(substrate, epoch=1)
        index.sync(substrate, epoch=1)
        assert index.rebuilds == 1
        index.sync(substrate, epoch=2)  # topology moved
        assert index.rebuilds == 2
        other = _substrate(seed=4)
        index.sync(other, epoch=2)  # different view object
        assert index.rebuilds == 3

    def test_covers_is_identity_based(self):
        substrate = _substrate()
        index = _synced(substrate)
        assert index.covers(substrate)
        assert not index.covers(_substrate())
        index.mark_stale()
        assert not index.covers(substrate)

    def test_stale_index_is_skipped_by_context(self):
        substrate = _substrate()
        index = _synced(substrate)
        index.mark_stale()
        ctx = MappingContext(_chain(), substrate, index=index)
        assert ctx.index is None  # fell back to the full-rescan path

    def test_scarce_specialists_memoised_until_rebuild(self):
        substrate = _substrate()
        index = _synced(substrate)
        assert index.scarce_specialists() == {}  # every host runs all
        specialist = substrate.infras[0]
        for infra in substrate.infras[1:]:
            infra.supported_types -= {"dpi"}
        assert index.scarce_specialists() == {}  # memo kept
        index.relink((), (), epoch=2)
        assert index.scarce_specialists() == {}  # relink keeps it
        index.rebuild(substrate, epoch=3)
        assert index.scarce_specialists() == {specialist.id: {"dpi"}}

    def test_switches_are_excluded_from_candidates(self):
        substrate = _substrate()
        switch = substrate.infras[0]
        switch.infra_type = InfraType.SDN_SWITCH
        index = _synced(substrate)
        assert switch.id in index.free  # still in the ledger seed
        for functional_type in NF_TYPES:
            assert switch.id not in index.candidate_ids(functional_type)


class TestApplyAndVerify:
    def test_apply_roundtrip_restores_free(self):
        substrate = _substrate()
        index = _synced(substrate)
        before = dict(index.free)
        service = _chain()
        result = GreedyEmbedder().map(service, substrate, index=index)
        assert result.success, result.failure_reason
        assert index.fold(service, result, 1.0)
        host = result.nf_placement[f"svc-nf0"]
        assert index.free[host].cpu < before[host].cpu
        # the fold writes no graph: the bound view keeps capacities
        assert substrate.infra(host).resources == before[host]
        assert _matches_rescan(index, substrate, result)
        assert index.fold(service, result, -1.0)
        for infra_id, expected in before.items():
            assert index.free[infra_id].cpu == \
                pytest.approx(expected.cpu)
        assert _matches_rescan(index, substrate)

    def test_unresolvable_id_marks_stale(self):
        substrate = _substrate()
        index = _synced(substrate)
        ghost = types.SimpleNamespace(
            nf_placement={"svc-nf0": "no-such-infra"}, hop_routes={})
        assert not index.fold(_chain(), ghost, 1.0)
        assert not index.covers(substrate)
        assert index.applies == 0

    def test_apply_rebuckets_on_class_change(self):
        substrate = _substrate(cpu=16.0)
        index = _synced(substrate)
        service = _chain(length=1, cpu=12.0)
        result = GreedyEmbedder().map(service, substrate, index=index)
        assert result.success
        host = result.nf_placement["svc-nf0"]
        index.fold(service, result, 1.0)
        assert index._bucket_of[host] == cpu_class(16.0 - 12.0)
        assert index.free[host].cpu == 4.0
        assert substrate.infra(host).resources.cpu == 16.0
        assert _matches_rescan(index, substrate, result)


class TestCandidates:
    def test_full_set_matches_manual_scan(self):
        substrate = _substrate()
        index = _synced(substrate)
        for functional_type in NF_TYPES:
            expected = {infra.id for infra in substrate.infras
                        if infra.supports(functional_type)}
            assert set(index.candidate_ids(functional_type)) == expected

    def test_k_prunes_and_min_cpu_filters(self):
        substrate = _substrate(size=30)
        index = _synced(substrate)
        pruned = index.candidate_ids("dpi", k=5)
        assert len(pruned) == 5
        full = set(index.candidate_ids("dpi"))
        assert set(pruned) <= full
        # demand larger than any host: the bucket floor empties the set
        assert index.candidate_ids("dpi", min_cpu=1e9) == []

    def test_domain_filter(self):
        substrate = _substrate()
        index = _synced(substrate)
        domain = substrate.infras[0].domain.value
        assert set(index.candidate_ids("dpi", domain=domain)) == \
            set(index.candidate_ids("dpi"))
        assert index.candidate_ids("dpi", domain="no-such-domain") == []

    def test_near_anchor_admits_neighbours_first(self):
        substrate = _substrate(size=40)
        index = _synced(substrate)
        anchor = substrate.infras[0].id
        near = index.candidate_ids("dpi", k=8, near=anchor)
        assert anchor in near  # the anchor supports dpi and has capacity

    def test_cow_ledger_does_not_touch_index(self):
        substrate = _substrate()
        index = _synced(substrate)
        service = _chain()
        ctx = MappingContext(service, substrate, index=index)
        assert ctx.index is index
        nf = service.nf("svc-nf0")
        host = substrate.infras[0]
        ctx.ledger.alloc_nf(nf, host.id)
        assert ctx.ledger.free(host.id).cpu < index.free[host.id].cpu
        assert index.free[host.id].cpu == host.resources.cpu
        assert _matches_rescan(index, substrate)


class TestRegistry:
    def test_all_embedders_registered(self):
        built_in = {name for name, cls in EMBEDDERS.items()
                    if cls.__module__.startswith("repro.")}
        assert built_in == {"greedy", "backtrack"}

    def test_make_embedder_unknown_name(self):
        with pytest.raises(ValueError, match="registered"):
            make_embedder("no-such-embedder")

    def test_register_rejects_abstract(self):
        with pytest.raises(ValueError):
            register_embedder(Embedder)


class TestEmbedderAttribution:
    def test_result_carries_embedder_name(self):
        substrate = _substrate()
        service = _chain()
        for cls in (GreedyEmbedder, BacktrackingEmbedder):
            result = cls().map(service, substrate)
            assert result.embedder == cls.name
