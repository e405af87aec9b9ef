"""Tests for whole-graph NFFG operations (merge/remaining)."""

import pytest

from repro.nffg import (
    NFFG,
    NFFGError,
    ResourceVector,
    merge_nffgs,
    remaining_nffg,
)
from repro.nffg.builder import linear_substrate
from repro.nffg.model import DomainType
from repro.nffg.ops import available_resources, consumed_resources


def _domain_view(name: str, domain: DomainType, tag: str) -> NFFG:
    view = NFFG(id=name)
    infra = view.add_infra(f"{name}-bb", domain=domain,
                           resources=ResourceVector(cpu=8, mem=1024,
                                                    storage=16,
                                                    bandwidth=1000))
    infra.add_port(f"sap-{tag}", sap_tag=tag)
    return view


class TestMerge:
    def test_merge_stitches_shared_tags(self):
        a = _domain_view("a", DomainType.INTERNAL, "x")
        b = _domain_view("b", DomainType.SDN, "x")
        merged = merge_nffgs([a, b])
        assert merged.has_edge("interdomain-x")
        assert len(merged.infras) == 2

    def test_merge_keeps_singleton_tags_unstitched(self):
        a = _domain_view("a", DomainType.INTERNAL, "only")
        merged = merge_nffgs([a])
        assert not merged.has_edge("interdomain-only")

    def test_merge_rejects_triple_tags(self):
        views = [_domain_view(n, DomainType.INTERNAL, "x")
                 for n in ("a", "b", "c")]
        with pytest.raises(NFFGError):
            merge_nffgs(views)

    def test_merge_rejects_duplicate_node_ids(self):
        a = _domain_view("a", DomainType.INTERNAL, "x")
        b = NFFG(id="b")
        b.add_infra("a-bb", domain=DomainType.SDN)   # collides with a's infra
        with pytest.raises(NFFGError) as excinfo:
            merge_nffgs([a, b])
        message = str(excinfo.value)
        assert "a-bb" in message
        assert "'a'" in message and "'b'" in message

    def test_merge_rejects_duplicate_sap_ids(self):
        a = linear_substrate(2, id="s1")
        b = linear_substrate(2, id="s2")    # both carry sap1/sap2 SAP nodes
        with pytest.raises(NFFGError, match="globally unique"):
            merge_nffgs([a, b])

    def test_lint_flags_what_merge_rejects(self):
        from repro.lint import lint_views

        a = _domain_view("a", DomainType.INTERNAL, "x")
        b = NFFG(id="b")
        b.add_infra("a-bb", domain=DomainType.SDN)
        diagnostics = lint_views([a, b])
        assert "MD003" in diagnostics.rule_ids()
        with pytest.raises(NFFGError):
            merge_nffgs([a, b])

    def test_merge_preserves_all_nodes_and_edges(self):
        a = linear_substrate(3, id="s1")
        b = _domain_view("b", DomainType.UN, "z")
        merged = merge_nffgs([a, b])
        assert len(merged.infras) == 4
        assert len(merged.saps) == 2


class TestResources:
    def test_consumed_and_available(self):
        sub = linear_substrate(2, id="s", cpu=8)
        sub.add_nf("fw", "firewall",
                   resources=ResourceVector(cpu=3, mem=100, storage=1),
                   num_ports=1)
        sub.place_nf("fw", "s-bb0")
        assert consumed_resources(sub, "s-bb0").cpu == 3
        assert available_resources(sub, "s-bb0").cpu == 5
        assert available_resources(sub, "s-bb1").cpu == 8

    def test_remaining_nffg_reports_free(self):
        sub = linear_substrate(2, id="s", cpu=8)
        sub.add_nf("fw", "firewall", resources=ResourceVector(cpu=3),
                   num_ports=1)
        sub.place_nf("fw", "s-bb0")
        link = sub.links[0]
        link.reserved = 400.0
        remaining = remaining_nffg(sub)
        assert remaining.infra("s-bb0").resources.cpu == 5
        remaining_link = remaining.edge(link.id)
        assert remaining_link.bandwidth == link.bandwidth - 400.0
        assert remaining_link.reserved == 0.0

    def test_remaining_clamps_negative(self):
        sub = linear_substrate(1, id="s", cpu=1)
        sub.add_nf("big", "firewall", resources=ResourceVector(cpu=5),
                   num_ports=1)
        sub.infra("s-bb0").supported_types = set()
        sub.place_nf("big", "s-bb0")
        remaining = remaining_nffg(sub)
        assert remaining.infra("s-bb0").resources.cpu == 0.0
