"""Tests for the Unify virtualizer model, conversion and view policies."""

import pytest

from repro.nffg import NFFG, ResourceVector
from repro.nffg.builder import linear_substrate
from repro.nffg.model import DomainType, InfraType
from repro.virtualizer import (
    FullTopologyView,
    SingleBiSBiSView,
    Virtualizer,
    nffg_to_virtualizer,
    virtualizer_to_nffg,
)
from repro.virtualizer.views import FilteredView
from repro.yang import diff_trees, apply_patch


@pytest.fixture
def mapped_substrate():
    sub = linear_substrate(3, id="d", supported_types=["firewall", "nat"])
    sub.add_nf("fw", "firewall",
               resources=ResourceVector(cpu=2, mem=256, storage=2),
               num_ports=2)
    sub.place_nf("fw", "d-bb1")
    sub.infra("d-bb1").port("fw-1").add_flowrule(
        "in_port=fw-1;flowclass=tp_dst=80", "output=to-d-bb2",
        bandwidth=5.0, hop_id="h1")
    return sub


class TestVirtualizerModel:
    def test_build_and_query(self):
        virt = Virtualizer("v1", name="test")
        node = virt.add_node("bb1", cpu=8, mem=1024)
        Virtualizer.add_port(node, "p1")
        Virtualizer.add_port(node, "sap-s1", sap="s1")
        virt.set_supported_nfs("bb1", ["firewall", "nat"])
        assert virt.has_node("bb1")
        assert virt.supported_nfs("bb1") == ["firewall", "nat"]
        ports = {p.get("id"): p.get("port_type")
                 for p in Virtualizer.ports(virt.node("bb1"))}
        assert ports == {"p1": "port-abstract", "sap-s1": "port-sap"}

    def test_nf_instances(self):
        virt = Virtualizer("v1")
        virt.add_node("bb1", cpu=8)
        virt.add_nf_instance("bb1", "fw", type="firewall", cpu=2)
        instances = list(virt.nf_instances("bb1"))
        assert len(instances) == 1
        assert instances[0].get("type") == "firewall"
        virt.remove_nf_instance("bb1", "fw")
        assert not list(virt.nf_instances("bb1"))

    def test_flowentries(self):
        virt = Virtualizer("v1")
        virt.add_node("bb1")
        virt.add_flowentry("bb1", "fe1", port="p1", out="p2",
                           match="in_port=p1", action="output=p2",
                           bandwidth=10.0, hop_id="h1")
        entries = list(virt.flowentries("bb1"))
        assert entries[0].get("out") == "p2"
        assert entries[0].get("hop_id") == "h1"

    def test_links(self):
        virt = Virtualizer("v1")
        virt.add_node("a")
        virt.add_node("b")
        virt.add_link("l1", src_node="a", src_port="1", dst_node="b",
                      dst_port="1", delay=2.0, bandwidth=100.0)
        links = list(virt.links())
        assert links[0].get("src_node") == "a"

    def test_dict_roundtrip(self):
        virt = Virtualizer("v1")
        node = virt.add_node("bb1", cpu=4)
        Virtualizer.add_port(node, "p1")
        virt.add_nf_instance("bb1", "fw", type="firewall")
        clone = Virtualizer.from_dict(virt.to_dict())
        assert clone.to_dict() == virt.to_dict()

    def test_validate(self):
        virt = Virtualizer("v1")
        assert virt.validate() == []

    def test_tree_diffable(self):
        virt = Virtualizer("v1")
        virt.add_node("bb1", cpu=4)
        changed = virt.copy()
        changed.add_nf_instance("bb1", "fw", type="firewall")
        entries = diff_trees(virt.tree, changed.tree)
        assert len(entries) == 1
        patched = virt.copy()
        apply_patch(patched.tree, entries)
        assert patched.to_dict() == changed.to_dict()


class TestConversion:
    def test_roundtrip_structure(self, mapped_substrate):
        virt = nffg_to_virtualizer(mapped_substrate)
        back = virtualizer_to_nffg(virt)
        assert len(back.infras) == 3
        assert back.host_of("fw") == "d-bb1"
        assert back.summary()["flowrules"] == 1
        assert {s.id for s in back.saps} == {"sap1", "sap2"}

    def test_roundtrip_preserves_resources(self, mapped_substrate):
        back = virtualizer_to_nffg(nffg_to_virtualizer(mapped_substrate))
        infra = back.infra("d-bb0")
        assert infra.resources.cpu == 16.0
        assert back.nf("fw").resources.cpu == 2.0

    def test_roundtrip_preserves_supported_types(self, mapped_substrate):
        back = virtualizer_to_nffg(nffg_to_virtualizer(mapped_substrate))
        assert back.infra("d-bb0").supported_types == {"firewall", "nat"}

    def test_roundtrip_preserves_flowrule_fields(self, mapped_substrate):
        back = virtualizer_to_nffg(nffg_to_virtualizer(mapped_substrate))
        _, rule = next(back.infra("d-bb1").iter_flowrules())
        assert rule.hop_id == "h1"
        assert rule.bandwidth == 5.0
        assert "flowclass=tp_dst=80" in rule.match

    def test_single_direction_links(self, mapped_substrate):
        virt = nffg_to_virtualizer(mapped_substrate)
        link_ids = [link.get("id") for link in virt.links()]
        assert len(link_ids) == len(set(link_ids))
        # reverse pairs collapsed: 2 infra-infra links stored once each
        assert len(link_ids) == 2

    def test_a_reread_link_keeps_standing_for_its_pair(self, mapped_substrate):
        before = nffg_to_virtualizer(mapped_substrate)
        forward = next(link for link in mapped_substrate.links
                       if not link.id.endswith("-back"))
        # what refresh_members does to a touched link: last in the graph
        mapped_substrate.remove_edge(forward.id)
        mapped_substrate.add_edge_copy(forward)
        after = nffg_to_virtualizer(mapped_substrate)
        assert diff_trees(before.tree, after.tree) == []

    def test_entry_without_hop_id_is_keyed_by_port_and_place(
            self, mapped_substrate):
        infra = mapped_substrate.infra("d-bb1")
        infra.port("fw-2").add_flowrule("in_port=fw-2", "output=to-d-bb2")
        infra.port("fw-2").add_flowrule("in_port=fw-2;flowclass=tp_dst=22",
                                        "output=to-d-bb0")
        virt = nffg_to_virtualizer(mapped_substrate)
        assert sorted(entry.get("id") for entry in virt.flowentries("d-bb1")) \
            == ["fw-1:h1", "fw-2#1", "fw-2#2"]
        # (decoding get-or-creates empty containers in the tree it reads)
        back = virtualizer_to_nffg(nffg_to_virtualizer(mapped_substrate))
        assert [(rule.match, rule.action, rule.hop_id)
                for rule in back.infra("d-bb1").port("fw-2").flowrules] == [
            ("in_port=fw-2", "output=to-d-bb2", None),
            ("in_port=fw-2;flowclass=tp_dst=22", "output=to-d-bb0", None)]
        assert nffg_to_virtualizer(back).tree.to_json() == virt.tree.to_json()
        # neighbours come and go: no entry is renamed
        infra.port("fw-1").flowrules.clear()
        infra.port("to-d-bb0").add_flowrule("in_port=to-d-bb0", "output=fw-1")
        churned = nffg_to_virtualizer(mapped_substrate)
        assert sorted((entry.op.value, entry.path.rpartition("/")[2])
                      for entry in diff_trees(virt.tree, churned.tree)) == [
            ("create", "flowentry[to-d-bb0#1]"),
            ("delete", "flowentry[fw-1:h1]")]

    def test_infra_type_preserved(self):
        view = NFFG(id="v")
        view.add_infra("sw", infra_type=InfraType.SDN_SWITCH,
                       domain=DomainType.SDN)
        back = virtualizer_to_nffg(nffg_to_virtualizer(view))
        assert back.infra("sw").infra_type == InfraType.SDN_SWITCH
        assert back.infra("sw").domain == DomainType.SDN


class TestViewPolicies:
    def test_full_topology_view(self, mapped_substrate):
        view = FullTopologyView().build_view(mapped_substrate, "client")
        assert view.id == "client"
        assert len(view.infras) == 3
        # remaining resources: fw consumed 2 cpu on bb1
        assert view.infra("d-bb1").resources.cpu == 14.0

    def test_single_bisbis_aggregates(self, mapped_substrate):
        view = SingleBiSBiSView().build_view(mapped_substrate, "client")
        assert len(view.infras) == 1
        infra = view.infras[0]
        assert infra.resources.cpu == 16 * 3 - 2
        assert infra.supported_types == {"firewall", "nat"}
        assert {s.id for s in view.saps} == {"sap1", "sap2"}

    def test_single_bisbis_custom_id(self, mapped_substrate):
        view = SingleBiSBiSView(bisbis_id="mega").build_view(
            mapped_substrate, "client")
        assert view.infras[0].id == "mega"

    def test_single_bisbis_excludes_sdn_switches(self):
        view_src = NFFG(id="v")
        view_src.add_infra("sw", infra_type=InfraType.SDN_SWITCH,
                           resources=ResourceVector(cpu=99))
        view_src.add_infra("bb", resources=ResourceVector(cpu=4))
        view = SingleBiSBiSView().build_view(view_src, "c")
        assert view.infras[0].resources.cpu == 4

    def test_single_bisbis_preserves_handoff_tags(self):
        view_src = NFFG(id="v")
        infra = view_src.add_infra("bb", resources=ResourceVector(cpu=4))
        infra.add_port("sap-peerlink", sap_tag="peerlink")
        view = SingleBiSBiSView().build_view(view_src, "c")
        tags = {p.sap_tag for p in view.infras[0].ports.values()}
        assert "peerlink" in tags

    def test_filtered_view(self, mapped_substrate):
        view = FilteredView(["d-bb0", "d-bb1"]).build_view(
            mapped_substrate, "slice")
        assert {i.id for i in view.infras} == {"d-bb0", "d-bb1"}
        # sap2 attached to removed bb2 loses its link and is dropped
        assert {s.id for s in view.saps} == {"sap1"}

    def test_filtered_view_removes_foreign_nfs(self, mapped_substrate):
        view = FilteredView(["d-bb0"]).build_view(mapped_substrate, "slice")
        assert not view.nfs
