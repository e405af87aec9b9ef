"""Engine-level tests for the static-analysis rule catalog."""

import pytest

from repro.lint import (
    LintEngine,
    Severity,
    default_registry,
    lint_nffg,
    lint_views,
    render_json,
    render_rule_catalog,
    render_text,
)
from repro.mapping.decomposition import (
    DecompositionLibrary,
    default_decomposition_library,
)
from repro.nffg import NFFGBuilder
from repro.nffg.builder import linear_substrate
from repro.nffg.graph import NFFG
from repro.nffg.model import ResourceVector


def rule_ids(diagnostics):
    return diagnostics.rule_ids()


def clean_service():
    return (NFFGBuilder("svc").sap("sap1").sap("sap2")
            .nf("fw", "firewall")
            .chain("sap1", "fw", "sap2", bandwidth=5.0)
            .requirement("sap1", "sap2", max_delay=50.0).build())


class TestRegistry:
    def test_catalog_size_and_unique_ids(self):
        registry = default_registry()
        assert len(registry) >= 12
        ids = [rule.id for rule in registry]
        assert len(ids) == len(set(ids))

    def test_categories_cover_all_layers(self):
        categories = set(default_registry().categories())
        assert {"graph", "resources", "flowrules",
                "multidomain", "decomposition"} <= categories

    def test_select_by_id_and_category(self):
        registry = default_registry()
        assert [r.id for r in registry.select(ids=["NF001"])] == ["NF001"]
        assert all(r.category == "resources"
                   for r in registry.select(categories=["resources"]))

    def test_unknown_rule_lookup_raises(self):
        with pytest.raises(KeyError):
            default_registry().get("ZZ999")


class TestGraphRules:
    def test_clean_service_graph_has_no_findings(self):
        assert lint_nffg(clean_service()) == []

    def test_nf001_dangling_port(self):
        service = clean_service()
        del service.node("sap2").ports["1"]
        diagnostics = lint_nffg(service)
        assert "NF001" in rule_ids(diagnostics)
        finding = [d for d in diagnostics if d.rule_id == "NF001"][0]
        assert finding.severity is Severity.ERROR
        assert finding.node == "sap2"
        assert finding.port == "1"

    def test_nf002_orphan_nf(self):
        service = clean_service()
        service.add_nf("lonely", "nat", num_ports=2)
        diagnostics = lint_nffg(service)
        assert "NF002" in rule_ids(diagnostics)

    def test_nf003_unreachable_sap(self):
        service = clean_service()
        service.add_sap("sap9")
        diagnostics = lint_nffg(service)
        assert "NF003" in rule_ids(diagnostics)

    def test_nf003_quiet_for_tag_bound_sap(self):
        view = linear_substrate(2, id="s")
        assert "NF003" not in rule_ids(lint_nffg(view))

    def test_nf004_hop_on_infra(self):
        view = linear_substrate(2, id="s")
        view.add_sg_hop("s-bb0", "sap-sap1", "s-bb1", "sap-sap2", id="bad")
        diagnostics = lint_nffg(view)
        assert "NF004" in rule_ids(diagnostics)

    def test_nf005_requirement_with_ghost_hop(self):
        service = clean_service()
        service.requirements[0].sg_path.append("ghost")
        diagnostics = lint_nffg(service)
        assert "NF005" in rule_ids(diagnostics)


class TestResourceRules:
    def test_rs001_negative_nf_demand(self):
        service = clean_service()
        service.nf("fw").resources = ResourceVector(cpu=-1.0)
        diagnostics = lint_nffg(service)
        assert "RS001" in rule_ids(diagnostics)

    def test_rs001_negative_link_bandwidth(self):
        view = linear_substrate(2, id="s")
        view.links[0].bandwidth = -10.0
        assert "RS001" in rule_ids(lint_nffg(view))

    def test_rs002_overcommitted_infra(self):
        view = linear_substrate(2, id="s", cpu=1.0,
                                supported_types=["firewall"])
        view.add_nf("fat", "firewall",
                    resources=ResourceVector(cpu=8.0, mem=64.0), num_ports=1)
        view.place_nf("fat", "s-bb0")
        diagnostics = lint_nffg(view)
        assert "RS002" in rule_ids(diagnostics)

    def test_rs003_oversubscribed_link(self):
        view = linear_substrate(2, id="s")
        view.links[0].reserved = view.links[0].bandwidth + 1.0
        assert "RS003" in rule_ids(lint_nffg(view))

    def test_rs004_infeasible_delay_budget(self):
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("fw", "firewall")
                   .hop("sap1", "fw", delay=40.0)
                   .hop("fw", "sap2", delay=40.0)
                   .requirement("sap1", "sap2", max_delay=50.0).build())
        diagnostics = lint_nffg(service)
        found = [d for d in diagnostics if d.rule_id == "RS004"]
        assert found and found[0].severity is Severity.WARNING

    def test_rs004_negative_budget_is_error(self):
        service = clean_service()
        service.requirements[0].max_delay = -5.0
        found = [d for d in lint_nffg(service) if d.rule_id == "RS004"]
        assert found and found[0].severity is Severity.ERROR

    def test_rs005_zero_bandwidth_link_is_info(self):
        view = linear_substrate(2, id="s")
        view.links[0].bandwidth = 0.0
        view.links[0].reserved = 0.0
        found = [d for d in lint_nffg(view) if d.rule_id == "RS005"]
        assert found and found[0].severity is Severity.INFO


class TestFlowruleRules:
    def test_fr001_bad_output_port(self):
        view = linear_substrate(2, id="s")
        view.infras[0].port("sap-sap1").add_flowrule(
            match="in_port=sap-sap1", action="output=ghost")
        diagnostics = lint_nffg(view)
        assert "FR001" in rule_ids(diagnostics)

    def test_fr002_two_port_forwarding_loop(self):
        view = linear_substrate(2, id="s")
        infra = view.infras[0]
        infra.port("sap-sap1").add_flowrule(
            match="in_port=sap-sap1", action="output=to-s-bb1")
        infra.port("to-s-bb1").add_flowrule(
            match="in_port=to-s-bb1", action="output=sap-sap1")
        diagnostics = lint_nffg(view)
        assert "FR002" in rule_ids(diagnostics)

    def test_fr002_quiet_for_tagged_chain(self):
        # mapping-layer style: ingress tags, egress untags — no loop
        view = linear_substrate(2, id="s")
        infra = view.infras[0]
        infra.port("sap-sap1").add_flowrule(
            match="in_port=sap-sap1", action="output=to-s-bb1;tag=h1")
        infra.port("to-s-bb1").add_flowrule(
            match="in_port=to-s-bb1;tag=h1", action="output=sap-sap1;untag")
        assert "FR002" not in rule_ids(lint_nffg(view))

    def test_fr003_conflicting_duplicate_match(self):
        view = linear_substrate(2, id="s")
        port = view.infras[0].port("sap-sap1")
        port.add_flowrule(match="in_port=sap-sap1;flowclass=tp_dst=80",
                          action="output=to-s-bb1")
        port.add_flowrule(match="in_port=sap-sap1;flowclass=tp_dst=80",
                          action="output=sap-sap1")
        found = [d for d in lint_nffg(view) if d.rule_id == "FR003"]
        assert found and found[0].severity is Severity.WARNING

    def test_fr003_pure_duplicate_is_info(self):
        view = linear_substrate(2, id="s")
        port = view.infras[0].port("sap-sap1")
        for _ in range(2):
            port.add_flowrule(match="in_port=sap-sap1",
                              action="output=to-s-bb1")
        found = [d for d in lint_nffg(view) if d.rule_id == "FR003"]
        assert found and found[0].severity is Severity.INFO


class TestMultiDomainRules:
    def test_md001_triple_tag(self):
        view = linear_substrate(3, id="s")
        for index, infra in enumerate(view.infras):
            infra.add_port(f"t{index}", sap_tag="x")
        diagnostics = lint_nffg(view)
        assert "MD001" in rule_ids(diagnostics)

    def test_md002_unpaired_handoff_is_info(self):
        view = linear_substrate(2, id="s")
        view.infras[0].add_port("handoff", sap_tag="to-elsewhere")
        found = [d for d in lint_nffg(view) if d.rule_id == "MD002"]
        assert found and found[0].severity is Severity.INFO

    def test_md003_cross_view_node_collision(self):
        a = NFFG(id="dom-a")
        a.add_infra("bb", num_ports=1)
        b = NFFG(id="dom-b")
        b.add_infra("bb", num_ports=1)
        diagnostics = lint_views([a, b])
        assert "MD003" in rule_ids(diagnostics)

    def test_md004_tag_tripled_across_views(self):
        views = []
        for index in range(3):
            view = NFFG(id=f"dom-{index}")
            infra = view.add_infra(f"bb{index}")
            infra.add_port("h", sap_tag="x")
            views.append(view)
        diagnostics = lint_views(views)
        assert "MD004" in rule_ids(diagnostics)

    def test_single_view_has_no_cross_view_findings(self):
        diagnostics = lint_views([linear_substrate(2, id="a")])
        assert not {d.rule_id for d in diagnostics} & {"MD003", "MD004"}

    def test_md005_slice_rule_references_foreign_port(self):
        # "bb" exists in both slices, but the port the rule outputs to
        # was only kept in dom-b's slice — the finding names the view
        # that does carry it
        a = NFFG(id="dom-a")
        infra_a = a.add_infra("bb", num_ports=1)
        infra_a.port("1").add_flowrule("in_port=1", "output=uplink")
        b = NFFG(id="dom-b")
        b.add_infra("bb2", num_ports=1).add_port("uplink")
        found = [d for d in lint_views([a, b]) if d.rule_id == "MD005"]
        assert found and "absent from this domain view" in found[0].message

    def test_md005_names_the_view_that_has_the_port(self):
        a = NFFG(id="dom-a")
        infra_a = a.add_infra("bb", num_ports=1)
        infra_a.port("1").add_flowrule("in_port=1", "output=uplink")
        b = NFFG(id="dom-b")
        b.add_infra("bb", num_ports=1).add_port("uplink")
        found = [d for d in lint_views([a, b]) if d.rule_id == "MD005"]
        assert found and "dom-b" in found[0].message

    def test_md005_quiet_on_self_contained_slices(self):
        view = linear_substrate(2, id="s")
        view.infras[0].port("sap-sap1").add_flowrule(
            "in_port=sap-sap1", "output=to-s-bb1")
        found = [d for d in lint_views([view]) if d.rule_id == "MD005"]
        assert not found


class TestDecompositionRules:
    def test_dc001_abstract_type_without_rule(self):
        library = DecompositionLibrary()
        library.mark_abstract("vCPE")
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("cpe", "vCPE")
                   .chain("sap1", "cpe", "sap2").build())
        diagnostics = lint_nffg(service, decomposition_library=library)
        assert "DC001" in diagnostics.rule_ids()

    def test_dc001_quiet_with_default_library(self):
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("cpe", "vCPE")
                   .chain("sap1", "cpe", "sap2").build())
        diagnostics = lint_nffg(
            service, decomposition_library=default_decomposition_library())
        assert "DC001" not in diagnostics.rule_ids()

    def test_dc002_extra_wired_port_on_abstract_nf(self):
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2").sap("sap3")
                   .nf("cpe", "vCPE", num_ports=3)
                   .chain("sap1", "cpe", "sap2").build())
        service.add_sg_hop("cpe", "3", "sap3", "1", id="side-tap")
        diagnostics = lint_nffg(
            service, decomposition_library=default_decomposition_library())
        assert "DC002" in diagnostics.rule_ids()

    def test_rules_silent_without_library(self):
        service = (NFFGBuilder("svc").sap("sap1").sap("sap2")
                   .nf("cpe", "vCPE")
                   .chain("sap1", "cpe", "sap2").build())
        diagnostics = lint_nffg(service)
        assert not {d.rule_id for d in diagnostics} & {"DC001", "DC002"}


class TestEngineAndReporting:
    def test_findings_sorted_most_severe_first(self):
        service = clean_service()
        service.add_sap("sap9")                       # NF003 warning
        service.nf("fw").resources = ResourceVector(cpu=-1.0)  # RS001 error
        diagnostics = lint_nffg(service)
        severities = [d.severity for d in diagnostics]
        assert severities == sorted(severities, reverse=True)

    def test_restricted_rule_selection(self):
        service = clean_service()
        service.add_sap("sap9")
        engine = LintEngine(rules=default_registry().select(ids=["NF001"]))
        assert engine.run(service) == []

    def test_render_text_mentions_rule_and_location(self):
        service = clean_service()
        service.add_sap("sap9")
        text = render_text(lint_nffg(service), source="svc")
        assert "NF003" in text
        assert "node sap9" in text
        assert "1 warning(s)" in text

    def test_render_json_is_machine_readable(self):
        import json

        service = clean_service()
        service.add_sap("sap9")
        payload = json.loads(render_json(lint_nffg(service), source="svc"))
        assert payload["source"] == "svc"
        assert payload["summary"]["warning"] == 1
        assert payload["diagnostics"][0]["rule"] == "NF003"

    def test_rule_catalog_lists_every_rule(self):
        catalog = render_rule_catalog()
        for rule in default_registry():
            assert rule.id in catalog

    def test_diagnostic_list_helpers(self):
        service = clean_service()
        service.add_sap("sap9")
        service.nf("fw").resources = ResourceVector(cpu=-1.0)
        diagnostics = lint_nffg(service)
        assert diagnostics.worst() is Severity.ERROR
        assert diagnostics.at_least(Severity.ERROR) == diagnostics.errors
        assert set(diagnostics.by_rule()) == diagnostics.rule_ids()
