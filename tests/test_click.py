"""Tests for the Click-style NF execution environment."""

import gc
import weakref

import pytest

from repro.click import (
    ClickConfigError,
    Classifier,
    Counter,
    DPIElement,
    FirewallFilter,
    NATRewriter,
    RateLimiter,
    Tee,
    VlanTagger,
    VlanUntagger,
    compile_config,
    make_nf_process,
)
from repro.click.catalog import NF_CATALOG, click_config_for, supported_functional_types
from repro.click.elements import LatencyProbe, PayloadRewriter
from repro.netem.packet import tcp_packet


class TestElements:
    def test_counter(self):
        counter = Counter("c")
        counter.push(tcp_packet("1.1.1.1", "2.2.2.2", size=300))
        counter.push(tcp_packet("1.1.1.1", "2.2.2.2", size=200))
        assert counter.count == 2 and counter.bytes == 500

    def test_classifier_first_match_wins(self):
        classifier = Classifier("c", ["tp_dst=80", "nw_proto=6"])
        http = classifier.push(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=80))
        assert http[0][0] == 0
        other_tcp = classifier.push(tcp_packet("1.1.1.1", "2.2.2.2",
                                               tp_dst=443))
        assert other_tcp[0][0] == 1

    def test_classifier_default_gate(self):
        classifier = Classifier("c", ["tp_dst=80"])
        packet = tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=22)
        assert classifier.push(packet)[0][0] == 1

    def test_firewall_rules_ordered(self):
        firewall = FirewallFilter("fw", [("deny", "tp_dst=22"),
                                         ("allow", "nw_proto=6")])
        assert firewall.push(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=22)) == []
        assert firewall.denied == 1
        passed = firewall.push(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=80))
        assert passed and "fw" in passed[0][1].metadata["fw_passed"]

    def test_firewall_default_deny(self):
        firewall = FirewallFilter("fw", default="deny")
        assert firewall.push(tcp_packet("1.1.1.1", "2.2.2.2")) == []

    def test_nat_forward_and_reverse(self):
        nat = NATRewriter("nat", public_ip="5.5.5.5")
        out = nat.push(tcp_packet("10.0.0.2", "8.8.8.8", tp_src=1111,
                                  tp_dst=80))
        assert out[0][1].ip_src == "5.5.5.5"
        reply = tcp_packet("8.8.8.8", "5.5.5.5", tp_src=80, tp_dst=1111)
        back = nat.push(reply, in_gate=1)
        assert back[0][1].ip_dst == "10.0.0.2"

    def test_nat_drops_unknown_reply(self):
        nat = NATRewriter("nat")
        reply = tcp_packet("8.8.8.8", "192.0.2.1", tp_src=80, tp_dst=9999)
        assert nat.push(reply, in_gate=1) == []

    def test_dpi_flags_signature(self):
        dpi = DPIElement("dpi", ["malware"])
        bad = dpi.push(tcp_packet("1.1.1.1", "2.2.2.2",
                                  payload="xx malware yy"))
        assert bad[0][0] == 1
        assert bad[0][1].metadata["dpi_flags"] == ["malware"]
        good = dpi.push(tcp_packet("1.1.1.1", "2.2.2.2", payload="clean"))
        assert good[0][0] == 0

    def test_rate_limiter_tokens(self):
        limiter = RateLimiter("rl", rate_pps_ms=1.0, burst=2.0)
        limiter.observe_time(0.0)
        results = [limiter.push(tcp_packet("1.1.1.1", "2.2.2.2"))
                   for _ in range(4)]
        assert [bool(r) for r in results] == [True, True, False, False]
        limiter.observe_time(5.0)  # refill
        assert limiter.push(tcp_packet("1.1.1.1", "2.2.2.2"))

    def test_tee_duplicates(self):
        tee = Tee("t", outputs=3)
        out = tee.push(tcp_packet("1.1.1.1", "2.2.2.2"))
        assert [gate for gate, _ in out] == [0, 1, 2]
        assert out[1][1] is not out[0][1]

    def test_vlan_tag_untag(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2")
        VlanTagger("t", 55).push(packet)
        assert packet.vlan == 55
        VlanUntagger("u").push(packet)
        assert packet.vlan is None

    def test_payload_rewriter(self):
        rewriter = PayloadRewriter("rw", "h264", "vp9")
        out = rewriter.push(tcp_packet("1.1.1.1", "2.2.2.2",
                                       payload="codec=h264"))
        assert out[0][1].payload == "codec=vp9"

    def test_latency_probe(self):
        probe = LatencyProbe("p")
        probe.observe_time(12.0)
        packet = tcp_packet("1.1.1.1", "2.2.2.2")
        packet.created_at = 10.0
        probe.push(packet)
        assert probe.samples == [2.0]


class TestConfigCompiler:
    def test_inline_chain(self):
        process = compile_config(
            "p", "FromPort(0) -> Counter() -> ToPort(1)")
        out = process.push(tcp_packet("1.1.1.1", "2.2.2.2"), 0)
        assert out == [(1, out[0][1])]

    def test_named_elements_and_gates(self):
        config = """
        in :: FromPort(0);
        c :: Classifier(tp_dst=80);
        keep :: ToPort(1);
        drop :: Discard();
        in -> c; c[0] -> keep; c[1] -> [0]drop
        """
        process = compile_config("p", config)
        assert process.push(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=80), 0)
        assert not process.push(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=1), 0)

    def test_unknown_element_type(self):
        with pytest.raises(ClickConfigError):
            compile_config("p", "FromPort(0) -> Quantum() -> ToPort(1)")

    def test_unknown_wire_target(self):
        with pytest.raises(ClickConfigError):
            compile_config("p", "in :: FromPort(0); in -> ghost")

    def test_config_without_fromport_rejected(self):
        with pytest.raises(ClickConfigError):
            compile_config("p", "c :: Counter()")

    def test_duplicate_element_name(self):
        with pytest.raises(ClickConfigError):
            compile_config("p", "x :: FromPort(0); x :: Counter(); ")

    def test_double_wired_gate_rejected(self):
        config = ("in :: FromPort(0); a :: Counter(); b :: Counter(); "
                  "in -> a; in -> b")
        with pytest.raises(ClickConfigError):
            compile_config("p", config)

    def test_push_on_unknown_port_drops(self):
        process = compile_config("p", "FromPort(0) -> ToPort(1)")
        assert process.push(tcp_packet("1.1.1.1", "2.2.2.2"), 7) == []

    def test_stopped_process_drops(self):
        process = compile_config("p", "FromPort(0) -> ToPort(1)")
        process.stop()
        assert process.push(tcp_packet("1.1.1.1", "2.2.2.2"), 0) == []

    def test_trace_records_nf(self):
        process = compile_config("nf7", "FromPort(0) -> ToPort(1)")
        packet = tcp_packet("1.1.1.1", "2.2.2.2")
        process.push(packet, 0)
        assert "nf:nf7" in packet.trace

    def test_process_keeps_no_packet(self):
        """A packet that left an NF is garbage once the caller drops it:
        no element (``ToPort`` least of all) holds on to traffic."""
        for functional_type in supported_functional_types():
            process = make_nf_process("leak", functional_type)
            packet = tcp_packet("10.0.0.1", "10.0.0.2", payload="GET /")
            gone = weakref.ref(packet)
            outputs = process.push(packet, 0)
            assert outputs, functional_type
            del packet, outputs
            gc.collect()
            assert gone() is None, f"{functional_type} retains its packets"

    def test_stats(self):
        process = compile_config("p", "FromPort(0) -> Counter() -> ToPort(1)")
        process.push(tcp_packet("1.1.1.1", "2.2.2.2"), 0)
        stats = process.stats()
        assert any(counters["in"] == 1 for counters in stats.values())


class TestCatalog:
    def test_all_catalog_configs_compile(self):
        for functional_type in supported_functional_types():
            process = make_nf_process(f"{functional_type}-test",
                                      functional_type)
            assert process.elements

    def test_all_catalog_nfs_forward_clean_http(self):
        for functional_type in supported_functional_types():
            if functional_type == "ratelimiter":
                continue  # stateful: depends on token history
            process = make_nf_process("x", functional_type)
            packet = tcp_packet("10.0.0.1", "10.0.0.2", tp_dst=80,
                                payload="GET /index")
            out = process.push(packet, 0)
            assert out, f"{functional_type} dropped clean traffic"
            assert out[0][0] == 1

    def test_firewall_blocks_ssh(self):
        process = make_nf_process("fw", "firewall")
        assert process.push(tcp_packet("1.1.1.1", "2.2.2.2", tp_dst=22), 0) == []

    def test_dpi_blocks_malware(self):
        process = make_nf_process("dpi", "dpi")
        assert process.push(
            tcp_packet("1.1.1.1", "2.2.2.2", payload="malware inside"),
            0) == []

    def test_unknown_type_raises(self):
        with pytest.raises(KeyError):
            make_nf_process("x", "teleporter")
        with pytest.raises(KeyError):
            click_config_for("teleporter")

    def test_catalog_has_paper_nfs(self):
        for needed in ("firewall", "nat", "dpi", "fw-nat-combo",
                       "classifier", "analyzer"):
            assert needed in NF_CATALOG
