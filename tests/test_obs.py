"""Tests for the observability layer: gated spans, the tracer ring,
Chrome export, the structured event log, and the perf histograms and
gauges the instrumentation feeds."""

import json
import threading

import pytest

from repro import obs, perf
from repro.nffg import NFFGBuilder
from repro.obs.events import EventLog, render_jsonl
from repro.obs.metrics import metric_name, render_prometheus
from repro.obs.trace import (
    NOOP_SPAN,
    Tracer,
    current_span,
    render_tree,
    validate_chrome_trace,
)
from repro.perf import Gauge, Histogram, MetricsRegistry
from repro.resilience import FaultKind, FaultPlan
from repro.service import ServiceRequestBuilder


@pytest.fixture
def scoped_obs():
    """A fresh obs state installed for the test, old state restored."""
    previous = obs.disable()
    state = obs.enable(fresh=True)
    yield state
    obs.disable()
    obs.restore(previous)


@pytest.fixture
def obs_off():
    """Tracing hard-off for the test, old state restored."""
    previous = obs.disable()
    yield
    obs.restore(previous)


def _chain_request(index=0, prefix="obs"):
    return (ServiceRequestBuilder(f"{prefix}{index}")
            .sap("sap1").sap("sap2")
            .nf(f"{prefix}{index}-fw", "firewall")
            .nf(f"{prefix}{index}-nat", "nat")
            .chain("sap1", f"{prefix}{index}-fw", f"{prefix}{index}-nat",
                   "sap2", bandwidth=2.0)
            .build())


# -- gating -----------------------------------------------------------------


class TestGating:
    def test_disabled_span_is_shared_noop(self, obs_off):
        assert obs.span("deploy", service="x") is NOOP_SPAN
        with obs.span("deploy") as span:
            assert span.trace_id is None
            assert current_span() is None

    def test_disabled_event_is_noop(self, obs_off):
        obs.event("deploy", service="x")  # must not raise
        assert obs.state() is None
        assert not obs.enabled()

    def test_enable_disable_roundtrip(self, obs_off):
        state = obs.enable(fresh=True)
        assert obs.enabled()
        with obs.span("deploy"):
            pass
        detached = obs.disable()
        assert detached is state
        assert len(detached.tracer.spans()) == 1
        assert not obs.enabled()

    def test_env_gate_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert not obs._env_enabled()
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not obs._env_enabled()
        monkeypatch.setenv("REPRO_OBS", "1")
        assert obs._env_enabled()


# -- spans and the tracer ---------------------------------------------------


class TestTracer:
    def test_nesting_builds_parent_links(self):
        tracer = Tracer()
        with tracer.start_span("deploy") as root:
            with tracer.start_span("deploy/map") as child:
                assert current_span() is child
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
            assert current_span() is root
        assert current_span() is None
        spans = tracer.spans()
        assert [s.name for s in spans] == ["deploy/map", "deploy"]

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.start_span("a"):
            pass
        with tracer.start_span("b"):
            pass
        first, second = tracer.spans()
        assert first.trace_id != second.trace_id

    def test_exception_sets_status_and_closes(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.start_span("deploy"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.status == "ValueError"
        assert span.end_s is not None
        assert tracer.open_spans() == []

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("x")
        span.end()
        span.end()
        assert len(tracer.spans()) == 1

    def test_ring_evicts_oldest_and_counts(self):
        perf.reset("trace.")
        tracer = Tracer(max_spans=2)
        for index in range(4):
            tracer.start_span(f"s{index}").end()
        assert [s.name for s in tracer.spans()] == ["s2", "s3"]
        assert tracer.dropped == 2
        assert perf.snapshot("trace.")["trace.dropped"] == 2

    def test_span_records_thread(self):
        tracer = Tracer()
        names = {}

        def work():
            with tracer.start_span("worker") as span:
                names["thread"] = span.thread_name

        thread = threading.Thread(target=work, name="push-worker")
        thread.start()
        thread.join()
        assert names["thread"] == "push-worker"

    def test_set_attrs_chainable(self):
        tracer = Tracer()
        with tracer.start_span("x", {"a": 1}) as span:
            span.set(b=2).set(a=3)
        assert tracer.spans()[0].attrs == {"a": 3, "b": 2}


class TestChromeExport:
    def test_export_is_valid_and_carries_ids(self):
        tracer = Tracer()
        with tracer.start_span("deploy", {"service": "svc"}):
            with tracer.start_span("deploy/push"):
                pass
        data = tracer.export_chrome()
        assert validate_chrome_trace(data) == []
        assert json.loads(json.dumps(data)) == data  # JSON-serializable
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        root = by_name["deploy"]
        child = by_name["deploy/push"]
        assert root["args"]["service"] == "svc"
        assert child["args"]["parent_id"] == root["args"]["span_id"]
        assert child["cat"] == "deploy"
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"]

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace([]) == ["top level is not a JSON object"]
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "Q", "pid": "x", "tid": 1}]})
        assert any("name" in p for p in problems)
        assert any("phase" in p for p in problems)
        assert any("pid" in p for p in problems)

    def test_render_tree_shows_hierarchy(self):
        tracer = Tracer()
        with tracer.start_span("deploy"):
            with tracer.start_span("deploy/map"):
                pass
        text = render_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("deploy ")
        assert lines[1].startswith("  deploy/map ")

    def test_render_tree_empty(self):
        assert render_tree(Tracer()) == "(no spans recorded)"


# -- event log --------------------------------------------------------------


class TestEventLog:
    def test_emit_stamps_seq_and_ids(self):
        log = EventLog()
        event = log.emit("push", trace_id="t1", span_id="s2",
                         fields={"domain": "emu"})
        assert event["seq"] == 1
        assert event["trace_id"] == "t1"
        assert event["span_id"] == "s2"
        assert event["domain"] == "emu"
        assert event["ts_ms"] >= 0.0

    def test_ring_evicts_oldest(self):
        log = EventLog(max_events=2)
        for index in range(4):
            log.emit(f"e{index}")
        assert [e["type"] for e in log.events()] == ["e2", "e3"]
        assert log.dropped == 2

    def test_filter_and_limit(self):
        log = EventLog()
        log.emit("push")
        log.emit("push.mode")
        log.emit("deploy")
        assert [e["type"] for e in log.events(type_prefix="push")] \
            == ["push", "push.mode"]
        assert [e["type"] for e in log.events(limit=1)] == ["deploy"]

    def test_subscribe_sees_live_events(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("a")
        log.unsubscribe(seen.append)
        log.emit("b")
        assert [e["type"] for e in seen] == ["a"]

    def test_render_jsonl_roundtrips(self):
        log = EventLog()
        log.emit("push", fields={"domain": "emu", "ok": True})
        lines = render_jsonl(log.events()).splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["domain"] == "emu"

    def test_obs_event_attaches_active_span(self, scoped_obs):
        with obs.span("deploy") as span:
            obs.event("deploy", service="svc")
        (event,) = scoped_obs.events.events()
        assert event["trace_id"] == span.trace_id
        assert event["span_id"] == span.span_id


# -- histograms / gauges / prometheus ---------------------------------------


class TestHistogram:
    def test_single_value_reports_itself_at_every_quantile(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.5)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == pytest.approx(1.5)

    def test_quantiles_interpolate_and_clamp(self):
        histogram = Histogram("h", buckets=(10.0, 20.0, 30.0))
        for value in (1.0, 12.0, 14.0, 28.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(1.0)
        assert histogram.quantile(1.0) == pytest.approx(28.0)
        assert 10.0 <= histogram.percentile(50) <= 20.0
        assert histogram.count == 4

    def test_empty_histogram_is_zero(self):
        histogram = Histogram("h", buckets=(1.0,))
        assert histogram.quantile(0.99) == 0.0
        snap = histogram.snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0.0

    def test_overflow_bucket_catches_large_values(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(100.0)
        assert histogram.snapshot()["counts"] == [0, 1]
        assert histogram.quantile(0.5) == pytest.approx(100.0)

    def test_registry_get_or_create_by_labels(self):
        registry = MetricsRegistry()
        a = registry.histogram("push.latency_s", labels={"domain": "emu"})
        b = registry.histogram("push.latency_s", labels={"domain": "emu"})
        c = registry.histogram("push.latency_s", labels={"domain": "sdn"})
        assert a is b and a is not c
        assert registry.names() == {"push.latency_s"}
        registry.reset("push.")
        assert registry.names() == set()

    def test_gauge_set_add(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.get() == 2.0


class TestPrometheusRendering:
    def test_metric_name_mangling(self):
        assert metric_name("deploy.latency_s") == "repro_deploy_latency_s"
        assert metric_name("x.y", "_p50") == "repro_x_y_p50"

    def test_render_counters_histograms_gauges(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("deploy.latency_s",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        registry.gauge("cal.services_deployed").set(3)
        text = render_prometheus(
            registry=registry, counter_snapshot={"push.full": 2})
        assert "# TYPE repro_push_full_total counter" in text
        assert "repro_push_full_total 2" in text
        assert "# TYPE repro_deploy_latency_s histogram" in text
        assert 'repro_deploy_latency_s_bucket{le="0.1"} 1' in text
        assert 'repro_deploy_latency_s_bucket{le="+Inf"} 2' in text
        assert "repro_deploy_latency_s_count 2" in text
        assert "# TYPE repro_deploy_latency_s_p95 gauge" in text
        assert "repro_cal_services_deployed 3" in text

    def test_labelled_series_render_with_labels(self):
        registry = MetricsRegistry()
        registry.histogram("push.latency_s",
                           labels={"domain": "emu"}).observe(0.01)
        text = render_prometheus(registry=registry)
        assert 'repro_push_latency_s_count{domain="emu"} 1' in text
        assert 'repro_push_latency_s_p50{domain="emu"}' in text


# -- end-to-end instrumentation ---------------------------------------------


class TestInstrumentedDeploy:
    def test_traced_deploy_produces_expected_span_tree(self, scoped_obs):
        from repro.topo import build_reference_multidomain

        testbed = build_reference_multidomain()
        report = testbed.service_layer.submit(_chain_request())
        assert report.success
        spans = scoped_obs.tracer.spans()
        names = {span.name for span in spans}
        assert {"deploy", "deploy/lint", "deploy/view", "deploy/map",
                "deploy/push", "deploy/activate", "map/embed"} <= names
        assert scoped_obs.tracer.open_spans() == []
        roots = [s for s in spans if s.name == "deploy"]
        assert len(roots) == 1
        root = roots[0]
        assert root.attrs["outcome"] == "success"
        # every span belongs to the one deploy trace
        stages = [s for s in spans if s.name.startswith("deploy/")]
        assert all(s.trace_id == root.trace_id for s in stages)

    def test_push_spans_land_on_worker_threads(self, scoped_obs):
        from repro.topo import build_reference_multidomain

        testbed = build_reference_multidomain()
        assert testbed.service_layer.submit(_chain_request()).success
        push_spans = [s for s in scoped_obs.tracer.spans()
                      if s.name.startswith("push/")]
        domains = {s.attrs["domain"] for s in push_spans}
        assert domains == {"emu", "sdn", "cloud", "un"}
        assert all(s.thread_name.startswith("domain-push")
                   for s in push_spans)
        # copied contexts parent each push under the deploy/push stage
        parents = {s.span_id: s for s in scoped_obs.tracer.spans()}
        for span in push_spans:
            parent = parents.get(span.parent_id)
            if parent is not None:
                assert parent.name == "deploy/push"

    def test_deploy_emits_events_and_chrome_trace(self, scoped_obs):
        from repro.topo import build_reference_multidomain

        testbed = build_reference_multidomain()
        assert testbed.service_layer.submit(_chain_request()).success
        types = [e["type"] for e in scoped_obs.events.events()]
        assert "deploy" in types and "push" in types
        data = scoped_obs.tracer.export_chrome()
        assert validate_chrome_trace(data) == []

    def test_deploy_feeds_latency_histograms(self, scoped_obs):
        from repro.topo import build_reference_multidomain

        perf.reset()
        testbed = build_reference_multidomain()
        assert testbed.service_layer.submit(_chain_request()).success
        deploy_hist = perf.metrics.histogram("deploy.latency_s")
        assert deploy_hist.count == 1
        assert deploy_hist.quantile(0.5) > 0.0
        labelled = [h for h in perf.metrics.histograms()
                    if h.name == "push.latency_s"]
        assert {dict(h.labels)["domain"] for h in labelled} \
            == {"emu", "sdn", "cloud", "un"}
        gauge = perf.metrics.gauge("cal.services_deployed")
        assert gauge.get() == 1.0

    def test_untraced_deploy_records_no_spans(self, obs_off):
        from repro.topo import build_reference_multidomain

        perf.reset("trace.")
        perf.reset("obs.")
        testbed = build_reference_multidomain()
        assert testbed.service_layer.submit(_chain_request()).success
        assert perf.snapshot("trace.") == {}
        assert perf.snapshot("obs.") == {}


class TestFailurePathObservability:
    def _failing_escape(self):
        from repro.orchestration import (
            DirectDomainAdapter,
            EscapeOrchestrator,
        )
        from repro.resilience import FaultyAdapter

        from tests.test_resilience import _direct_view

        escape = EscapeOrchestrator("obs-fail")
        escape.cal.breaker_failure_threshold = 5
        plan = FaultPlan()
        escape.add_domain(
            DirectDomainAdapter("dom-a", view=_direct_view("dom-a", "sapA")))
        escape.add_domain(FaultyAdapter(
            DirectDomainAdapter("dom-b", view=_direct_view("dom-b", "sapB")),
            plan))
        return escape, plan

    def _one_hop(self, service_id, sap_id):
        return (NFFGBuilder(service_id).sap(sap_id)
                .nf(f"{service_id}-nf", "firewall")
                .chain(sap_id, f"{service_id}-nf", bandwidth=1.0).build())

    def test_failed_deploy_records_rollback_time(self, obs_off):
        escape, plan = self._failing_escape()
        plan.add("dom-b", "push", kind=FaultKind.FATAL, count=1)
        report = escape.deploy(self._one_hop("b1", "sapB"),
                               wait_activation=False)
        assert not report.success
        assert report.rollback
        assert report.rollback_time_s > 0.0
        assert report.stage_timings()["rollback"] == report.rollback_time_s

    def test_successful_deploy_has_zero_rollback_time(self, obs_off):
        escape, plan = self._failing_escape()
        report = escape.deploy(self._one_hop("a1", "sapA"),
                               wait_activation=False)
        assert report.success
        assert report.rollback_time_s == 0.0

    def test_rendered_report_shows_rollback_stage_only_on_failure(
            self, obs_off):
        from repro.cli.render import render_deploy_report

        escape, plan = self._failing_escape()
        ok = escape.deploy(self._one_hop("a1", "sapA"),
                           wait_activation=False)
        assert "rollback" not in render_deploy_report(ok)
        plan.add("dom-b", "push", kind=FaultKind.FATAL, count=1)
        failed = escape.deploy(self._one_hop("b1", "sapB"),
                               wait_activation=False)
        rendered = render_deploy_report(failed)
        assert "rollback" in rendered
        assert "stages:" in rendered

    def test_push_slice_names_the_cals_share_of_the_push(self, obs_off):
        from repro.cli.render import render_deploy_report

        escape, _ = self._failing_escape()
        report = escape.deploy(self._one_hop("a1", "sapA"),
                               wait_activation=False)
        stages = report.stage_timings()
        assert list(stages).index("push.slice") \
            == list(stages).index("push") + 1
        assert all(r.slice_time_s > 0.0 for r in report.adapters)
        assert stages["push.slice"] == sum(
            r.slice_time_s for r in report.adapters)
        assert "push.slice" in render_deploy_report(report)

    def test_push_encode_and_diff_name_the_edits_client_side_time(
            self, obs_off):
        from repro.cli.render import render_deploy_report
        from repro.orchestration import (
            EscapeOrchestrator,
            UnifyAgent,
            UnifyDomainAdapter,
        )
        from repro.topo import build_emulated_testbed

        bottom = build_emulated_testbed().escape
        top = EscapeOrchestrator("obs-top")
        top.add_domain(UnifyDomainAdapter("child", UnifyAgent(bottom)))

        def chain(service_id):
            return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
                    .nf(f"{service_id}-fw", "firewall")
                    .chain("sap1", f"{service_id}-fw", "sap2").build())

        first = top.deploy(chain("one"), wait_activation=False)
        # first contact is a whole replace: nothing to diff against
        assert first.success and not first.adapters[0].delta
        assert first.stage_timings()["push.encode"] == 0.0
        edit = top.deploy(chain("two"), wait_activation=False)
        (pushed,) = edit.adapters
        assert edit.success and pushed.delta
        assert 0.0 < pushed.encode_time_s + pushed.diff_time_s \
            < pushed.push_time_s
        stages = edit.stage_timings()
        assert list(stages)[3:7] == ["push", "push.slice", "push.encode",
                                     "push.diff"]
        assert (stages["push.encode"], stages["push.diff"]) == (
            pushed.encode_time_s, pushed.diff_time_s)
        # the child's own edit towards its domain is on the child's report
        assert "push.encode" in render_deploy_report(edit)
        assert "push.diff" in render_deploy_report(edit)

    def test_update_and_heal_reports_carry_the_stage_timings(self, obs_off):
        from repro.cli.render import render_deploy_report
        from repro.topo import build_emulated_testbed

        testbed = build_emulated_testbed(switches=3)
        testbed.emu.add_link("emu-bb0", "emu-bb2")
        escape = testbed.escape
        escape.cal.mark_stale()

        def chain(nf_type):
            return (NFFGBuilder("svc").sap("sap1").sap("sap2")
                    .nf("svc-nf", nf_type)
                    .chain("sap1", "svc-nf", "sap2", bandwidth=1.0).build())

        assert escape.deploy(chain("firewall")).success
        update = escape.update(chain("nat"))
        testbed.network.fail_link("emu-bb0", "emu-bb2")
        healed = escape.heal()
        testbed.network.restore_link("emu-bb0", "emu-bb2")
        reports = [update, *healed.values()]
        assert update.success and len(reports) == 2
        for report in reports:
            stages = report.stage_timings()
            assert all(stages[stage] > 0.0 for stage in
                       ("view", "map", "push", "push.slice", "activate"))
            assert sum(stages[stage] for stage in
                       ("lint", "view", "map", "push", "activate")) \
                <= report.total_time_s
            assert "stages:" in render_deploy_report(report)
        assert update.lint_time_s > 0.0 and update.lint == []
        # a refused update is timed as far as it got
        refused = escape.update(chain("warpdrive"))
        assert not refused.success and "previous version kept" in refused.error
        assert refused.total_time_s >= refused.lint_time_s > 0.0
        assert refused.push_time_s == 0.0

    def test_failure_spans_and_events(self, scoped_obs):
        escape, plan = self._failing_escape()
        plan.add("dom-b", "push", kind=FaultKind.FATAL, count=1)
        report = escape.deploy(self._one_hop("b1", "sapB"),
                               wait_activation=False)
        assert not report.success
        names = {s.name for s in scoped_obs.tracer.spans()}
        assert "deploy/rollback" in names
        types = [e["type"] for e in scoped_obs.events.events()]
        assert "fault.injected" in types
        assert "rollback" in types
        deploy_events = [e for e in scoped_obs.events.events()
                         if e["type"] == "deploy"]
        assert deploy_events[-1]["outcome"] == "failed"


class TestSimVirtualTime:
    def test_events_during_sim_run_carry_vtime(self, scoped_obs):
        from repro.sim.kernel import Simulator

        simulator = Simulator()
        simulator.schedule(25.0, lambda: obs.event("tick"))
        simulator.run()
        (event,) = scoped_obs.events.events(type_prefix="tick")
        assert event["vtime_ms"] == 25.0
        names = {s.name for s in scoped_obs.tracer.spans()}
        assert "sim/run" in names

    def test_vclock_unbound_after_run(self, scoped_obs):
        from repro.sim.kernel import Simulator

        Simulator().run()
        obs.event("after")
        (event,) = scoped_obs.events.events(type_prefix="after")
        assert "vtime_ms" not in event
