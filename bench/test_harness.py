"""Self-test of the harness: ``python -m bench selftest``, which is
``python -m pytest bench/test_harness.py``.  Uses the ``--quick`` sizes,
so it says nothing about performance."""

from __future__ import annotations

import gc
import json
import re
import statistics
import threading
import time

from bench import OUT_DIR, REPO_ROOT, calibrate
from bench.compare import verdict
from bench.contract import benchmark_json
from bench.layers import PER_LAYER
from bench.metrics import (
    END_TO_END,
    Metric,
    end_to_end,
    ops,
    percentile,
    supports,
)
from bench.runner import spawn_trial
from bench.spans import OP, SpanIndex, Tracer, named, self_ns, union_ns
from bench.trial import Recorder, run_trial
from bench.workloads import WORKLOADS, Fig1Resident

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(start: int, end: int, parent=None, name: str = "x") -> list:
    return [name, "", start, end, 0, 1, parent]


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span(0, 100)
    children = [_span(10, 40, parent), _span(30, 60, parent),
                _span(80, 120, parent)]  # the last one overruns
    assert union_ns([(10, 40), (30, 60)]) == 50
    # covered: 10..60 and 80..100 => 70 of 100
    assert self_ns(parent, children) == 30
    index = SpanIndex([*children, parent])
    assert index.self_ns(parent) == 30
    assert index.self_ns(children[0]) == 30


def test_worker_spans_parent_under_the_waiting_generator_span():
    tracer = Tracer()

    class Layer:
        def push(self):
            worker = threading.Thread(target=self.install)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        def install(self):
            time.sleep(0.001)

    layer = Layer()
    tracer.add(layer, "push", "cal.push")
    tracer.add(layer, "install", "adapter.install")
    tracer.install()
    root = tracer.begin_op("deploy")
    layer.push()
    tracer.end_op(root)
    tracer.remove()
    by_name = {span[0]: span for span in tracer.spans}
    assert by_name["adapter.install"][6] is by_name["cal.push"]
    assert by_name["cal.push"][6] is by_name["op.deploy"]
    assert by_name["adapter.install"][4] != by_name["cal.push"][4]
    assert tracer.wrapped_attributes() == []


def test_a_span_outside_any_operation_belongs_to_none():
    tracer = Tracer()

    class Simulator:
        def run(self):
            time.sleep(0.001)

    simulator = Simulator()
    tracer.add(simulator, "run", "sim.run")
    tracer.install()
    root = tracer.begin_op("deploy")
    simulator.run()
    tracer.end_op(root)
    simulator.run()  # the probe's run, after the deploy returned
    tracer.remove()
    inside, _, outside = tracer.spans
    assert (inside[OP], outside[OP]) == (root[OP], 0) and root[OP] > 0
    index = SpanIndex(tracer.spans)
    assert index.within(root, named("sim.run")) == [inside]
    assert index.busy_ns(root, named("sim.run")) == inside[3] - inside[2]


def test_a_percentile_needs_ten_samples_beyond_it():
    assert not supports(99, 90) and supports(100, 90)
    assert not supports(999, 99) and supports(1000, 99)
    assert supports(20, 50) and not supports(19, 50)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile(list(range(101)), 90) == 90.0


def test_names_units_and_counts_fit_the_contract():
    body = benchmark_json()
    assert 2 <= len(body["workloads"]) <= 8
    assert 1 <= len(body["end_to_end"]) <= 16
    assert 1 <= len(body["per_layer"]) <= 128
    assert len(END_TO_END) == 16 and len(PER_LAYER) == 55
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in body[key]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in body["end_to_end"] + body["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in body["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert any(e["name"] == "setup_s" and e["unit"] == "s"
               and e["better"] == "lower" for e in body["end_to_end"])
    for entry in body["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == body, \
            "BENCHMARK.json is out of date with bench/contract.py"


def test_wrappers_are_gone_after_a_traced_trial_and_absent_untraced():
    from repro.click.process import ClickProcess
    from repro.openflow.flowtable import FlowTable
    originals = (vars(FlowTable)["lookup"], vars(ClickProcess)["push"])

    trial = run_trial("chain_traffic", 3, 0.2, trace=True, quick=True)
    assert trial.correct, trial.rec.problems
    assert trial.tracer.spans and trial.tracer.totals["openflow.lookup"][0]
    assert trial.tracer.wrapped_attributes() == []
    assert (vars(FlowTable)["lookup"], vars(ClickProcess)["push"]) \
        == originals
    for owner in (trial.workload.top, trial.workload.top.cal,
                  trial.workload.simulator):
        assert not any(callable(v) and v.__name__ == "wrapper"
                       for v in vars(owner).values()), owner

    plain = run_trial("fig1_resident", 3, 0.2, trace=False, quick=True)
    assert plain.correct, plain.rec.problems
    assert plain.tracer is None
    assert "deploy" not in vars(plain.workload.top)
    assert all(not op.traced for op in plain.rec.ops)


def test_times_are_stated_at_the_reference_machine_speed():
    assert calibrate.slowdown([]) == 1.0
    assert calibrate.slowdown([calibrate.REFERENCE_MS * 1.3] * 3) == 1.3
    gc.disable()
    try:
        assert calibrate.sample() > 0 and not gc.isenabled()
    finally:
        gc.enable()
    assert calibrate.sample() > 0 and gc.isenabled()

    trial = run_trial("fig1_resident", 3, 0.2, trace=False, quick=True)
    cycles = len(trial.rec.cycles)
    assert len(trial.rec.timed_speed) == cycles
    assert len(trial.rec.setup_speed) == sum(
        op.phase in ("fill", "warmup") for op in trial.rec.ops)
    trial.slowdown, trial.setup_slowdown = 2.0, 4.0  # a machine that slow
    values = end_to_end(trial)
    raw = statistics.median(op.ms for op in ops(trial, "deploy", "timed"))
    assert values["deploy_ms_p50"].value == raw / 2.0
    assert values["cycles_per_s"].value == 2.0 * cycles / sum(
        wall for _, wall in trial.rec.cycles)
    assert values["setup_s"].value == statistics.median(trial.setup_s) / 4.0


def test_the_leak_check_trips_on_a_service_left_deployed():
    workload = Fig1Resident(5, quick=True)
    workload.build()
    rec = Recorder()
    rec.attach(workload)
    workload.fill(rec)
    assert any("still books" in problem for problem in workload.leaks())
    assert any("free CPU" in problem for problem in workload.leaks())
    workload.drain(rec)
    assert workload.leaks() == []
    workload.close()


def test_exact_metrics_repeat_for_a_seed_and_a_second_seed_checks_out():
    # fresh processes, as real trials are: ids the program hands out
    # (and so message sizes) depend on what ran before in the process
    exact_e2e = [m.name for m in END_TO_END if m.exact]
    exact_layer = [m.name for m in PER_LAYER if m.exact]
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / ".selftest-trial.json"
    for name in WORKLOADS:
        first, again = (spawn_trial(name, 11, 0.1, False, True, detail)
                        for _ in range(2))
        for metric in exact_e2e:
            assert first["end_to_end"][metric]["value"] \
                == again["end_to_end"][metric]["value"], (name, metric)
        for metric in exact_layer:
            assert first["per_layer"][metric] \
                == again["per_layer"][metric], (name, metric)
        other = run_trial(name, 12, 0.1, trace=False, quick=True)
        assert first["correct"] and again["correct"] and other.correct, \
            (name, first["problems"], again["problems"], other.rec.problems)


def test_compare_verdicts():
    latency = Metric("deploy_ms_p50", "ms", bound=0.15)
    count = Metric("ctrl_msgs_per_deploy", "count", bound=0.0, exact=True)

    def side(value, trials):
        return {"value": value, "trials": trials}

    steady = side(10.0, [9.9, 10.0, 10.1])
    for candidate, expected in (
            (side(10.5, [10.4, 10.5, 10.6]), "same"),
            (side(12.0, [11.9, 12.0, 12.1]), "worse"),
            (side(8.0, [7.9, 8.0, 8.1]), "better"),
            (side(12.0, [9.0, 12.0, 15.0]), "unresolved")):
        assert verdict(latency, steady, candidate) == expected
    assert verdict(count, side(40.0, [40.0] * 3),
                   side(41.0, [41.0] * 3)) == "worse"
    assert verdict(count, side(40.0, [40.0] * 3),
                   side(40.0, [40.0] * 3)) == "same"
