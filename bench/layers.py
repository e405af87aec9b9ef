"""Per-layer metrics of one trial (layer = module name under
``src/repro``).

Counts come from the program's public outputs — ``DeployReport``,
``AdapterReport``, ``MappingResult``, ``repro.perf`` counters, channel
statistics — read around every operation, traced or not; they are means
per operation and repeat exactly for a seed.  Times come from the
benchmark-side spans of the traced cycles and are *medians* over the
operations, so that they add up to the end-to-end p50 rather than to a
mean that a few collector pauses dominate; like the end-to-end times
they are stated at the reference machine speed (divided by the trial's
``slowdown``).  ``*_per_deploy`` is per *headline operation* of the
workload: a deploy everywhere except ``day2_ring`` (an update) and
``chain_traffic`` (none, so those read 0).
"""

from __future__ import annotations

import statistics
from typing import Callable, Iterable

from bench import SRC_DIR
from bench.metrics import (
    END_TO_END,
    Metric,
    end_to_end,
    headline_ops,
    ops,
    percentile,
    untraced_cycles,
)
from bench.spans import (
    END,
    NAME,
    START,
    TAG,
    SpanIndex,
    named,
    prefixed,
    union_ns,
)
from bench.trial import (
    NC_BYTES,
    NC_RPCS,
    OF_BYTES,
    OF_MODS,
    SIM_EVENTS,
    UNIFY_BYTES,
    Trial,
)

FIG1_DOMAINS = ("emu", "sdn", "cloud", "un")

PER_LAYER: tuple[Metric, ...] = (
    Metric("service.deploy_ms_p99", "ms"),
    Metric("lint.ms_per_deploy", "ms"),
    Metric("orchestration.cal.view_ms_per_deploy", "ms"),
    Metric("orchestration.cal.commit_ms_per_deploy", "ms"),
    Metric("orchestration.cal.remove_ms_per_teardown", "ms"),
    Metric("orchestration.ro.map_ms_per_deploy", "ms"),
    Metric("mapping.nodes_examined_per_deploy", "count", exact=True),
    Metric("mapping.index_fallbacks", "count", exact=True),
    Metric("mapping.pathcache_hit_ratio", "ratio", "higher", exact=True),
    Metric("orchestration.cal.push_ms_per_deploy", "ms"),
    Metric("orchestration.cal.push_self_ms_per_deploy", "ms"),
    Metric("orchestration.cal.domains_pushed_per_deploy", "count",
           exact=True),
    Metric("orchestration.cal.domains_skipped_per_deploy", "count",
           "higher", exact=True),
    Metric("nffg.copy_nodes_per_deploy", "count", exact=True),
    Metric("nffg.copy_edges_per_deploy", "count", exact=True),
    Metric("orchestration.dispatch.parallel_ratio", "ratio", "higher",
           exact=True),
    Metric("orchestration.dispatch.overlap_ratio", "ratio", "higher"),
    *(Metric(f"orchestration.adapters.install_ms.{domain}", "ms")
      for domain in FIG1_DOMAINS),
    Metric("orchestration.adapters.self_ms_per_deploy", "ms"),
    Metric("orchestration.adapters.delta_ratio", "ratio", "higher",
           exact=True),
    Metric("orchestration.adapters.payload_bytes_per_deploy", "B",
           exact=True),
    Metric("netconf.rpcs_per_deploy", "count", exact=True),
    Metric("netconf.bytes_per_deploy", "B"),
    Metric("netconf.rpc_ms_per_deploy", "ms"),
    Metric("openflow.flowmods_per_deploy", "count", exact=True),
    Metric("openflow.barriers_per_deploy", "count", exact=True),
    Metric("openflow.bytes_per_deploy", "B"),
    Metric("openflow.flowmod_ms_per_deploy", "ms"),
    Metric("emu.apply_self_ms_per_deploy", "ms"),
    Metric("cloud.apply_self_ms_per_deploy", "ms"),
    Metric("un.apply_self_ms_per_deploy", "ms"),
    Metric("sdnnet.apply_self_ms_per_deploy", "ms"),
    Metric("sim.events_per_deploy", "count", exact=True),
    Metric("sim.run_ms_per_deploy", "ms"),
    *(Metric(f"orchestration.unify.level_self_ms.{level}", "ms")
      for level in range(3)),
    Metric("orchestration.unify.bytes_per_deploy", "B"),
    Metric("recovery.journal_appends_per_op", "count", exact=True),
    Metric("recovery.replay_ms", "ms"),
    Metric("recovery.diff_ms", "ms"),
    Metric("orchestration.cal.heal_noop_ms", "ms"),
    Metric("openflow.lookups_per_pkt", "count", exact=True),
    Metric("openflow.lookup_us", "us"),
    Metric("sim.events_per_pkt", "count", exact=True),
    Metric("click.pkts_per_pkt", "count", exact=True),
    Metric("runtime.gc_gen2_per_1k_ops", "count"),
    Metric("runtime.gc_pause_ms_per_op", "ms"),
    Metric("runtime.drift_ratio", "ratio"),
    Metric("trace.overhead_pct", "%", "higher"),
    Metric("repo.src_loc", "count", exact=True),
    Metric("repo.src_modules", "count", exact=True),
)


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def source_size() -> tuple[int, int]:
    """(lines, files) of ``src/repro``: the trajectory of "least code"."""
    files = sorted((SRC_DIR / "repro").rglob("*.py"))
    lines = 0
    for path in files:
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    return lines, len(files)


def _drift(samples: list[float]) -> float:
    """Median of the last third of the samples over the first third:
    1.0 is stationary."""
    third = len(samples) // 3
    if third == 0:
        return 0.0
    return statistics.median(samples[-third:]) / statistics.median(
        samples[:third])


def counted(trial: Trial) -> dict[str, float]:
    """Layer metrics that need no spans."""
    workload, rec = trial.workload, trial.rec
    heads = headline_ops(trial)
    timed = [op for op in rec.ops if op.phase == "timed"]

    def per_head(field: int) -> float:
        return _mean(op.stats[field] for op in heads)

    def counter(name: str, over=heads) -> float:
        return _mean(op.counters[name] for op in over)

    def total(name: str) -> float:
        return sum(op.counters[name] for op in timed)

    pushes = [adapter for op in heads
              for adapter in op.report.get("adapters", ())]
    slowdown = trial.slowdown
    deploys = [op.ms / slowdown
               for op in ops(trial, "deploy", "timed", traced=False)]
    primary = workload.headline or "burst"
    bursts = ops(trial, "burst", "timed")
    loc, modules = source_size()
    return {
        "service.deploy_ms_p99": percentile(deploys, 99) if deploys else 0.0,
        "lint.ms_per_deploy": _mean(op.report.get("lint_ms", 0.0)
                                    for op in heads) / slowdown,
        "mapping.nodes_examined_per_deploy": _mean(
            op.report.get("nodes_examined", 0) for op in heads),
        "mapping.index_fallbacks": total("mapping.index.fallback"),
        "mapping.pathcache_hit_ratio": _ratio(
            total("pathcache.hit"),
            total("pathcache.hit") + total("pathcache.miss")),
        "orchestration.cal.domains_pushed_per_deploy":
            counter("cal.push.planned"),
        "orchestration.cal.domains_skipped_per_deploy":
            counter("cal.push.skipped"),
        "nffg.copy_nodes_per_deploy": counter("nffg.copy.nodes"),
        "nffg.copy_edges_per_deploy": counter("nffg.copy.edges"),
        "orchestration.dispatch.parallel_ratio": _ratio(
            total("dispatch.parallel"),
            total("dispatch.parallel") + total("dispatch.inline")),
        "orchestration.adapters.delta_ratio": _ratio(
            sum(1 for _, delta, _, _ in pushes if delta), len(pushes)),
        "orchestration.adapters.payload_bytes_per_deploy": _ratio(
            sum(octets for _, _, octets, _ in pushes), len(heads)),
        "netconf.rpcs_per_deploy": per_head(NC_RPCS),
        "netconf.bytes_per_deploy": per_head(NC_BYTES),
        "openflow.flowmods_per_deploy": per_head(OF_MODS),
        "openflow.bytes_per_deploy": per_head(OF_BYTES),
        "sim.events_per_deploy": per_head(SIM_EVENTS),
        "orchestration.unify.bytes_per_deploy": per_head(UNIFY_BYTES),
        "recovery.journal_appends_per_op": counter(
            "recovery.journal.appends", over=timed),
        "orchestration.cal.heal_noop_ms": _median(
            op.ms for op in ops(trial, "heal_noop", "timed",
                                traced=False)) / slowdown,
        "sim.events_per_pkt": _ratio(
            sum(op.stats[SIM_EVENTS] for op in bursts),
            len(bursts) * getattr(workload, "BURST", 0)),
        "runtime.gc_gen2_per_1k_ops": _ratio(trial.gc.gen2 * 1000.0,
                                             len(timed)),
        "runtime.gc_pause_ms_per_op": _ratio(
            trial.gc.pause_ns / 1e6 / slowdown, len(timed)),
        "runtime.drift_ratio": _drift(
            [op.ms for op in ops(trial, primary, "timed", traced=False)]),
        "repo.src_loc": float(loc),
        "repo.src_modules": float(modules),
    }


def traced(trial: Trial) -> dict[str, float]:
    """Layer metrics taken from the spans of the traced cycles."""
    workload, tracer = trial.workload, trial.tracer
    index = SpanIndex(tracer.spans)
    heads = index.ops(workload.headline) if workload.headline else []
    teardowns = index.ops("teardown")
    recovers = index.ops("recover")

    ns_per_ms = 1e6 * trial.slowdown

    def busy(match: Callable, roots=heads) -> float:
        return (_median(index.busy_ns(root, match) for root in roots)
                / ns_per_ms)

    def own(match: Callable, roots=heads) -> float:
        return (_median(index.own_ns(root, match) for root in roots)
                / ns_per_ms)

    install_sum = install_union = 0
    for root in heads:
        for push in index.within(root, named("cal.push")):
            installs = [s for s in index.children(push)
                        if s[NAME] == "adapter.install"]
            install_sum += sum(s[END] - s[START] for s in installs)
            install_union += union_ns((s[START], s[END]) for s in installs)

    levels = len(workload.levels)
    level_busy = [busy(lambda s, tag=str(level): s[NAME].startswith(
        "escape.") and s[TAG] == tag) for level in range(levels)]

    replay = busy(named("recovery.replay"), recovers)
    packets = sum(1 for op in trial.rec.ops if op.kind == "burst"
                  and op.phase == "timed" and op.traced) * getattr(
                      workload, "BURST", 0)
    lookups, lookup_ns = tracer.totals.get("openflow.lookup", (0, 0))
    clicks, _ = tracer.totals.get("click.push", (0, 0))
    with_spans = [wall for was_traced, wall in trial.rec.cycles
                  if was_traced]
    without = untraced_cycles(trial)
    values = {
        "orchestration.cal.view_ms_per_deploy":
            busy(named("cal.resource_view")),
        "orchestration.cal.commit_ms_per_deploy":
            busy(named("cal.commit_mapping")),
        "orchestration.cal.remove_ms_per_teardown":
            busy(named("cal.remove_service"), teardowns),
        "orchestration.ro.map_ms_per_deploy": busy(named("ro.orchestrate")),
        "orchestration.cal.push_ms_per_deploy": busy(named("cal.push")),
        "orchestration.cal.push_self_ms_per_deploy": own(named("cal.push")),
        "orchestration.dispatch.overlap_ratio":
            _ratio(install_sum, install_union),
        "orchestration.adapters.self_ms_per_deploy":
            own(named("adapter.install")),
        "netconf.rpc_ms_per_deploy": busy(named("netconf.rpc")),
        "openflow.barriers_per_deploy": _ratio(
            sum(len(index.within(root, named("openflow.barrier")))
                for root in heads), len(heads)),
        "openflow.flowmod_ms_per_deploy": busy(prefixed("openflow.")),
        "sdnnet.apply_self_ms_per_deploy":
            own(named("adapter.install", "sdn")),
        "sim.run_ms_per_deploy": busy(named("sim.run")),
        "recovery.replay_ms": replay,
        "recovery.diff_ms": _median(
            r[END] - r[START] - index.busy_ns(r, named("recovery.replay"))
            for r in recovers) / ns_per_ms,
        "openflow.lookups_per_pkt": _ratio(lookups, packets),
        "openflow.lookup_us": _ratio(lookup_ns / 1e3 / trial.slowdown,
                                     lookups),
        "click.pkts_per_pkt": _ratio(clicks, packets),
        # of the *median* cycle rate: a handful of long collector pauses
        # land in one kind of block or the other and would swamp the mean
        "trace.overhead_pct": (
            100.0 * (statistics.median(without)
                     / statistics.median(with_spans) - 1.0)
            if with_spans and without else 0.0),
    }
    for domain in FIG1_DOMAINS:
        values[f"orchestration.adapters.install_ms.{domain}"] = busy(
            named("adapter.install", domain))
    for domain in ("emu", "cloud", "un"):
        values[f"{domain}.apply_self_ms_per_deploy"] = own(
            named("netconf.rpc", domain))
    for level in range(3):
        # a level's own time: its spans minus the level below's, which
        # nest strictly inside them (one-level workloads report none)
        exclusive = 0.0
        if levels > 1 and level < levels:
            exclusive = level_busy[level] - (level_busy[level - 1]
                                             if level else 0.0)
        values[f"orchestration.unify.level_self_ms.{level}"] = exclusive
    return values


def accounting(trial: Trial) -> dict[str, float]:
    """How well the spans explain a deploy, for workloads whose headline
    is a deploy: the share of the operation the named layers account
    for (everything but the un-named remainder of the service layer and
    the orchestrator facade, lint being named by its stage timing), and
    how far the span on push is from ``DeployReport.push_time_s``."""
    index = SpanIndex(trial.tracer.spans)
    heads = index.ops("deploy")
    total = sum(root[END] - root[START] for root in heads)
    if not total:
        return {}
    facade = sum(index.self_ns(root)
                 + index.own_ns(root, prefixed("escape.")) for root in heads)
    reported = ops(trial, "deploy", "timed", traced=True)
    lint_ns = sum(op.report["lint_ms"] for op in reported) * 1e6
    push_reported = sum(op.report["push_ms"] for op in reported)
    top = str(len(trial.workload.levels) - 1)
    push_spanned = sum(index.busy_ns(root, named("cal.push", top))
                       for root in heads) / 1e6
    return {
        "accounted_pct": 100.0 * (1.0 - (facade - lint_ns) / total),
        "push_span_vs_report_pct": 100.0 * _ratio(
            push_spanned - push_reported, push_reported),
    }


def per_layer(trial: Trial) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload does not exercise the
    layer (and for span-based ones in an untraced trial)."""
    values = {metric.name: 0.0 for metric in PER_LAYER}
    values.update(counted(trial))
    if trial.tracer is not None:
        values.update(traced(trial))
    return values


def workload_specific(trial: Trial) -> dict[str, float]:
    """The end-to-end metrics that not every workload has, as the
    driver's ``per_layer`` list records them: 0 where not applicable."""
    values = end_to_end(trial)
    return {metric.name: values[metric.name].value or 0.0
            for metric in END_TO_END if metric.driver_bound is None}
