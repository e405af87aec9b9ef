"""One trial: set a workload up, run its timed cycles, check, measure.

A trial is one process (``python -m bench run --workload W --seed N
--seconds S --trace 0|1``).  It

1. sets the workload up several times (build + fill + one discarded
   warm-up cycle; how often is fixed per workload) and reports the
   median as ``setup_s``; every set-up instance is drained and
   leak-checked, the last one runs the timed cycles first;
2. runs the workload's fixed number of timed cycles — set by
   ``--seconds`` alone and sized to fill it on the reference box — so
   that a seed gives the same counts and both sides of a comparison
   sample the program's drift identically; a window the fixed cycles
   did not fill is padded with cycles that no metric uses;
3. with ``--trace 1`` runs blocks of cycles with span wrappers
   installed and blocks with them removed, in shuffled order: layer
   times come from the traced blocks, latencies and
   ``trace.overhead_pct`` from comparing the two;
4. times a fixed piece of work before every operation of a set-up and
   before every timed cycle (:mod:`bench.calibrate`), so that wall-clock
   numbers can be stated at the reference machine speed.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import perf
from repro.orchestration import DeployReport, UnifyDomainAdapter
from repro.recovery import RecoveryReport

from bench import OUT_DIR, calibrate
from bench.spans import Tracer
from bench.workloads import WORKLOADS, Workload, of_endpoints

#: cycles per traced / untraced block of a traced trial
TRACE_BLOCK = 2

#: ``repro.perf`` counters read around every operation
TRACKED_COUNTERS = (
    "cal.push.planned", "cal.push.skipped", "nffg.copy.nodes",
    "nffg.copy.edges", "dispatch.parallel", "dispatch.inline",
    "mapping.index.fallback", "pathcache.hit", "pathcache.miss",
    "recovery.journal.appends")

#: Every operation is called through this many extra stack frames, a
#: different number each time.  CPython 3.11 keeps frames in 16 KiB
#: chunks and allocates / frees a chunk whenever a call crosses a chunk
#: boundary, so a recursion that happens to straddle one (deepcopy of a
#: NETCONF datastore, three orchestrator levels down) runs up to 60 %
#: slower — or faster — when anything shifts the stack by a few frames:
#: span wrappers, or one more function in a later change.  Stepping the
#: depth over more than a chunk's worth of frames makes a latency the
#: median over alignments instead of the luck of one.
DEPTH_PERIOD, DEPTH_STEP = 199, 37


def _at_depth(depth: int, call: Callable, args: tuple, kwargs: dict):
    if depth:
        return _at_depth(depth - 1, call, args, kwargs)
    return call(*args, **kwargs)


#: fields of :meth:`Recorder._read`
(CTRL_MSGS, CTRL_BYTES, TOP_MSGS, NC_RPCS, NC_BYTES, UNIFY_BYTES, OF_MODS,
 OF_BYTES, SIM_EVENTS) = range(9)


@dataclass
class Op:
    """One client operation as the harness saw it."""

    kind: str
    phase: str
    traced: bool
    ms: float
    ok: bool
    #: deltas of the :meth:`Recorder._read` fields across the call
    stats: tuple
    #: deltas of :data:`TRACKED_COUNTERS`
    counters: dict[str, float]
    #: numbers lifted from the returned report (DeployReport ops only)
    report: dict[str, Any] = field(default_factory=dict)


class Recorder:
    """What the workloads report into: operations, probes, checks."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.phase = "fill"
        self.cycle = -1
        self.tracer: Optional[Tracer] = None
        #: (traced, wall seconds) of every timed cycle
        self.cycles: list[tuple[bool, float]] = []
        #: virtual ms of every delivered probe of the timed cycles
        self.latencies: list[float] = []
        #: phase of every cycle that lost a probe packet
        self.short_cycles: list[str] = []
        self.problems: list[str] = []
        self._short_cycle = False
        #: :func:`bench.calibrate.sample` readings taken inside the
        #: set-ups (before each of their operations, so spread over them)
        #: and before each timed cycle
        self.setup_speed: list[float] = []
        self.timed_speed: list[float] = []

    # -- per-instance stat sources ----------------------------------------------

    def attach(self, workload: Workload) -> None:
        adapters = workload.adapters()
        top = set(workload.top.cal.adapters.values())
        #: (adapter, is it one of the top level's)
        self._adapters = [(adapter, adapter in top) for adapter in adapters]
        self._channels = [adapter.channel for adapter in adapters
                          if hasattr(adapter, "channel")]
        self._unify_channels = [
            adapter.channel for adapter in adapters
            if isinstance(adapter, UnifyDomainAdapter)]
        self._endpoints = [endpoint for adapter in adapters
                           for endpoint in of_endpoints(adapter)]
        self._simulator = workload.simulator

    def _read(self) -> tuple:
        ctrl_msgs = ctrl_bytes = top_msgs = 0
        for adapter, is_top in self._adapters:
            msgs, octets = adapter.control_stats()
            ctrl_msgs += msgs
            ctrl_bytes += octets
            if is_top:
                top_msgs += msgs
        nc_rpcs = sum(c.stats.messages_to_b for c in self._channels)
        nc_bytes = sum(c.stats.bytes for c in self._channels)
        unify_bytes = sum(c.stats.bytes for c in self._unify_channels)
        of_mods = sum(e.flow_mods_sent for e in self._endpoints)
        of_bytes = sum(e.total_stats().bytes for e in self._endpoints)
        sim_events = (self._simulator.events_processed
                      if self._simulator is not None else 0)
        return (ctrl_msgs, ctrl_bytes, top_msgs, nc_rpcs, nc_bytes,
                unify_bytes, of_mods, of_bytes, sim_events)

    # -- what workloads call ----------------------------------------------------

    def op(self, kind: str, call: Callable, *args, **kwargs):
        """Run and time one client operation; returns its result."""
        if self.phase in ("fill", "warmup"):
            self.setup_speed.append(calibrate.sample())
        tracer = self.tracer
        stats_before = self._read()
        counters_before = perf.snapshot()
        root = tracer.begin_op(kind) if tracer is not None else None
        depth = len(self.ops) * DEPTH_STEP % DEPTH_PERIOD
        started = time.perf_counter()
        try:
            result = _at_depth(depth, call, args, kwargs)
        finally:
            elapsed = time.perf_counter() - started
            if root is not None:
                tracer.end_op(root)
        stats = tuple(after - before for after, before
                      in zip(self._read(), stats_before))
        counters_after = perf.snapshot()
        op = Op(kind=kind, phase=self.phase,
                traced=tracer is not None, ms=elapsed * 1e3,
                ok=_succeeded(result), stats=stats,
                counters={name: counters_after.get(name, 0)
                          - counters_before.get(name, 0)
                          for name in TRACKED_COUNTERS})
        if isinstance(result, DeployReport):
            op.report = _lift(result)
            self._check_messages(op, result)
        if not op.ok:
            self.problems.append(
                f"{kind} failed in {self.phase} cycle {self.cycle}: "
                f"{getattr(result, 'error', result)!r}")
        self.ops.append(op)
        return result

    def probes(self, sent: int, delivered: int,
               latencies: list[float]) -> None:
        if self.phase == "timed":
            self.latencies.extend(latencies)
        if delivered != sent:
            self._short_cycle = True
            self.problems.append(
                f"{self.phase} cycle {self.cycle}: {delivered} of {sent} "
                "probe packets delivered")

    def check(self, holds: bool, message: str) -> None:
        if not holds:
            self.problems.append(
                f"{self.phase} cycle {self.cycle}: {message}")

    def _check_messages(self, op: Op, report: DeployReport) -> None:
        """Per-adapter message sums must equal what the report claims.

        Two kinds of message travel the same channels outside every
        AdapterReport's window, and then the channels may only have
        carried *more*: notifications that arrive while the deploy waits
        for NFs to boot, and the view fetch of a Unify adapter."""
        if not report.adapters:
            return
        seen, claimed = op.stats[TOP_MSGS], report.control_messages
        if report.activation_virtual_ms == 0 and not self._unify_channels:
            agrees = seen == claimed
        else:
            agrees = seen >= claimed
        if not agrees:
            self.problems.append(
                f"{op.kind} in {self.phase} cycle {self.cycle}: adapters "
                f"carried {seen} messages, report claims {claimed}")

    # -- cycle bookkeeping (called by run_trial) ------------------------------------

    def begin_cycle(self, index: int) -> None:
        self.cycle = index
        self._short_cycle = False

    def end_cycle(self, wall_s: float) -> None:
        if self._short_cycle:
            self.short_cycles.append(self.phase)
        if self.phase == "timed":
            self.cycles.append((self.tracer is not None, wall_s))

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops) + len(self.short_cycles)


def _succeeded(result) -> bool:
    if isinstance(result, DeployReport):
        return result.success
    if isinstance(result, RecoveryReport):
        return result.ok()
    if isinstance(result, dict):  # heal(): service id -> DeployReport
        return all(report.success for report in result.values())
    return result is None or bool(result)


def _lift(report: DeployReport) -> dict[str, Any]:
    lifted: dict[str, Any] = {
        "activation_vms": report.activation_virtual_ms,
        "lint_ms": report.lint_time_s * 1e3,
        "push_ms": report.push_time_s * 1e3,
        "adapters": [(r.domain, r.delta, r.bytes, r.push_time_s * 1e3)
                     for r in report.adapters],
    }
    if report.mapping is not None:
        lifted["cost"] = report.mapping.cost
        lifted["nodes_examined"] = report.mapping.nodes_examined
    return lifted


class GcWatch:
    """Counts full collections and sums collector pauses while armed."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_ns = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._started
            self.gen2 += info["generation"] == 2

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


@dataclass
class Trial:
    """Everything one trial measured; :mod:`bench.metrics` reads it."""

    workload: Workload
    seed: int
    rec: Recorder
    tracer: Optional[Tracer]
    setup_s: list[float]
    #: how much slower than the reference speed the machine ran during
    #: the set-ups / the timed cycles; :mod:`bench.metrics` divides by it
    setup_slowdown: float
    slowdown: float
    timed_wall_s: float
    gc: GcWatch
    peak_rss_mb: float

    @property
    def correct(self) -> bool:
        return not self.rec.problems


def _set_up(cls: type[Workload], seed: int, quick: bool,
            rec: Recorder) -> tuple[Workload, float]:
    """Build + fill + one discarded warm-up cycle; returns the set-up
    time (less the calibration samples taken meanwhile), which is outside
    every other metric."""
    gc.collect()
    sampled = len(rec.setup_speed)
    started = time.perf_counter()
    workload = cls(seed, quick=quick)
    workload.build()
    rec.attach(workload)
    rec.phase = "fill"
    rec.begin_cycle(-1)
    workload.fill(rec)
    rec.phase = "warmup"
    workload.cycle(rec, -1)
    rec.end_cycle(0.0)
    elapsed = time.perf_counter() - started
    return workload, elapsed - sum(rec.setup_speed[sampled:]) / 1e3


def _tear_down(workload: Workload, rec: Recorder) -> None:
    rec.phase = "drain"
    rec.begin_cycle(-1)
    workload.drain(rec)
    for problem in workload.leaks():
        rec.problems.append(f"leak after drain: {problem}")
    workload.close()


def run_trial(name: str, seed: int, seconds: float, *, trace: bool,
              quick: bool = False) -> Trial:
    cls = WORKLOADS[name]
    rec = Recorder()
    perf.reset()

    setup_s: list[float] = []
    while True:
        workload, elapsed = _set_up(cls, seed, quick, rec)
        setup_s.append(elapsed)
        if len(setup_s) == workload.setups:
            break
        _tear_down(workload, rec)
        del workload

    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        workload.instrument(tracer)
    cycles = workload.cycles_for(seconds)

    def one_cycle(index: int) -> None:
        rec.begin_cycle(index)
        cycle_started = time.perf_counter()
        workload.cycle(rec, index)
        rec.end_cycle(time.perf_counter() - cycle_started)

    # every two blocks one is traced and one is not, in random order: a
    # fixed alternation would beat against the request stream's own
    # periods (SAP pairs, directions) and against the collector's
    block_order = random.Random(seed)
    plan: list[bool] = []
    rec.phase = "timed"
    gc.collect()
    try:
        with GcWatch() as gc_watch:
            started = time.perf_counter()
            for index in range(cycles):
                if tracer is not None and index % TRACE_BLOCK == 0:
                    if not plan:
                        plan = [True, False]
                        block_order.shuffle(plan)
                    if plan.pop():
                        tracer.install()
                        rec.tracer = tracer
                    else:
                        tracer.remove()
                        rec.tracer = None
                rec.timed_speed.append(calibrate.sample())
                one_cycle(index)
            timed_wall_s = time.perf_counter() - started
    finally:
        rec.tracer = None
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the fixed cycles are what every metric is taken over; a window
    # that they did not fill is padded with cycles no metric uses
    rec.phase = "padding"
    index = cycles
    while time.perf_counter() - started < seconds:
        one_cycle(index)
        index += 1
    _tear_down(workload, rec)

    return Trial(workload=workload, seed=seed, rec=rec, tracer=tracer,
                 setup_s=setup_s,
                 setup_slowdown=calibrate.slowdown(rec.setup_speed),
                 slowdown=calibrate.slowdown(rec.timed_speed),
                 timed_wall_s=timed_wall_s, gc=gc_watch,
                 peak_rss_mb=peak_rss_mb)


def write_trace(trial: Trial) -> None:
    """``bench/out/trace-<workload>.json``: every span of the trial."""
    OUT_DIR.mkdir(exist_ok=True)
    body = {"workload": trial.workload.name, "seed": trial.seed,
            **trial.tracer.to_json()}
    path = OUT_DIR / f"trace-{trial.workload.name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle)
