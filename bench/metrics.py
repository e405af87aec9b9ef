"""Metric definitions, the statistics they use, and the end-to-end
numbers of one trial.

The names here are the names every later change must use.  A bound is
the share of the baseline median by which a metric may worsen before
``bench compare`` calls it worse; ``exact`` metrics are counts or
virtual times that repeat bit-for-bit for a seed, so any worsening
counts.  Wall-clock metrics are stated at the reference machine speed:
what the clock read, divided by how much slower than that the machine
ran meanwhile (:mod:`bench.calibrate`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from bench.trial import CTRL_BYTES, CTRL_MSGS, Op, Trial


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    #: allowed worsening of the median of a run's trials, as a share of
    #: the baseline (None: not bounded, 0.0: any worsening counts)
    bound: Optional[float] = None
    #: a count or virtual time that repeats bit-for-bit for a seed
    exact: bool = False
    #: the bound ``BENCHMARK.json`` gives the driver, for the metrics
    #: every workload reports non-zero (None: listed under ``per_layer``
    #: there).  The driver compares *single* trials across seeds, and
    #: has one bound for all workloads, so this one sits above the widest
    #: single-trial spread: see README "Bounds".
    driver_bound: Optional[float] = None


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", bound=0.20, driver_bound=0.25),
    Metric("deploy_ms_p50", "ms", bound=0.15, driver_bound=0.25),
    Metric("deploy_ms_p90", "ms", bound=0.20, driver_bound=0.25),
    Metric("teardown_ms_p50", "ms", bound=0.15, driver_bound=0.25),
    Metric("cycles_per_s", "1/s", "higher", bound=0.15, driver_bound=0.25),
    Metric("ctrl_msgs_per_deploy", "count", bound=0.0, exact=True),
    # not exact: parallel pushes draw message ids from shared counters in
    # whatever order the worker threads run, and an id that gains a digit
    # moves a byte from one channel to another (seen: 1 B in 7 MB)
    Metric("ctrl_bytes_per_deploy", "B", bound=0.001),
    Metric("activation_vms_p50", "vms", bound=0.01, exact=True),
    Metric("chain_latency_vms_p50", "vms", bound=0.01, exact=True),
    Metric("pkts_per_s", "1/s", "higher", bound=0.15),
    Metric("update_ms_p50", "ms", bound=0.15),
    Metric("heal_ms_p50", "ms", bound=0.15),
    Metric("recover_ms_p50", "ms", bound=0.15),
    # the driver compares across seeds, where the mix is the same but the
    # order (and on ``federation`` the chords) is not: 3.3 % spread there
    Metric("map_cost_mean", "cost", bound=0.0, exact=True,
           driver_bound=0.10),
    Metric("failed_ops_ratio", "ratio", bound=0.0, exact=True),
    Metric("peak_rss_mb", "MB", bound=0.10, driver_bound=0.10),
)

# -- statistics -----------------------------------------------------------------


def percentile(samples: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100), linear interpolation between
    closest ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports(count: int, p: float) -> bool:
    """A percentile is reported only with at least ten samples beyond
    it (p90 needs 100 samples, p99 needs 1000)."""
    return math.floor(count * (100.0 - p) / 100.0 + 1e-9) >= 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Value:
    """One metric of one trial: the number, how many samples it rests
    on, and the samples themselves when the runner pools them."""

    value: Optional[float]
    count: int = 0
    samples: Optional[list[float]] = None


def _median(samples: list[float]) -> Value:
    if not samples:
        return Value(None)
    return Value(statistics.median(samples), len(samples), samples)


def _mean(samples: list[float]) -> Value:
    if not samples:
        return Value(None)
    return Value(statistics.fmean(samples), len(samples))


# -- selecting operations ---------------------------------------------------------


def ops(trial: Trial, kind: Optional[str], phase: str, *,
        traced: Optional[bool] = None) -> list[Op]:
    """Successful operations of one kind and phase."""
    return [op for op in trial.rec.ops
            if op.kind == kind and op.phase == phase and op.ok
            and (traced is None or op.traced == traced)]


def headline_ops(trial: Trial, **kwargs) -> list[Op]:
    return ops(trial, trial.workload.headline, "timed", **kwargs)


def untraced_cycles(trial: Trial) -> list[float]:
    return [wall for traced, wall in trial.rec.cycles if not traced]


# -- the 16 end-to-end metrics of one trial -------------------------------------------


def _control(trial: Trial, deploy_phase: str, teardown_phase: str,
             slowdown: float) -> dict[str, Value]:
    """The four metrics taken over deploys and teardowns."""
    deploys = [op.ms / slowdown for op in ops(trial, "deploy", deploy_phase,
                                              traced=False)]
    return {
        "deploy_ms_p50": _median(deploys),
        "deploy_ms_p90": (Value(percentile(deploys, 90), len(deploys),
                                deploys) if deploys else Value(None)),
        "teardown_ms_p50": _median(
            [op.ms / slowdown for op in ops(trial, "teardown",
                                            teardown_phase, traced=False)]),
        "map_cost_mean": _mean([op.report["cost"] for op
                                in ops(trial, "deploy", deploy_phase)]),
    }


def end_to_end(trial: Trial) -> dict[str, Value]:
    """Latencies and rates use the timed cycles that ran without span
    wrappers (all of them in an untraced trial)."""
    workload, rec = trial.workload, trial.rec

    def latency(kind: str) -> list[float]:
        return [op.ms / trial.slowdown
                for op in ops(trial, kind, "timed", traced=False)]

    measured = [op for op in rec.ops if op.phase != "padding"]
    failed = (sum(not op.ok for op in measured)
              + sum(phase != "padding" for phase in rec.short_cycles))
    values = {
        "setup_s": _median([seconds / trial.setup_slowdown
                            for seconds in trial.setup_s]),
        **_control(trial, "timed", "timed", trial.slowdown),
        "update_ms_p50": _median(latency("update")),
        "heal_ms_p50": _median(latency("heal")),
        "recover_ms_p50": _median(latency("recover")),
        "failed_ops_ratio": Value(failed / len(measured), len(measured)),
        "peak_rss_mb": Value(trial.peak_rss_mb, 1),
    }
    walls = untraced_cycles(trial)
    values["cycles_per_s"] = Value(
        len(walls) / sum(walls) * trial.slowdown if walls else None,
        len(walls))

    counted = headline_ops(trial)
    msgs = _mean([op.stats[CTRL_MSGS] for op in counted])
    octets = _mean([op.stats[CTRL_BYTES] for op in counted])
    if not msgs.value:  # no control channel behind this workload's adapters
        msgs = octets = Value(None)
    values["ctrl_msgs_per_deploy"] = msgs
    values["ctrl_bytes_per_deploy"] = octets

    waited = [op.report["activation_vms"]
              for op in ops(trial, "deploy", "timed")
              if workload.simulator is not None]
    values["activation_vms_p50"] = _median(waited)
    values["chain_latency_vms_p50"] = _median(rec.latencies)

    bursts = latency("burst")
    values["pkts_per_s"] = (
        Value(len(bursts) * workload.BURST / (sum(bursts) / 1e3),
              len(bursts)) if bursts else Value(None))
    return values


def for_driver(trial: Trial) -> dict[str, Optional[float]]:
    """What an untraced trial reports to the driver, which wants every
    metric it gates from every workload.  Where the timed window has no
    deploy or teardown (``chain_traffic``, ``day2_ring``) the four
    metrics taken over them come from the fill and the drain of the
    set-up instances instead: resident levels ramping from 0, so not the
    same distribution as on the other workloads, and ``bench run`` /
    ``bench compare`` leave them out."""
    values = end_to_end(trial)
    if not trial.workload.control_in_window:
        values.update(_control(trial, "fill", "drain",
                               trial.setup_slowdown))
    return {metric.name: values[metric.name].value
            for metric in END_TO_END if metric.driver_bound is not None}
