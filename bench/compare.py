"""``python -m bench compare A.json B.json``.

One row per workload x end-to-end metric: both medians, the quartiles
over trials, the bound, and a verdict.

- ``worse`` / ``better``: the candidate's median is worse / better than
  the baseline's by more than the metric's bound (for a bound of 0, by
  anything at all);
- ``same``: within the bound;
- ``unresolved``: the trial-to-trial spread of either side exceeds the
  bound *and* the two sides' trials overlap, so the runs cannot tell.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from bench.metrics import END_TO_END, Metric, quartiles

EXIT_WORSE = 1


def worsening(metric: Metric, baseline: float, candidate: float) -> float:
    """By how much of the baseline the candidate is worse (negative:
    better)."""
    delta = candidate - baseline
    if metric.better == "higher":
        delta = -delta
    if baseline == 0:
        return math.copysign(math.inf, delta) if delta else 0.0
    return delta / abs(baseline)


def _spread(trials: list[float]) -> float:
    q1, median, q3 = quartiles(trials)
    return (q3 - q1) / abs(median) if median else 0.0


def _overlap(a: list[float], b: list[float]) -> bool:
    return min(a) <= max(b) and min(b) <= max(a)


def verdict(metric: Metric, baseline: dict, candidate: dict) -> str:
    bound = metric.bound or 0.0
    a, b = baseline["trials"], candidate["trials"]
    if (max(_spread(a), _spread(b)) > bound and _overlap(a, b)
            and not metric.exact):
        return "unresolved"
    worse_by = worsening(metric, baseline["value"], candidate["value"])
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _quartile_text(trials: list[float]) -> str:
    q1, _, q3 = quartiles(trials)
    return f"[{q1:.4g}..{q3:.4g}]"


def compare(baseline: dict, candidate: dict) -> tuple[list[str], int]:
    """Report lines and how many rows are worse."""
    lines = []
    for side, result in (("A", baseline), ("B", candidate)):
        s = result["stamp"]
        lines.append(
            f"{side}: sha={s['git_sha'][:12]}{'+dirty' if s['git_dirty'] else ''}"
            f" seed={s['seed']} seconds={s['seconds']:g} trials={s['trials']}"
            f" machine={s['machine_fingerprint']} python={s['python']}")
    if baseline["stamp"]["machine_fingerprint"] \
            != candidate["stamp"]["machine_fingerprint"]:
        lines.append("WARNING: the two files come from different machines")
    lines.append(f"{'workload':14s} {'metric':24s} {'unit':6s} "
                 f"{'A median':>12s} {'A quartiles':>22s} "
                 f"{'B median':>12s} {'B quartiles':>22s} "
                 f"{'worse by':>8s} {'bound':>6s}  verdict")
    worse = 0
    for name, entry in baseline["workloads"].items():
        other = candidate["workloads"].get(name)
        if other is None:
            lines.append(f"{name:14s} missing from B")
            continue
        for metric in END_TO_END:
            a: Optional[dict] = entry["end_to_end"].get(metric.name)
            b: Optional[dict] = other["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            outcome = verdict(metric, a, b)
            worse += outcome == "worse"
            change = worsening(metric, a["value"], b["value"])
            lines.append(
                f"{name:14s} {metric.name:24s} {metric.unit:6s} "
                f"{a['value']:12.4f} {_quartile_text(a['trials']):>22s} "
                f"{b['value']:12.4f} {_quartile_text(b['trials']):>22s} "
                f"{change * 100:+7.1f}% {(metric.bound or 0) * 100:5.0f}%"
                f"  {outcome}")
    lines.append(f"{worse} row(s) worse")
    return lines, worse


def compare_files(baseline_path: str, candidate_path: str) -> int:
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(candidate_path, encoding="utf-8") as handle:
        candidate = json.load(handle)
    lines, worse = compare(baseline, candidate)
    print("\n".join(lines))
    return EXIT_WORSE if worse else 0
