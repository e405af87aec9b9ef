"""Running trials: one in this process, or the whole set in
subprocesses, interleaved, stamped and written to ``bench/out/``."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

from bench import OUT_DIR, REPO_ROOT
from bench.metrics import END_TO_END, percentile, supports

EXIT_INCORRECT = 1

#: untraced trials per workload of a ``bench run``
TRIALS = 5


# -- one trial, in this process ----------------------------------------------------


def run_one(name: str, *, seed: int, seconds: float, trace: bool,
            quick: bool, detail: Optional[str]) -> int:
    from bench import layers
    from bench.metrics import end_to_end, for_driver
    from bench.trial import run_trial, write_trace
    from bench.workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"bench: unknown workload {name!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trial = run_trial(name, seed, seconds, trace=trace, quick=quick)
    e2e = end_to_end(trial)
    layer_values = layers.per_layer(trial)
    accounting = layers.accounting(trial) if trace else {}
    if trace:
        write_trace(trial)
        if trial.workload.headline == "deploy":
            _check_accounting(trial, accounting)

    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"setups={len(trial.setup_s)} cycles={len(trial.rec.cycles)} "
          f"in {trial.timed_wall_s:.1f} s, ops={len(trial.rec.ops)}, "
          f"machine {trial.slowdown:.3f}x slower than reference "
          f"({trial.setup_slowdown:.3f}x during set-up)")
    for metric in END_TO_END:
        value = e2e[metric.name]
        if value.value is not None:
            print(f"{metric.name:46s} {value.value:14.4f} {metric.unit:6s}"
                  f" n={value.count}")
    if trace:
        for metric in layers.PER_LAYER:
            print(f"{metric.name:46s} {layer_values[metric.name]:14.4f} "
                  f"{metric.unit}")
        for key, value in accounting.items():
            print(f"{'check.' + key:46s} {value:14.4f} %")
    for problem in trial.rec.problems[:20]:
        print(f"PROBLEM: {problem}")

    if detail:
        _write_json(Path(detail), {
            "workload": name, "seed": seed, "seconds": seconds,
            "traced": trace, "correct": trial.correct,
            "problems": trial.rec.problems,
            "attempted": len(trial.rec.ops), "failed": trial.rec.failed,
            "setups": len(trial.setup_s), "cycles": len(trial.rec.cycles),
            "slowdown": trial.slowdown,
            "setup_slowdown": trial.setup_slowdown,
            "end_to_end": {key: {"value": v.value, "count": v.count,
                                 "samples": v.samples}
                           for key, v in e2e.items()},
            "per_layer": layer_values,
            "accounting": accounting,
        })

    if trace:
        reported = {**layer_values, **layers.workload_specific(trial)}
    else:
        reported = for_driver(trial)
    units = {metric.name: metric.unit
             for metric in (*END_TO_END, *layers.PER_LAYER)}
    print(json.dumps({
        "correct": trial.correct,
        "attempted": len(trial.rec.ops),
        "failed": trial.rec.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in reported.items()},
    }))
    return 0 if trial.correct else EXIT_INCORRECT


def _check_accounting(trial, accounting: dict[str, float]) -> None:
    if accounting.get("accounted_pct", 100.0) < 90.0:
        trial.rec.problems.append(
            "spans account for only "
            f"{accounting['accounted_pct']:.1f}% of the deploy span")
    if abs(accounting.get("push_span_vs_report_pct", 0.0)) > 5.0:
        trial.rec.problems.append(
            "push span differs from DeployReport.push_time_s by "
            f"{accounting['push_span_vs_report_pct']:.1f}%")


def _write_json(path: Path, body: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- stamping ------------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=REPO_ROOT, timeout=30,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int, seconds: float, quick: bool) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    machine = {"machine": platform.machine(), "cpu": _cpu_model(),
               "nproc": os.cpu_count(), "system": platform.system(),
               "release": platform.release()}
    fingerprint = hashlib.sha256(
        json.dumps(machine, sort_keys=True).encode()).hexdigest()[:12]
    return {"git_sha": sha or "nogit", "git_dirty": bool(status),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": machine, "machine_fingerprint": fingerprint,
            "seed": seed, "seconds": seconds, "trials": TRIALS,
            "quick": quick}


# -- the whole set ---------------------------------------------------------------------


def deterministic_env() -> dict[str, str]:
    """The environment trials run in.  String hashing is pinned: host
    addresses and set iteration order inside the program depend on it,
    and the exact-count metrics must repeat for a seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT)] + [p for p in (env.get("PYTHONPATH"),) if p])
    return env


def spawn_trial(name: str, seed: int, seconds: float, trace: bool,
                quick: bool, detail: Path) -> dict:
    """One trial in a fresh process; returns what it wrote to ``detail``."""
    command = [sys.executable, "-m", "bench", "run", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--detail", str(detail)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=REPO_ROOT, env=deterministic_env(),
                          capture_output=True, text=True, timeout=600)
    if done.returncode not in (0, EXIT_INCORRECT) or not detail.is_file():
        raise RuntimeError(f"trial of {name} died ({done.returncode}):\n"
                           f"{done.stdout}\n{done.stderr}")
    with open(detail, encoding="utf-8") as handle:
        body = json.load(handle)
    detail.unlink()
    return body


def aggregate(metric, trials: list[dict]) -> Optional[dict]:
    """Fold one end-to-end metric over the trials of a workload.

    A p50 is the median of the per-trial medians; a p90 is taken over
    the pooled samples of all trials; exact metrics must agree across
    trials (same seed); anything else is the median of the trials."""
    per_trial = [t["end_to_end"][metric.name] for t in trials]
    values = [entry["value"] for entry in per_trial
              if entry["value"] is not None]
    if not values:
        return None
    samples = sum(entry["count"] for entry in per_trial)
    folded = {"unit": metric.unit, "trials": values, "samples": samples}
    if metric.name.endswith("_p90"):
        pooled = [s for entry in per_trial for s in entry["samples"] or ()]
        folded["value"] = percentile(pooled, 90)
        folded["ten_beyond"] = supports(len(pooled), 90)
    else:
        folded["value"] = statistics.median(values)
    if metric.exact:
        folded["repeats"] = len(set(values)) == 1
    return folded


def run_all(*, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    from bench import layers
    from bench.workloads import WORKLOADS

    names = list(WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    header = stamp(seed, seconds, quick)
    print(f"# bench run: sha={header['git_sha'][:12]}"
          f"{'+dirty' if header['git_dirty'] else ''} seed={seed} "
          f"seconds={seconds:g} trials={TRIALS} "
          f"machine={header['machine_fingerprint']} nproc={header['nproc']}",
          flush=True)

    # round-robin over workloads so a slow period of the machine is
    # spread over all of them instead of landing on one
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for trial in range(TRIALS):
        for name in names:
            detail = OUT_DIR / f".trial-{name}-{os.getpid()}.json"
            body = spawn_trial(name, seed, seconds, False, quick, detail)
            untraced[name].append(body)
            print(f"  trial {trial + 1}/{TRIALS} {name}: "
                  f"{body['cycles']} cycles, "
                  f"machine {body['slowdown']:.2f}x slower, "
                  f"{'ok' if body['correct'] else 'INCORRECT'}", flush=True)
    traced: dict[str, dict] = {}
    if trace:
        for name in names:
            detail = OUT_DIR / f".trial-{name}-{os.getpid()}.json"
            traced[name] = spawn_trial(name, seed, seconds, True, quick, detail)
            print(f"  traced {name}: {traced[name]['cycles']} cycles, "
                  f"{'ok' if traced[name]['correct'] else 'INCORRECT'}",
                  flush=True)

    failures: list[str] = []
    result = {"stamp": header, "workloads": {}}
    for name in names:
        bodies = untraced[name] + ([traced[name]] if trace else [])
        for body in bodies:
            failures += [f"{name}: {problem}" for problem in body["problems"]]
        entry = {
            "why": WORKLOADS[name].why,
            "cycles": untraced[name][0]["cycles"],
            "setups": [t["setups"] for t in untraced[name]],
            "slowdown": [t["slowdown"] for t in untraced[name]],
            "setup_slowdown": [t["setup_slowdown"] for t in untraced[name]],
            "attempted": sum(t["attempted"] for t in untraced[name]),
            "failed": sum(t["failed"] for t in untraced[name]),
            "end_to_end": {},
        }
        for metric in END_TO_END:
            folded = aggregate(metric, untraced[name])
            if folded is None:
                continue
            entry["end_to_end"][metric.name] = folded
            if folded.get("repeats") is False:
                failures.append(f"{name}: {metric.name} is marked exact but "
                                f"differs between trials: {folded['trials']}")
        if trace:
            entry["per_layer"] = traced[name]["per_layer"]
            entry["accounting"] = traced[name]["accounting"]
            # the tail needs every sample there is: pool the untraced
            # trials instead of the traced trial's untraced half
            pooled = [ms for t in untraced[name] for ms in
                      t["end_to_end"]["deploy_ms_p50"]["samples"] or ()]
            entry["per_layer"]["service.deploy_ms_p99"] = (
                percentile(pooled, 99) if pooled else 0.0)
        result["workloads"][name] = entry

    _print_report(result, layers.PER_LAYER if trace else ())
    path = OUT_DIR / f"{header['git_sha'][:12]}-{seed}.json"
    _write_json(path, result)
    print(f"\nwrote {path.relative_to(REPO_ROOT)}")
    for failure in failures[:40]:
        print(f"FAILED CHECK: {failure}")
    return EXIT_INCORRECT if failures else 0


def _print_report(result: dict, layer_metrics) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name}  ({entry['cycles']} cycles/trial, "
              f"{entry['attempted']} operations, {entry['failed']} failed)")
        for metric in END_TO_END:
            folded = entry["end_to_end"].get(metric.name)
            if folded is None:
                continue
            note = ""
            if folded.get("ten_beyond") is False:
                note = "  (fewer than 10 samples beyond)"
            print(f"  {metric.name:44s} {folded['value']:14.4f} "
                  f"{metric.unit:6s} n={folded['samples']}{note}")
        for metric in layer_metrics:
            print(f"  {metric.name:44s} "
                  f"{entry['per_layer'][metric.name]:14.4f} {metric.unit}")
        for key, value in entry.get("accounting", {}).items():
            print(f"  {'check.' + key:44s} {value:14.4f} %")
