"""Command-line entry point: ``python -m repro`` (or the ``repro``
console script).

Subcommands:

- ``demo``       — deploy the reference chain over the Fig. 1 testbed,
                   drive probe traffic, print the full report;
- ``topology``   — print the merged global view (ASCII or DOT);
- ``lint``       — static-analyze NFFG JSON files (exit 0 clean,
                   1 findings at/above the fail level, 2 parse error);
- ``check``      — the runtime sanitizer smoke: deploys, a reconcile
                   and a teardown under tracked locks, ending in
                   ``cal.verify()`` (exit 0 clean, 1 findings, 2 crash);
- ``scale``      — run one elastic load/idle cycle;
- ``perf``       — deploy a few services and print the push-pipeline
                   counters (delta vs full pushes, dispatcher fan-out);
- ``trace``      — run traced deploys, print the span tree and
                   optionally export Chrome trace_event JSON;
- ``metrics``    — deploy a few services and print histogram/counter
                   metrics in Prometheus text-exposition format;
- ``events``     — replay (or follow) the structured event log as
                   JSONL, optionally under an injected fault schedule;
- ``recover``    — crash the reference control plane between two
                   journal appends (seeded or ``--crash-at``), then
                   rebuild a successor from the write-ahead intent
                   journal and reconcile the domains (``--dry-run``
                   prints the diff without pushing);
- ``catalog``    — list deployable NF types;
- ``experiments``— list the experiment harnesses and how to run them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.cli.render import render_deploy_report
    from repro.cli.scenario import ScenarioRunner
    from repro.service import ServiceRequestBuilder
    from repro.topo import build_reference_multidomain

    testbed = build_reference_multidomain()
    request = (ServiceRequestBuilder("demo")
               .sap("sap1").sap("sap2")
               .nf("demo-fw", "firewall").nf("demo-nat", "nat")
               .chain("sap1", "demo-fw", "demo-nat", "sap2",
                      bandwidth=args.bandwidth)
               .delay_requirement("sap1", "sap2", max_delay=args.max_delay)
               .build())
    runner = ScenarioRunner(testbed)
    report, traffic = runner.deploy_and_probe(request, "sap1", "sap2",
                                              count=args.packets)
    print(render_deploy_report(report))
    if not report.success:
        return 1
    print(f"\nprobe: {traffic.delivered}/{traffic.sent} delivered, "
          f"mean latency {traffic.mean_latency_ms:.2f} vms")
    print("path: " + " -> ".join(traffic.traces[0]))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.cli.render import render_dot, render_nffg
    from repro.topo import build_reference_multidomain

    testbed = build_reference_multidomain(
        emu_switches=args.emu_switches, sdn_switches=args.sdn_switches)
    view = testbed.escape.resource_view()
    if args.format == "dot":
        print(render_dot(view, title="global-view"))
    else:
        print(render_nffg(view))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.elastic import ElasticityController, ScalingRule
    from repro.netem.packet import tcp_packet
    from repro.service import ServiceRequestBuilder
    from repro.topo import build_emulated_testbed

    def version(level: int):
        builder = (ServiceRequestBuilder("scale")
                   .sap("sap1").sap("sap2"))
        names = []
        for index in range(level):
            name = f"scale-w{index}"
            builder.nf(name, "forwarder")
            names.append(name)
        builder.chain("sap1", *names, "sap2", bandwidth=1.0)
        return builder.build().sg

    testbed = build_emulated_testbed(switches=2)
    testbed.escape.deploy(version(1))
    controller = ElasticityController(testbed.escape)
    controller.manage("scale",
                      ScalingRule(metric_hop="scale-hop1",
                                  scale_out_pps=args.threshold,
                                  scale_in_pps=args.threshold / 10,
                                  max_level=args.max_level),
                      version)
    src, dst = testbed.host("sap1"), testbed.host("sap2")
    print(f"level {controller.managed_level('scale')} — blasting "
          f"{args.packets} packets...")
    src.send_burst([tcp_packet(src.ip, dst.ip, tp_src=42000 + i)
                    for i in range(args.packets)], interval=1.0)
    testbed.run()
    for event in controller.poll():
        print(f"  {event.action.value}: level {event.level_before} -> "
              f"{event.level_after} at {event.observed_pps:.0f} pps")
    testbed.network.simulator.schedule(30_000.0, lambda: None)
    testbed.run()
    for event in controller.poll():
        print(f"  {event.action.value}: level {event.level_before} -> "
              f"{event.level_after} at {event.observed_pps:.1f} pps")
    print(f"final level {controller.managed_level('scale')}")
    return 0


#: ``repro lint`` exit codes (conventional linter contract): 0 = clean,
#: 1 = findings at/above the fail level, 2 = input could not be analyzed
#: (parse error, missing file); ``repro check`` answers 1 for sanitizer
#: findings and 2 when the smoke itself fails
LINT_CLEAN = 0
LINT_FINDINGS = 1
LINT_PARSE_ERROR = 2


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import (
        Severity,
        lint_nffg,
        render_json,
        render_rule_catalog,
        render_sarif,
        render_text,
    )
    from repro.mapping.decomposition import default_decomposition_library
    from repro.nffg.graph import NFFGError
    from repro.nffg.serialize import nffg_from_dict

    if args.list_rules:
        print(render_rule_catalog())
        return LINT_CLEAN

    if not args.files:
        print("repro lint: no input files (see --list-rules)",
              file=sys.stderr)
        return LINT_PARSE_ERROR

    threshold = Severity.from_name(args.fail_level)
    render = {"json": render_json, "sarif": render_sarif}.get(
        args.format, render_text)
    library = default_decomposition_library()
    worst = LINT_CLEAN
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            nffg = nffg_from_dict(data)
        except (OSError, ValueError, KeyError, NFFGError) as exc:
            print(f"{path}: cannot load NFFG: {exc}", file=sys.stderr)
            return LINT_PARSE_ERROR
        diagnostics = lint_nffg(nffg, decomposition_library=library)
        print(render(diagnostics, source=path))
        if diagnostics.at_least(threshold):
            worst = LINT_FINDINGS
    return worst


def _sanitizer_smoke():
    """Exercise the instrumented control plane under a fresh sanitizer
    state: two deploys one after the other (each fans its pushes out
    over the dispatcher's workers), a reconcile and a teardown drive
    every tracked lock, ``cal.verify()`` checks the derived state they
    left, then the state's report is the verdict."""
    from repro import sanitize
    from repro.service import ServiceRequestBuilder

    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        # built *after* enable() so every control-plane lock is tracked
        from repro.topo import build_reference_multidomain

        testbed = build_reference_multidomain()
        for index in range(2):
            request = (ServiceRequestBuilder(f"check{index}")
                       .sap("sap1").sap("sap2")
                       .nf(f"check{index}-fw", "firewall")
                       .chain("sap1", f"check{index}-fw", "sap2",
                              bandwidth=1.0).build())
            report = testbed.service_layer.submit(request)
            if not report.success:
                raise RuntimeError(f"smoke deploy failed: {report.error}")
        testbed.escape.cal.reconcile()
        testbed.escape.teardown("check0")
        problems = testbed.escape.cal.verify()
        if problems:
            raise RuntimeError(f"derived state drifted: {problems}")
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    return state.report()


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        report = _sanitizer_smoke()
    except Exception as exc:  # noqa: BLE001 - smoke must not crash CI silently
        print(f"repro check: sanitizer smoke failed: {exc}", file=sys.stderr)
        return LINT_PARSE_ERROR
    print(report.render_text())
    return LINT_CLEAN if report.ok() else LINT_FINDINGS


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.cli.render import render_deploy_report
    from repro.mapping.registry import make_embedder
    from repro.service import ServiceRequestBuilder
    from repro.topo import build_reference_multidomain

    def request(index: int):
        return (ServiceRequestBuilder(f"svc{index}")
                .sap("sap1").sap("sap2")
                .nf(f"svc{index}-fw", "firewall")
                .nf(f"svc{index}-nat", "nat")
                .chain("sap1", f"svc{index}-fw", f"svc{index}-nat", "sap2",
                       bandwidth=2.0).build())

    testbed = build_reference_multidomain(
        embedder=make_embedder(args.embedder))
    perf.reset()
    report = None
    for index in range(args.deploys):
        report = testbed.service_layer.submit(request(index))
        if not report.success:
            print(f"deploy svc{index} failed: {report.error}",
                  file=sys.stderr)
            return 1
    assert report is not None
    print(f"embedder: {args.embedder}")
    print(f"last deploy ({args.deploys} total):")
    print(render_deploy_report(report))
    index_stats = testbed.escape.cal.substrate_index.stats()
    print("\nsubstrate index: "
          f"{index_stats['infras']} infras / {index_stats['types']} typed "
          f"candidate sets, {index_stats['applies']} incremental applies, "
          f"{index_stats['rebuilds']} rebuilds")
    print("\ncontrol-plane counters:")
    snapshot = perf.snapshot()
    shown = False
    for prefix in ("push.", "dispatch.", "cal.", "mapping."):
        for name in sorted(name for name in snapshot if
                           name.startswith(prefix)):
            print(f"  {name:24s} {snapshot[name]:g}")
            shown = True
    if not shown:
        print("  (none recorded)")
    return 0


def _reference_requests(count: int, prefix: str):
    """Service requests for the observability subcommands: ``count``
    two-NF chains over the Fig. 1 reference testbed."""
    from repro.service import ServiceRequestBuilder

    for index in range(count):
        yield (ServiceRequestBuilder(f"{prefix}{index}")
               .sap("sap1").sap("sap2")
               .nf(f"{prefix}{index}-fw", "firewall")
               .nf(f"{prefix}{index}-nat", "nat")
               .chain("sap1", f"{prefix}{index}-fw", f"{prefix}{index}-nat",
                      "sap2", bandwidth=2.0)
               .build())


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.obs.trace import render_tree, validate_chrome_trace
    from repro.topo import build_reference_multidomain

    previous = obs.disable()
    state = obs.enable(fresh=True)
    try:
        testbed = build_reference_multidomain()
        for index, request in enumerate(
                _reference_requests(args.deploys, "trace")):
            report = testbed.service_layer.submit(request)
            if not report.success:
                print(f"deploy trace{index} failed: {report.error}",
                      file=sys.stderr)
                return 1
    finally:
        obs.disable()
        obs.restore(previous)
    print(render_tree(state.tracer))
    if args.chrome:
        data = state.tracer.export_chrome()
        problems = validate_chrome_trace(data)
        if problems:
            for problem in problems:
                print(f"repro trace: invalid trace: {problem}",
                      file=sys.stderr)
            return 1
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
        print(f"\nwrote {len(data['traceEvents'])} trace events to "
              f"{args.chrome} (load in Perfetto or chrome://tracing)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.obs.metrics import render_prometheus
    from repro.topo import build_reference_multidomain

    testbed = build_reference_multidomain()
    perf.reset()
    for index, request in enumerate(
            _reference_requests(args.deploys, "svc")):
        report = testbed.service_layer.submit(request)
        if not report.success:
            print(f"deploy svc{index} failed: {report.error}",
                  file=sys.stderr)
            return 1
    print(render_prometheus(counter_snapshot=perf.snapshot()), end="")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.obs.events import render_jsonl
    from repro.topo import build_reference_multidomain

    previous = obs.disable()
    state = obs.enable(fresh=True)
    if args.follow:
        # tail mode: print each event the moment it is emitted instead
        # of replaying the ring afterwards
        state.events.subscribe(
            lambda event: print(json.dumps(event, default=str)))
    failures = 0
    try:
        testbed = build_reference_multidomain()
        if args.faults:
            from repro.resilience.faults import FaultPlan, FaultyAdapter

            cal = testbed.escape.cal
            plan = FaultPlan.random_plan(args.seed, sorted(cal.adapters),
                                         rate=0.3, length=20)
            for name, adapter in list(cal.adapters.items()):
                cal.adapters[name] = FaultyAdapter(adapter, plan)
        for request in _reference_requests(args.deploys, "ev"):
            report = testbed.service_layer.submit(request)
            if not report.success:
                failures += 1
    finally:
        obs.disable()
        obs.restore(previous)
    if not args.follow:
        events = state.events.events(limit=args.limit)
        if events:
            print(render_jsonl(events))
    if failures:
        print(f"repro events: {failures} deploy(s) failed under faults "
              "(see deploy events above)", file=sys.stderr)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.recovery import (
        CrashPlan,
        IntentJournal,
        OrchestratorCrash,
        recover,
    )
    from repro.topo import build_reference_multidomain

    journal = IntentJournal(args.journal,
                            checkpoint_every=args.checkpoint_every)
    if args.crash_at is not None:
        journal.crash_plan = CrashPlan(at=args.crash_at,
                                       label=f"--crash-at {args.crash_at}")
    else:
        journal.crash_plan = CrashPlan.random_plan(
            args.seed, horizon=max(4, args.deploys * 4))
    testbed = build_reference_multidomain()
    escape = testbed.escape
    escape.journal = journal
    journal.state_provider = escape.export_state

    crashed = None
    try:
        for index, request in enumerate(
                _reference_requests(args.deploys, "rc")):
            report = testbed.service_layer.submit(request)
            if not report.success:
                print(f"deploy rc{index} failed: {report.error}",
                      file=sys.stderr)
                return 1
        escape.teardown("rc0")
    except OrchestratorCrash as crash:
        crashed = crash
    if crashed is not None:
        print(f"orchestrator crashed: {crashed}")
    else:
        print(f"no crash point hit in {journal.total_appends} journal "
              "appends; recovering anyway")

    if args.journal:
        # prove the on-disk log round-trips: recover from a re-read
        # file, exactly as a successor process would
        journal.close()
        journal = IntentJournal.load(args.journal)
        print(f"re-read {len(journal)} journal record(s) from "
              f"{args.journal}")
    adapters = list(escape.cal.adapters.values())
    result = recover(journal, adapters, name=f"{escape.name}-successor",
                     dry_run=args.dry_run)
    print(result.render_text())
    if args.dry_run:
        return 0

    successor = result.orchestrator
    expected = sorted(journal.replay().state.get("services", {}))
    actual = sorted(successor.deployed_services())
    if actual != expected or not result.ok():
        print(f"recovery DIVERGED: books {actual} vs journal {expected}, "
              f"pushes ok={result.ok()}", file=sys.stderr)
        return 1
    print(f"verified: successor books {len(actual)} service(s), journal "
          "fold matches, every reconciliation push landed")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.click.catalog import NF_CATALOG

    for name in sorted(NF_CATALOG):
        impl = NF_CATALOG[name]
        resources = impl.default_resources
        print(f"{name:14s} cpu={resources.cpu:<4g} mem={resources.mem:<6g} "
              f"{impl.description}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    experiments = [
        ("FIG1", "joint control plane over 4 domains",
         "test_bench_fig1_stack.py"),
        ("DEMO-i", "BiS-BiS abstraction", "test_bench_abstraction.py"),
        ("DEMO-ii", "deploy over unified resources", "test_bench_deploy.py"),
        ("DEMO-iii(a)", "recursive orchestration",
         "test_bench_recursion.py"),
        ("DEMO-iii(b)", "NF decomposition", "test_bench_decomposition.py"),
        ("EXT-1", "embedding scalability", "test_bench_mapping_scale.py"),
        ("EXT-2", "control-channel overhead",
         "test_bench_control_plane.py"),
        ("EXT-3", "dataplane behaviour", "test_bench_dataplane.py"),
        ("EXT-3m", "mapping quality x speed matrix",
         "test_bench_mapping_matrix.py"),
        ("EXT-4", "service churn", "test_bench_churn.py"),
        ("EXT-5", "elastic scaling", "test_bench_elastic.py"),
        ("ABL-1", "view-policy ablation", "test_bench_view_ablation.py"),
    ]
    for exp_id, title, target in experiments:
        print(f"{exp_id:12s} {title:36s} "
              f"pytest benchmarks/{target} --benchmark-only -s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-domain service orchestration (SIGCOMM'15 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="deploy + probe the demo chain")
    demo.add_argument("--bandwidth", type=float, default=10.0)
    demo.add_argument("--max-delay", type=float, default=80.0)
    demo.add_argument("--packets", type=int, default=5)
    demo.set_defaults(func=_cmd_demo)

    topology = sub.add_parser("topology", help="print the global view")
    topology.add_argument("--format", choices=("ascii", "dot"),
                          default="ascii")
    topology.add_argument("--emu-switches", type=int, default=2)
    topology.add_argument("--sdn-switches", type=int, default=2)
    topology.set_defaults(func=_cmd_topology)

    lint = sub.add_parser(
        "lint", help="static-analyze NFFG JSON files")
    lint.add_argument("files", nargs="*", metavar="NFFG.json",
                      help="NFFG files (nffg_to_dict JSON) to analyze")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text")
    lint.add_argument("--fail-level", choices=("info", "warning", "error"),
                      default="warning",
                      help="lowest severity that causes exit code 1")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.set_defaults(func=_cmd_lint)

    check = sub.add_parser(
        "check",
        help="sanitizer smoke: deploy, reconcile and tear down under "
             "tracked locks, then cal.verify()")
    check.set_defaults(func=_cmd_check)

    scale = sub.add_parser("scale", help="run an elastic scaling cycle")
    scale.add_argument("--packets", type=int, default=250)
    scale.add_argument("--threshold", type=float, default=100.0)
    scale.add_argument("--max-level", type=int, default=3)
    scale.set_defaults(func=_cmd_scale)

    from repro.mapping.registry import embedder_names
    perf = sub.add_parser(
        "perf", help="print control-plane counters for a deploy run")
    perf.add_argument("--deploys", type=int, default=3,
                      help="number of services to deploy (default 3)")
    perf.add_argument("--embedder", choices=embedder_names(),
                      default="greedy",
                      help="embedding algorithm (default greedy)")
    perf.set_defaults(func=_cmd_perf)

    trace = sub.add_parser(
        "trace", help="trace reference deploys; print the span tree")
    trace.add_argument("--deploys", type=int, default=2,
                       help="number of services to deploy (default 2)")
    trace.add_argument("--chrome", metavar="PATH",
                       help="also write a Chrome trace_event JSON file "
                            "(Perfetto / chrome://tracing)")
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="deploy a few services, print Prometheus-format metrics")
    metrics.add_argument("--deploys", type=int, default=5,
                         help="number of services to deploy (default 5)")
    metrics.set_defaults(func=_cmd_metrics)

    events = sub.add_parser(
        "events", help="print the structured event log as JSONL")
    events.add_argument("--deploys", type=int, default=2,
                        help="number of services to deploy (default 2)")
    events.add_argument("--faults", action="store_true",
                        help="inject a seeded random fault schedule so "
                             "retry/breaker events show up")
    events.add_argument("--seed", type=int, default=7,
                        help="fault schedule seed (with --faults)")
    events.add_argument("--follow", action="store_true",
                        help="print events live as they are emitted "
                             "instead of replaying the ring at the end")
    events.add_argument("--limit", type=int, default=None,
                        help="only replay the last N events")
    events.set_defaults(func=_cmd_events)

    recover_p = sub.add_parser(
        "recover",
        help="crash the reference control plane mid-run, then recover "
             "it from the write-ahead intent journal")
    recover_p.add_argument("--deploys", type=int, default=4,
                           help="services to deploy before the crash "
                                "window closes (default 4)")
    recover_p.add_argument("--seed", type=int, default=7,
                           help="seed for the crash point (default 7)")
    recover_p.add_argument("--crash-at", type=int, default=None,
                           metavar="K",
                           help="crash before journal append #K instead "
                                "of the seeded point")
    recover_p.add_argument("--journal", metavar="PATH", default=None,
                           help="file-backed JSONL journal; recovery "
                                "re-reads it from disk (default: "
                                "in-memory)")
    recover_p.add_argument("--checkpoint-every", type=int, default=32,
                           help="commits between checkpoints (default 32)")
    recover_p.add_argument("--dry-run", action="store_true",
                           help="print the recovery diff without pushing "
                                "or growing the journal")
    recover_p.set_defaults(func=_cmd_recover)

    catalog = sub.add_parser("catalog", help="list deployable NF types")
    catalog.set_defaults(func=_cmd_catalog)

    experiments = sub.add_parser("experiments",
                                 help="list experiment harnesses")
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into head/less that exited — not an error
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001 - best effort on teardown
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
