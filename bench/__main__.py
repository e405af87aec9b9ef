"""``python -m bench`` — run, compare, selftest.

``run`` without ``--workload`` is the whole benchmark: every workload,
five trials each, one subprocess per trial.  With ``--workload`` it
is one trial in this process, which is also the form the driver calls
(``--workload W --seed N --seconds S --trace 0|1``); its last line of
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from bench import BENCH_DIR, SRC_DIR


def _cmd_run(args: argparse.Namespace) -> int:
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench: nothing to measure: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        from bench.contract import RUN_SECONDS
        seconds = 0.3 if args.quick else RUN_SECONDS
    from bench.runner import deterministic_env, run_all, run_one
    if args.workload is None:
        return run_all(seed=args.seed, seconds=seconds,
                       trace=bool(args.trace), quick=args.quick)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable,
                  [sys.executable, "-m", "bench", *sys.argv[1:]],
                  deterministic_env())
    return run_one(args.workload, seed=args.seed, seconds=seconds,
                   trace=bool(args.trace), quick=args.quick,
                   detail=args.detail)


def _cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare_files
    return compare_files(args.baseline, args.candidate)


def _cmd_selftest(args: argparse.Namespace) -> int:
    import pytest
    return int(pytest.main([str(BENCH_DIR / "test_harness.py"), "-q"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", help="run one trial of this workload "
                     "in this process (default: all workloads)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float,
                     help="timed window of one trial (default: "
                     "run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="also take benchmark-side spans "
                     "and print the per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="tiny sizes, for the self-test only")
    run.add_argument("--detail", help="(one trial) also write everything "
                     "the trial measured to this JSON file")
    run.set_defaults(handler=_cmd_run)

    compare = commands.add_parser(
        "compare", help="compare two result files of `run`")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.set_defaults(handler=_cmd_compare)

    selftest = commands.add_parser("selftest", help="test the harness")
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
