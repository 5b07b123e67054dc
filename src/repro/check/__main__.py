"""CLI for the stress harness: ``python -m repro.check``.

Examples::

    python -m repro.check --seed 42 --episodes 1000 --scheduler gtm
    python -m repro.check --scheduler all --episodes 200
    python -m repro.check --seed 7 --episodes 500 --trace-dir traces \\
        --emit-test tests/check/test_regression_auto.py
    python -m repro.check --backend-differential --scheduler all \\
        --episodes 200

``--backend-differential`` switches from the oracle campaign to the
memory-vs-SQLite LDBS differential: every episode runs once per
backend and any trace / permanent-state / commit-order-witness /
invariant / LDBS-dump divergence fails the run (the CI
``backend-differential`` job).

``--service-fuzz`` fuzzes the live-service layer instead of the bare
schedulers: seeded chaos episodes drive :class:`GTMService` through
the clock/driver seam — drops, reconnects, token replays,
exact-instant BTO expiries, outbox overflows, backend conflict bursts
— and every episode must satisfy the wire contract, the service
bookkeeping sweep, the GTM invariants, and the serializability oracle
(the CI ``service-fuzz`` job).

The two campaign modes exclude each other: naming both is a usage
error.

Exit status 0 = every episode passed the serializability oracle and
the invariant suite; 1 = at least one failure (the minimized episode
and its regression test are printed / written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.check.differential import run_backend_differential_campaign
from repro.check.fuzzer import SCHEDULER_NAMES, FuzzConfig
from repro.check.runner import CampaignReport, run_campaign
from repro.check.service_fuzzer import (
    ServiceFuzzConfig,
    run_service_campaign,
)
from repro.metrics.trace import write_episode_trace
from repro.obs.export import render_frame_summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Seeded stress fuzzing with a serializability "
                    "oracle and structural invariant checks.")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--episodes", type=int, default=100,
                        help="episodes per scheduler (default 100)")
    parser.add_argument("--scheduler", default="gtm",
                        choices=SCHEDULER_NAMES + ("all",),
                        help="scheduler under test (default gtm)")
    parser.add_argument("--max-txns", type=int, default=5,
                        help="max transactions per episode (default 5)")
    parser.add_argument("--max-objects", type=int, default=3,
                        help="max objects per episode (default 3)")
    parser.add_argument("--max-failures", type=int, default=1,
                        help="stop a campaign after this many failures")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing failing episodes")
    parser.add_argument("--emit-test", metavar="FILE",
                        help="write the generated regression test here")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="dump JSON episode traces of failures here")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--backend-differential", action="store_true",
                      help="run the memory-vs-SQLite LDBS backend "
                           "differential instead of the oracle "
                           "campaign; any divergence fails the run")
    mode.add_argument("--service-fuzz", action="store_true",
                      help="fuzz the GTMService frame handler under "
                           "a virtual clock (drops, reconnects, BTO "
                           "expiries, outbox overflows, backend "
                           "faults) instead of the bare schedulers")
    parser.add_argument("--observe", action="store_true",
                        help="record per-episode metrics and print the "
                             "merged fleet table (digest-neutral: never "
                             "changes results)")
    parser.add_argument("--quiet", action="store_true",
                        help="only print campaign summaries")
    return parser


def _report_failures(report: CampaignReport,
                     args: argparse.Namespace) -> None:
    for outcome in report.failures:
        print()
        print(outcome.summary())
        if args.trace_dir and outcome.result is not None:
            trace_name = (f"episode-{report.config.scheduler}"
                          f"-{outcome.spec.index}.json")
            path = write_episode_trace(
                Path(args.trace_dir) / trace_name, outcome.result,
                description=outcome.spec.describe())
            print(f"trace written to {path}")
    if report.shrunk is not None:
        print()
        print(f"minimized: {report.shrunk.describe()}")
        print(f"  {report.shrunk!r}")
    if report.regression_test:
        if args.emit_test:
            target = Path(args.emit_test)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(report.regression_test, encoding="utf-8")
            print(f"regression test written to {target}")
        else:
            print()
            print("--- ready-to-paste regression test ---")
            print(report.regression_test)


def _run_backend_differential(args: argparse.Namespace,
                              schedulers: list[str]) -> int:
    exit_code = 0
    for scheduler in schedulers:
        config = FuzzConfig(scheduler=scheduler,
                            max_txns=args.max_txns,
                            max_objects=args.max_objects)
        progress = None
        if not args.quiet:
            def progress(index: int, ok: bool,
                         _total: int = args.episodes,
                         _name: str = scheduler) -> None:
                done = index + 1
                if done % 100 == 0 or done == _total:
                    print(f"[backend-diff {_name}] {done}/{_total} "
                          f"episodes", file=sys.stderr)
        report = run_backend_differential_campaign(
            config, args.seed, args.episodes,
            max_divergences=args.max_failures,
            progress=progress, observe=args.observe)
        print(report.summary())
        if not report.ok:
            exit_code = 1
            for comparison in report.divergent:
                print()
                print(comparison.summary())
    return exit_code


def _run_service_fuzz(args: argparse.Namespace) -> int:
    config = ServiceFuzzConfig()
    progress = None
    if not args.quiet:
        def progress(index: int, outcome: object,
                     _total: int = args.episodes) -> None:
            done = index + 1
            if done % 100 == 0 or done == _total:
                print(f"[service-fuzz] {done}/{_total} episodes",
                      file=sys.stderr)
    report = run_service_campaign(
        config, args.seed, args.episodes,
        max_failures=args.max_failures,
        shrink_failures=not args.no_shrink,
        progress=progress)
    print(report.summary())
    if report.ok:
        return 0
    for outcome in report.failures:
        print()
        print(outcome.summary())
    if report.shrunk is not None:
        print()
        print(f"minimized: {report.shrunk.describe()}")
        print(f"  {report.shrunk!r}")
    if report.regression_test:
        if args.emit_test:
            target = Path(args.emit_test)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(report.regression_test, encoding="utf-8")
            print(f"regression test written to {target}")
        else:
            print()
            print("--- ready-to-paste regression test ---")
            print(report.regression_test)
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.service_fuzz:
        return _run_service_fuzz(args)
    schedulers = (list(SCHEDULER_NAMES) if args.scheduler == "all"
                  else [args.scheduler])
    if args.backend_differential:
        return _run_backend_differential(args, schedulers)
    exit_code = 0
    for scheduler in schedulers:
        config = FuzzConfig(scheduler=scheduler,
                            max_txns=args.max_txns,
                            max_objects=args.max_objects)
        progress = None
        if not args.quiet:
            def progress(index: int, outcome: object,
                         _total: int = args.episodes,
                         _name: str = scheduler) -> None:
                done = index + 1
                if done % 100 == 0 or done == _total:
                    print(f"[{_name}] {done}/{_total} episodes",
                          file=sys.stderr)
        report = run_campaign(config, args.seed, args.episodes,
                              max_failures=args.max_failures,
                              shrink_failures=not args.no_shrink,
                              progress=progress, observe=args.observe)
        print(report.summary())
        if args.observe and report.metrics is not None:
            print(render_frame_summary(report.metrics))
        if not report.ok:
            exit_code = 1
            _report_failures(report, args)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
