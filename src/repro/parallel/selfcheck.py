"""Parallel-determinism gate: ``python -m repro.parallel.selfcheck``.

Runs the same seeded campaigns serially and sharded across worker
processes, then requires *exact* agreement:

- every scheduler's campaign summary and rolling outcome digest must
  be byte-identical between ``--jobs 1`` and ``--jobs N``;
- the differential harness's rolling digest (canonical SHA-256 over
  every episode's full observable outcome) must match as well;
- both comparisons repeat across several chunk sizes, because chunking
  changes dispatch order and must never change the merge.

Exit status 0 = parallel execution is observably indistinguishable
from serial; 1 = a divergence, printed with both sides.  CI runs this
as the first step of the ``selfcheck`` job; see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.differential import run_differential_campaign
from repro.check.fuzzer import SCHEDULER_NAMES, FuzzConfig
from repro.check.runner import run_campaign
from repro.parallel.pmap import parse_jobs, resolve_jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.selfcheck",
        description="Prove parallel campaigns merge byte-identically "
                    "to serial runs.")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--episodes", type=int, default=40,
                        help="episodes per scheduler (default 40)")
    parser.add_argument("--differential-episodes", type=int, default=15,
                        help="episodes for the differential digest "
                             "check (default 15)")
    parser.add_argument("--jobs", type=parse_jobs, default=2,
                        metavar="N|auto",
                        help="parallel side of the comparison "
                             "(default 2)")
    parser.add_argument("--chunk-sizes", default="1,7,32",
                        help="comma-separated chunk sizes to sweep "
                             "(default 1,7,32)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    jobs = resolve_jobs(args.jobs)
    chunk_sizes = [int(part) for part in args.chunk_sizes.split(",")]
    failures: list[str] = []

    for scheduler in SCHEDULER_NAMES:
        config = FuzzConfig(scheduler=scheduler)
        serial = run_campaign(config, args.seed, args.episodes,
                              shrink_failures=False, jobs=1)
        for chunk_size in chunk_sizes:
            parallel = run_campaign(config, args.seed, args.episodes,
                                    shrink_failures=False, jobs=jobs,
                                    chunk_size=chunk_size)
            label = (f"campaign[{scheduler}] jobs={jobs} "
                     f"chunk={chunk_size}")
            if parallel.summary() != serial.summary():
                failures.append(f"{label}: summary diverged:\n"
                                f"  serial:   {serial.summary()}\n"
                                f"  parallel: {parallel.summary()}")
            elif parallel.digest != serial.digest:
                failures.append(f"{label}: outcome digest diverged: "
                                f"{serial.digest} vs {parallel.digest}")
            else:
                print(f"{label}: identical "
                      f"(digest {serial.digest[:12]})")

    config = FuzzConfig(scheduler="gtm")
    serial_diff = run_differential_campaign(
        config, args.seed, args.differential_episodes, jobs=1)
    for chunk_size in chunk_sizes:
        parallel_diff = run_differential_campaign(
            config, args.seed, args.differential_episodes, jobs=jobs,
            chunk_size=chunk_size)
        label = f"differential[gtm] jobs={jobs} chunk={chunk_size}"
        if parallel_diff.digest != serial_diff.digest:
            failures.append(f"{label}: digest diverged: "
                            f"{serial_diff.digest} vs "
                            f"{parallel_diff.digest}")
        else:
            print(f"{label}: identical "
                  f"(digest {serial_diff.digest[:12]})")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print(f"\nparallel execution is byte-identical to serial "
          f"({len(SCHEDULER_NAMES)} schedulers x "
          f"{len(chunk_sizes)} chunk sizes, jobs={jobs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
