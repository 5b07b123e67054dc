"""Observability-neutrality proof: observing must change nothing.

Runs the same seeded campaigns twice — observability off, then on —
and demands byte-identical digests:

- one ``gtm`` stress campaign, comparing :attr:`CampaignReport.digest`
  (rolling hash over episode summaries, which deliberately exclude obs
  artifacts).  The observed side runs with ``--jobs`` workers, so the
  per-worker frame merge is exercised; the merged fleet metrics are
  printed as evidence the aggregation pipeline works;
- one differential campaign (every GTM engine variant), comparing
  :attr:`DifferentialReport.digest` (rolling hash over canonical
  full-trace digests — the strongest neutrality statement we have: not
  a single timeline, final value or grant order moved).

Only the GTM has an event bus to subscribe to; a 2PL or optimistic run
executes the same code observed or not (its frame is read off the
timelines afterwards), so comparing those with themselves would prove
nothing and is not done.

Exit status 0 iff every pair of digests matches — CI runs this as the
second step of the ``selfcheck`` job.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.differential import run_differential_campaign
from repro.check.fuzzer import FuzzConfig
from repro.check.runner import CampaignReport, run_campaign
from repro.obs.export import render_frame_summary


def check_campaign_neutrality(seed: int, episodes: int, jobs: int
                              ) -> tuple[bool, str, CampaignReport]:
    """(ok, evidence, observed report) for the ``gtm`` stress campaign."""
    config = FuzzConfig(scheduler="gtm")
    baseline = run_campaign(config, seed, episodes, shrink_failures=False)
    observed = run_campaign(config, seed, episodes, shrink_failures=False,
                            observe=True, jobs=jobs)
    ok = baseline.digest == observed.digest
    lines = [f"[gtm] {episodes} episodes (seed {seed}): "
             f"{'digests identical' if ok else 'DIGEST MISMATCH'}"]
    if not ok:
        lines.append(f"  off: {baseline.digest}")
        lines.append(f"  on:  {observed.digest}")
    else:
        lines.append(f"  merged frame: {observed.metrics.episodes} "
                     f"episodes, commits="
                     f"{observed.metrics.counter_total('gtm_commits'):g}")
    return ok, "\n".join(lines), observed


def check_differential_neutrality(seed: int, episodes: int,
                                  jobs: int) -> tuple[bool, str]:
    """(ok, evidence) for the full-trace differential digest."""
    config = FuzzConfig(scheduler="gtm")
    baseline = run_differential_campaign(config, seed, episodes, jobs=jobs)
    observed = run_differential_campaign(config, seed, episodes, jobs=jobs,
                                         observe=True)
    ok = (baseline.digest == observed.digest
          and baseline.ok and observed.ok)
    lines = [f"[differential] {episodes} episodes (seed {seed}): "
             f"{'full traces identical' if ok else 'DIGEST MISMATCH'}"]
    if not ok:
        lines.append(f"  off: {baseline.digest} ok={baseline.ok}")
        lines.append(f"  on:  {observed.digest} ok={observed.ok}")
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.selfcheck",
        description="prove observability is digest-neutral")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--episodes", type=int, default=25,
                        help="episodes per campaign (default 25)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="workers for the observed campaigns "
                        "(exercises the frame merge; default 2)")
    parser.add_argument("--summary", action="store_true",
                        help="print the merged fleet metrics table")
    args = parser.parse_args(argv)

    campaign_ok, evidence, observed = check_campaign_neutrality(
        args.seed, args.episodes, args.jobs)
    print(evidence)
    differential_ok, evidence = check_differential_neutrality(
        args.seed, args.episodes, args.jobs)
    print(evidence)
    if args.summary:
        print()
        print(render_frame_summary(observed.metrics))
    all_ok = campaign_ok and differential_ok
    print()
    print("observability neutrality:", "PROVEN" if all_ok else "VIOLATED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
