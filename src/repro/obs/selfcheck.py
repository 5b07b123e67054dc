"""Observability-neutrality proof: tracing on must change nothing.

Runs the same seeded campaigns twice — observability off, then on —
and demands byte-identical digests:

- one stress campaign per scheduler (``gtm``, ``2pl``, ``optimistic``)
  with the **full stack** (span tracing + metrics), comparing
  :attr:`CampaignReport.digest` (rolling hash over episode summaries,
  which deliberately exclude obs artifacts);
- one ``gtm`` campaign with the **default metrics-only mode** (what
  ``observe=True`` / ``--observe`` enables), since its observer set
  differs from the full stack's;
- one differential campaign (every GTM engine variant) under full
  tracing, comparing :attr:`DifferentialReport.digest` (rolling hash
  over canonical full-trace digests — the strongest neutrality
  statement we have: not a single timeline, final value or grant
  order moved).

The observed campaigns also run with ``--jobs`` workers so the
per-worker frame merge is exercised; the merged fleet metrics are
printed as evidence the aggregation pipeline works.

Exit status 0 iff every pair of digests matches — CI runs this as the
second step of the ``selfcheck`` job.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.differential import run_differential_campaign
from repro.check.fuzzer import FuzzConfig
from repro.check.runner import run_campaign
from repro.obs import ObsConfig
from repro.obs.export import render_frame_summary

SCHEDULERS = ("gtm", "2pl", "optimistic")

#: The full stack: span tracing + metrics.  The campaign default
#: (``observe=True``) is metrics-only; neutrality must hold for both.
FULL = ObsConfig(tracing=True, metrics=True)


def check_campaign_neutrality(scheduler: str, seed: int, episodes: int,
                              jobs: int,
                              mode: "ObsConfig | bool" = FULL,
                              label: str = "") -> tuple[bool, str]:
    """(ok, evidence) for one scheduler's stress campaign."""
    config = FuzzConfig(scheduler=scheduler)
    baseline = run_campaign(config, seed, episodes, shrink_failures=False)
    observed = run_campaign(config, seed, episodes, shrink_failures=False,
                            observe=mode, jobs=jobs)
    ok = baseline.digest == observed.digest
    tag = f"{scheduler}{'/' + label if label else ''}"
    lines = [f"[{tag}] {episodes} episodes (seed {seed}): "
             f"{'digests identical' if ok else 'DIGEST MISMATCH'}"]
    if not ok:
        lines.append(f"  off: {baseline.digest}")
        lines.append(f"  on:  {observed.digest}")
    elif observed.metrics is not None:
        lines.append(f"  merged frame: {observed.metrics.episodes} "
                     f"episodes, {observed.metrics.span_count} spans, "
                     f"commits="
                     f"{observed.metrics.counter_total('gtm_commits'):g}")
    return ok, "\n".join(lines)


def check_differential_neutrality(seed: int, episodes: int,
                                  jobs: int) -> tuple[bool, str]:
    """(ok, evidence) for the full-trace differential digest."""
    config = FuzzConfig(scheduler="gtm")
    baseline = run_differential_campaign(config, seed, episodes, jobs=jobs)
    observed = run_differential_campaign(config, seed, episodes, jobs=jobs,
                                         observe=FULL)
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

    all_ok = True
    summary_frame = None
    for scheduler in SCHEDULERS:
        ok, evidence = check_campaign_neutrality(
            scheduler, args.seed, args.episodes, args.jobs,
            mode=FULL, label="full")
        print(evidence)
        all_ok &= ok
    # the metrics-only default attaches a different observer set, so
    # prove it separately (gtm only: baselines have no bus to observe)
    ok, evidence = check_campaign_neutrality(
        "gtm", args.seed, args.episodes, args.jobs,
        mode=True, label="metrics")
    print(evidence)
    all_ok &= ok
    if args.summary:
        config = FuzzConfig(scheduler="gtm")
        report = run_campaign(config, args.seed, args.episodes,
                              shrink_failures=False, observe=FULL)
        summary_frame = report.metrics
    ok, evidence = check_differential_neutrality(
        args.seed, args.episodes, args.jobs)
    print(evidence)
    all_ok &= ok
    if summary_frame is not None:
        print()
        print(render_frame_summary(summary_frame))
    print()
    print("observability neutrality:", "PROVEN" if all_ok else "VIOLATED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
