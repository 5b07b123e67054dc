"""CLI: ``python -m repro.bench [experiment ...]``.

With no arguments, lists the registered experiments.  With ids (or
``all``), runs each and prints the regenerated table/figure data;
``--output-dir DIR`` additionally archives each experiment's output as
``DIR/<id>.txt``.

``--profile smoke|full`` instead runs the GTM perf harness
(:mod:`repro.bench.perf`): hot-path microbenches (reference vs bitmask
conflict engine), the windowed throughput run, and the differential
equivalence campaign — writing the results to ``BENCH_gtm.json``
(``--json PATH`` to relocate).  Exits non-zero when the differential
mode reports any divergence, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.perf import PROFILES, render_summary, run_perf, \
    write_bench_json
from repro.bench.registry import get_experiment, list_experiments
from repro.errors import GTMError
from repro.parallel import parse_jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (fig1 fig2 fig3 table1 "
                             "table2 ablations sensitivity throughput), "
                             "or 'all'")
    parser.add_argument("-o", "--output-dir", default=None,
                        help="also write each experiment's output to "
                             "<dir>/<id>.txt")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default=None,
                        help="run the GTM perf harness at this profile "
                             "and emit BENCH_gtm.json")
    parser.add_argument("--json", default="BENCH_gtm.json",
                        help="output path for the perf harness results "
                             "(default: %(default)s)")
    parser.add_argument("--jobs", type=parse_jobs, default=1,
                        metavar="N|auto",
                        help="worker processes for experiment sweeps "
                             "and the embedded differential campaign "
                             "(auto = CPU count); outputs are "
                             "byte-identical to --jobs 1 (default 1)")
    arguments = parser.parse_args(argv)

    if arguments.profile is not None:
        try:
            payload = run_perf(arguments.profile, jobs=arguments.jobs)
        except GTMError as exc:
            # a digest gate tripped mid-harness: the message already
            # names the stage, tier, variant pair and both digests —
            # print it actionably instead of dying with a traceback.
            print(f"BENCH DIGEST GATE FAILED: {exc}", file=sys.stderr)
            return 1
        target = write_bench_json(payload, arguments.json)
        print(render_summary(payload))
        print(f"\nwrote {target}")
        if payload["differential"]["divergences"]:
            print("DIFFERENTIAL DIVERGENCE DETECTED", file=sys.stderr)
            return 1
        if payload["backend_differential"]["divergences"]:
            print("BACKEND DIFFERENTIAL DIVERGENCE DETECTED",
                  file=sys.stderr)
            return 1
        mvcc = payload["mvcc_reads"]
        if not mvcc["mvcc_dominates"]:
            print(f"MVCC READS DID NOT DOMINATE LOCKING READS: "
                  f"{mvcc['lock_free_reads']} lock-free reads, "
                  f"sim makespan {mvcc['sim_makespan_mvcc_s']:.3f}s "
                  f"(mvcc) vs {mvcc['sim_makespan_locking_s']:.3f}s "
                  f"(locking)", file=sys.stderr)
            return 1
        if not payload["observability"]["digests_identical"]:
            print("OBSERVABILITY PERTURBED THE CAMPAIGN DIGEST",
                  file=sys.stderr)
            return 1
        return 0

    if not arguments.experiments:
        print("Registered experiments:\n")
        for experiment in list_experiments():
            print(f"  {experiment.id:12s} {experiment.paper_artifact:12s} "
                  f"{experiment.title}")
        print("\nRun with: python -m repro.bench <id> [...] | all")
        return 0

    output_dir: Path | None = None
    if arguments.output_dir is not None:
        output_dir = Path(arguments.output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)

    requested = arguments.experiments
    if requested == ["all"]:
        requested = [e.id for e in list_experiments()]
    for experiment_id in requested:
        experiment = get_experiment(experiment_id)
        banner = f"=== {experiment.paper_artifact}: {experiment.title} ==="
        output = experiment.main(jobs=arguments.jobs)
        print(banner)
        print(output)
        print()
        if output_dir is not None:
            (output_dir / f"{experiment.id}.txt").write_text(
                f"{banner}\n{output}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
