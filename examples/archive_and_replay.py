"""Reproducibility tooling: archive a workload, replay it, trace it.

Shows the workflow a downstream researcher would use:

1. generate one grid point of the paper's emulation (fixed seed);
2. archive the exact transaction batch as JSON;
3. replay the archive through two schedulers and verify the outcomes
   are bit-identical to the original run;
4. print the ASCII Gantt of the first transactions and check the run's
   serializability by replaying its commit order serially.

Run with::

    python examples/archive_and_replay.py
"""

import tempfile
from pathlib import Path

from repro.check.oracle import check_episode, record_gtm
from repro.metrics.trace import render_gantt
from repro.schedulers import GTMScheduler, two_phase_locking
from repro.workload import (
    PaperWorkloadConfig,
    generate_paper_workload,
    load_workload,
    save_workload,
)


def main() -> None:
    generated = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=60, alpha=0.7, beta=0.15, seed=99))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig3-point-a0.7-b0.15.json"
        save_workload(generated.workload, path)
        print(f"archived {len(generated.workload)} transactions "
              f"({path.stat().st_size} bytes of JSON)")

        restored = load_workload(path)
        original = GTMScheduler().run(generated.workload)
        scheduler = GTMScheduler()
        replayed = scheduler.run(restored)
        assert original.final_values == replayed.final_values
        assert original.stats.abort_percentage == \
            replayed.stats.abort_percentage
        print("replay is bit-identical: "
              f"{replayed.stats.committed} committed, "
              f"{replayed.stats.aborted} aborted, "
              f"avg exec {replayed.stats.avg_execution_time:.2f}s")

        twopl = two_phase_locking().run(restored)
        print(f"same archive under 2PL: {twopl.stats.committed} "
              f"committed, avg exec "
              f"{twopl.stats.avg_execution_time:.2f}s")

    report = check_episode(record_gtm(scheduler.last_gtm))
    print(f"serializability check: "
          f"{'PASS' if report.serializable else 'FAIL'} "
          f"({report.committed} commits replayed serially in commit "
          f"order)")
    assert report.serializable

    print()
    print("first 12 transactions of the GTM run:")
    subset_ids = [p.txn_id for p in list(restored)[:12]]
    from repro.metrics.collectors import MetricsCollector
    subset = MetricsCollector()
    subset.timelines = {txn_id: replayed.collector.timelines[txn_id]
                        for txn_id in subset_ids}
    print(render_gantt(subset, width=56, until=15.0))


if __name__ == "__main__":
    main()
