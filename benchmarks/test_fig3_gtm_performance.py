"""Benchmark E3/E4 — regenerates paper Fig. 3 (emulated GTM vs 2PL).

Runs the full Section VI-B emulation (1000 transactions, 5 objects, 15
classes, 0.5 s inter-arrival):

- the α sweep (avg execution time, β = 0.05) — Fig. 3 left;
- the β sweep (abort %, α = 0.7) — Fig. 3 right;

prints both tables and asserts the paper's qualitative claims: the GTM
is faster than 2PL everywhere, its advantage grows with α, both abort
rates grow with β and the GTM's stays below 2PL's.
"""

from repro.bench.experiments import fig3
from repro.schedulers import GTMScheduler, two_phase_locking
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)

FULL = fig3.Fig3Config(n_transactions=1000)


def test_fig3_full_sweep_matches_paper_shape(benchmark):
    full_sweep = benchmark.pedantic(fig3.run, args=(FULL,),
                                    rounds=1, iterations=1)
    print()
    print(fig3.render(full_sweep))
    checks = fig3.shape_checks(full_sweep)
    assert all(checks.values()), \
        {k: v for k, v in checks.items() if not v}
    # at the paper's α = 0.7 operating point the GTM should beat 2PL by
    # a comfortable factor (the theoretic ceiling for one conflict layer
    # is 1.5x; queueing amplifies it in the emulation).
    point = next(p for p in full_sweep.alpha_sweep if p.x == 0.7)
    assert point.twopl_exec / point.gtm_exec > 1.5


def test_bench_gtm_scheduler_full_run(benchmark):
    """Wall-clock of one full 1000-transaction GTM emulation."""
    generated = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=1000, alpha=0.7, beta=0.05))

    def run():
        return GTMScheduler().run(generated.workload)

    result = benchmark(run)
    assert result.stats.committed + result.stats.aborted == 1000


def test_bench_twopl_scheduler_full_run(benchmark):
    """Wall-clock of one full 1000-transaction 2PL emulation."""
    generated = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=1000, alpha=0.7, beta=0.05))

    def run():
        return two_phase_locking().run(generated.workload)

    result = benchmark(run)
    assert result.stats.committed + result.stats.aborted == 1000
