"""Tests for the freeze-until-commit optimistic baseline."""

import pytest

from repro.core.opclass import assign, subtract
from repro.metrics.collectors import Outcome
from repro.mobile.network import DisconnectionEvent
from repro.mobile.session import SessionPlan
from repro.schedulers import OptimisticScheduler
from repro.schedulers.optimistic import OptimisticConfig
from repro.workload.spec import Workload, single_step_profile


def plan(work=2.0, outages=()):
    return SessionPlan(work_time=work, outages=tuple(outages))


def run_workload(profiles, initial=100.0, config=None):
    workload = Workload(list(profiles), initial_values={"X": initial})
    return OptimisticScheduler(config).run(workload)


class TestNoLocking:
    def test_everything_overlaps(self):
        profiles = [
            single_step_profile(f"T{k}", 0.0, "X", subtract(1), plan(4.0))
            for k in range(5)]
        result = run_workload(profiles)
        assert result.stats.committed == 5
        assert result.stats.makespan == pytest.approx(4.0, abs=0.1)
        assert result.stats.avg_wait_time == 0.0

    def test_effects_applied_at_commit(self):
        profiles = [
            single_step_profile(f"T{k}", 0.1 * k, "X", subtract(1),
                                plan(1.0))
            for k in range(10)]
        result = run_workload(profiles)
        assert result.final_values["X"] == 90

    def test_disconnections_cost_nothing_but_time(self):
        outage = DisconnectionEvent(0.5, 60.0)
        profiles = [
            single_step_profile("sleeper", 0.0, "X", subtract(1),
                                plan(2.0, [outage])),
            single_step_profile("other", 1.0, "X", subtract(1),
                                plan(1.0)),
        ]
        result = run_workload(profiles)
        assert result.stats.committed == 2
        other = result.collector.timelines["other"]
        assert other.wait_time == 0.0
        assert other.execution_time == pytest.approx(1.0)


class TestConstraintValidation:
    def test_oversell_aborted_at_commit(self):
        """The paper's 'no more flight tickets' outcome."""
        profiles = [
            single_step_profile(f"T{k}", 0.0, "X", subtract(1), plan(1.0))
            for k in range(5)]
        result = run_workload(profiles, initial=3.0)
        assert result.stats.committed == 3
        assert result.stats.aborted == 2
        assert result.extra["constraint_aborts"] == 2
        assert result.final_values["X"] == 0

    def test_abort_reason_recorded(self):
        profiles = [
            single_step_profile("T", 0.0, "X", subtract(1), plan(1.0))]
        result = run_workload(profiles, initial=0.0)
        timeline = result.collector.timelines["T"]
        assert timeline.outcome is Outcome.ABORTED
        assert timeline.abort_reason == "constraint-violation"

    def test_floor_disabled_allows_oversell(self):
        profiles = [
            single_step_profile("T", 0.0, "X", subtract(1), plan(1.0))]
        result = run_workload(profiles, initial=0.0,
                              config=OptimisticConfig(floor=None))
        assert result.stats.committed == 1
        assert result.final_values["X"] == -1

    def test_assignments_always_win(self):
        profiles = [
            single_step_profile("A", 0.0, "X", assign(50), plan(2.0)),
            single_step_profile("B", 0.1, "X", assign(70), plan(1.0)),
        ]
        result = run_workload(profiles)
        assert result.stats.committed == 2
        # B commits first (shorter work), A overwrites at its commit
        assert result.final_values["X"] == 50

    def test_multi_op_transaction_atomic_at_commit(self):
        from repro.workload.spec import TransactionProfile, TransactionStep
        profile = TransactionProfile(
            "T", 0.0,
            (TransactionStep("X", subtract(2), 0.5),
             TransactionStep("Y", subtract(5), 0.5)),
            plan(1.0))
        workload = Workload([profile],
                            initial_values={"X": 10.0, "Y": 3.0})
        result = OptimisticScheduler().run(workload)
        # Y would go negative: the whole package aborts, X untouched
        assert result.stats.aborted == 1
        assert result.final_values["X"] == 10
        assert result.final_values["Y"] == 3
