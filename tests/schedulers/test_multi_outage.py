"""Tests for transactions with multiple disconnections (renewal model)."""

import numpy as np
import pytest

from repro.core.opclass import assign, subtract
from repro.metrics.collectors import Outcome
from repro.mobile.network import DisconnectionEvent, RenewalDisconnection
from repro.mobile.session import SessionPlan
from repro.schedulers import (
    GTMScheduler,
    two_phase_locking,
)
from repro.workload.spec import Workload, single_step_profile


def multi_outage_plan() -> SessionPlan:
    return SessionPlan(
        work_time=4.0,
        outages=(DisconnectionEvent(0.25, 1.0),
                 DisconnectionEvent(0.75, 2.0)))


class TestGTMMultipleSleeps:
    def test_transaction_sleeps_twice_and_commits(self):
        workload = Workload(
            [single_step_profile("T", 0.0, "X", subtract(1),
                                 multi_outage_plan())],
            initial_values={"X": 10.0})
        result = GTMScheduler().run(workload)
        timeline = result.collector.timelines["T"]
        assert timeline.outcome is Outcome.COMMITTED
        assert timeline.sleeps == 2
        assert timeline.sleep_time == pytest.approx(3.0)
        assert timeline.execution_time == pytest.approx(7.0)
        assert result.final_values["X"] == 9

    def test_conflict_during_second_outage_aborts(self):
        profiles = [
            single_step_profile("T", 0.0, "X", subtract(1),
                                multi_outage_plan()),
            # lands inside T's second outage (starts at t=4)
            single_step_profile("admin", 4.5, "X", assign(0),
                                SessionPlan(0.5)),
        ]
        workload = Workload(profiles, initial_values={"X": 10.0})
        result = GTMScheduler().run(workload)
        timeline = result.collector.timelines["T"]
        assert timeline.outcome is Outcome.ABORTED
        assert timeline.sleeps == 2

    def test_renewal_model_generated_plans_run(self):
        rng = np.random.default_rng(5)
        model = RenewalDisconnection(up_mean=1.0, down_mean=0.5)
        profiles = []
        for index in range(10):
            outages = tuple(model.plan(rng, 5.0))
            profiles.append(single_step_profile(
                f"T{index}", index * 0.5, "X", subtract(1),
                SessionPlan(5.0, outages)))
        workload = Workload(profiles, initial_values={"X": 100.0})
        result = GTMScheduler().run(workload)
        stats = result.stats
        assert stats.committed + stats.aborted == 10
        # subtractions are mutually compatible: everyone commits
        assert stats.committed == 10
        assert result.final_values["X"] == 90


class TestTwoPLMultipleSleeps:
    def test_first_short_outage_survives_second_long_one_kills(self):
        workload = Workload(
            [single_step_profile("T", 0.0, "X", subtract(1),
                                 multi_outage_plan())],
            initial_values={"X": 10.0})
        result = two_phase_locking(hold_timeout=1.5).run(workload)
        timeline = result.collector.timelines["T"]
        assert timeline.outcome is Outcome.ABORTED
        assert timeline.abort_reason == "sleep-timeout"
        # died during the second outage: 4.0 (its start) + 1.5
        assert timeline.finished == pytest.approx(5.5)

    def test_both_outages_below_timeout_commit(self):
        workload = Workload(
            [single_step_profile("T", 0.0, "X", subtract(1),
                                 multi_outage_plan())],
            initial_values={"X": 10.0})
        result = two_phase_locking(hold_timeout=3.0).run(workload)
        assert result.stats.committed == 1
