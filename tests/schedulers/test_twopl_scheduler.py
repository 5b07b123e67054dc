"""Tests for the classical strict-2PL baseline: the GTM under the
read/write matrix, holding a disconnected transaction's locks."""

import pytest

from repro.core.opclass import add, assign, read, subtract
from repro.metrics.collectors import Outcome
from repro.mobile.network import DisconnectionEvent
from repro.mobile.session import SessionPlan
from repro.bench.experiments.ablations import browse_then_decide
from repro.schedulers import two_phase_locking
from repro.workload.spec import (
    TransactionProfile,
    TransactionStep,
    Workload,
    single_step_profile,
)


def plan(work=2.0, outages=()):
    return SessionPlan(work_time=work, outages=tuple(outages))


def run_workload(profiles, initial=100.0, extra_objects=None,
                 rewrite=None, **knobs):
    initial_values = {"X": initial}
    if extra_objects:
        initial_values.update(extra_objects)
    workload = Workload(list(profiles), initial_values=initial_values)
    if rewrite is not None:
        workload = rewrite(workload)
    scheduler = two_phase_locking(**knobs)
    result = scheduler.run(workload)
    result.deadlocks = scheduler.last_gtm.deadlocks_detected
    return result


class TestExclusion:
    def test_single_transaction_commits(self):
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan())])
        assert result.stats.committed == 1
        assert result.final_values["X"] == 99

    def test_writers_serialize_even_when_compatible_semantically(self):
        """2PL knows nothing about commutativity: subtractions queue."""
        profiles = [
            single_step_profile(f"T{k}", 0.0, "X", subtract(1), plan(4.0))
            for k in range(3)]
        result = run_workload(profiles)
        assert result.stats.committed == 3
        # strictly serialized: makespan ~ 3 * work_time
        assert result.stats.makespan == pytest.approx(12.0, abs=0.5)
        assert result.final_values["X"] == 97

    def test_readers_share_the_lock(self):
        profiles = [
            single_step_profile(f"R{k}", 0.0, "X", read(), plan(4.0))
            for k in range(3)]
        result = run_workload(profiles)
        assert result.stats.committed == 3
        assert result.stats.makespan == pytest.approx(4.0, abs=0.5)

    def test_values_applied_at_commit(self):
        profiles = [
            single_step_profile("A", 0.0, "X", assign(7), plan(1.0)),
            single_step_profile("B", 0.1, "X", add(1), plan(1.0)),
        ]
        result = run_workload(profiles)
        # B ran after A (locks): 7 + 1
        assert result.final_values["X"] == 8


class TestNoStaleWake:
    def test_lock_taken_in_acquire_schedules_no_wake(self):
        """The GTM scheduler's stale-wake schedule (its TestStaleWake)
        under the read/write matrix: the grant of X made inside the
        client's own invoke must not end its later wait for Y."""
        holder = single_step_profile("H", 0.0, "Y", assign(5), plan(10.0))
        late = TransactionProfile(
            "T", 1.0,
            (TransactionStep("X", add(1), 0.0),      # taken in acquire
             TransactionStep("Y", assign(7), 1.0)),  # queued behind H
            plan(2.0))
        result = run_workload([holder, late], initial=0.0,
                              extra_objects={"Y": 0.0})
        assert result.stats.committed == 2
        assert result.final_values == {"X": 1.0, "Y": 7.0}
        assert result.collector.timelines["T"].wait_time == \
            pytest.approx(9.0)


class TestSleepTimeout:
    def test_short_outage_survives(self):
        outage = DisconnectionEvent(0.5, 2.0)
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1),
                                 plan(2.0, [outage]))],
            hold_timeout=3.0)
        assert result.stats.committed == 1
        # the kernel never sees a held outage; the client records it
        timeline = result.collector.timelines["T"]
        assert timeline.intervals == [("sleep", 1.0, 3.0)]

    def test_long_outage_aborted_at_timeout(self):
        outage = DisconnectionEvent(0.5, 10.0)
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1),
                                 plan(2.0, [outage]))],
            hold_timeout=3.0)
        timeline = result.collector.timelines["T"]
        assert timeline.outcome is Outcome.ABORTED
        assert timeline.abort_reason == "sleep-timeout"
        # aborted exactly at sleep start + timeout: 1.0 + 3.0
        assert timeline.finished == pytest.approx(4.0)
        assert result.stats.abort_reasons == {"sleep-timeout": 1}
        assert result.final_values["X"] == 100  # no effect applied

    def test_disconnected_holder_blocks_others_until_timeout(self):
        outage = DisconnectionEvent(0.5, 10.0)
        profiles = [
            single_step_profile("sleeper", 0.0, "X", subtract(1),
                                plan(2.0, [outage])),
            single_step_profile("waiter", 0.5, "X", subtract(1),
                                plan(1.0)),
        ]
        result = run_workload(profiles, hold_timeout=5.0)
        waiter = result.collector.timelines["waiter"]
        assert waiter.outcome is Outcome.COMMITTED
        # the waiter sat blocked until the sleeper's timeout abort (t=6)
        assert waiter.wait_time > 4.0


class TestWaitTimeout:
    def test_wait_timeout_aborts_waiter(self):
        profiles = [
            single_step_profile("holder", 0.0, "X", assign(1),
                                plan(10.0)),
            single_step_profile("waiter", 0.5, "X", assign(2), plan(1.0)),
        ]
        result = run_workload(profiles, wait_timeout=1.0)
        waiter = result.collector.timelines["waiter"]
        assert waiter.outcome is Outcome.ABORTED
        assert waiter.abort_reason == "wait-timeout"
        assert result.stats.abort_reasons == {"wait-timeout": 1}


class TestDeadlocks:
    def crossing_profiles(self):
        return [
            TransactionProfile(
                "AB", 0.0,
                (TransactionStep("X", subtract(1), 0.5),
                 TransactionStep("Y", subtract(1), 0.5)),
                plan(4.0)),
            TransactionProfile(
                "BA", 0.5,
                (TransactionStep("Y", subtract(1), 0.5),
                 TransactionStep("X", subtract(1), 0.5)),
                plan(4.0)),
        ]

    def test_wait_for_graph_breaks_cycle(self):
        result = run_workload(self.crossing_profiles(),
                              extra_objects={"Y": 100.0})
        assert result.deadlocks >= 1
        outcomes = {t.txn_id: t.outcome
                    for t in result.collector.timelines.values()}
        assert Outcome.ABORTED in outcomes.values()
        assert Outcome.COMMITTED in outcomes.values()

    def test_survivor_applies_its_writes(self):
        result = run_workload(self.crossing_profiles(),
                              extra_objects={"Y": 100.0})
        committed = [t for t in result.collector.timelines.values()
                     if t.outcome is Outcome.COMMITTED]
        assert len(committed) == 1
        assert result.final_values["X"] == 99
        assert result.final_values["Y"] == 99


class TestUpgradeMode:
    """Section II's read-lock-then-upgrade strategy: every update is
    browsed under a READ first and upgraded at the decision point."""

    def test_lone_browser_upgrades_and_commits(self):
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan())],
            rewrite=browse_then_decide)
        assert result.stats.committed == 1
        assert result.final_values["X"] == 99

    def test_two_browsers_deadlock_on_upgrade(self):
        """The paper's motivating deadlock: both hold S, both need X."""
        profiles = [
            single_step_profile("A", 0.0, "X", subtract(1), plan(4.0)),
            single_step_profile("B", 1.0, "X", subtract(1), plan(4.0)),
        ]
        result = run_workload(profiles, rewrite=browse_then_decide)
        assert result.deadlocks == 1
        outcomes = {t.txn_id: t.outcome
                    for t in result.collector.timelines.values()}
        assert outcomes["A"] is Outcome.COMMITTED
        assert outcomes["B"] is Outcome.ABORTED  # youngest victim
        assert result.final_values["X"] == 99

    def test_browsers_share_while_browsing(self):
        """Before the decision point, readers coexist (that's the
        upgrade strategy's one advantage over exclusive locking)."""
        profiles = [
            single_step_profile("A", 0.0, "X", subtract(1), plan(2.0)),
            # B arrives after A committed: no overlap, no deadlock
            single_step_profile("B", 3.0, "X", subtract(1), plan(2.0)),
        ]
        result = run_workload(profiles, rewrite=browse_then_decide)
        assert result.stats.committed == 2
        assert result.deadlocks == 0

    def test_reads_unaffected_by_upgrade_mode(self):
        profiles = [
            single_step_profile(f"R{k}", 0.0, "X", read(), plan(2.0))
            for k in range(3)]
        result = run_workload(profiles, rewrite=browse_then_decide)
        assert result.stats.committed == 3
        assert result.stats.avg_wait_time == 0.0

    def test_deadlock_rate_grows_with_contention(self):
        from repro.workload.generator import (
            PaperWorkloadConfig,
            generate_paper_workload,
        )
        generated = generate_paper_workload(PaperWorkloadConfig(
            n_transactions=120, alpha=1.0, beta=0.0, seed=29))
        scheduler = two_phase_locking()
        result = scheduler.run(browse_then_decide(generated.workload))
        result.deadlocks = scheduler.last_gtm.deadlocks_detected
        assert result.deadlocks > 10
        assert result.stats.aborted == result.deadlocks


class TestAbortedVictimCleanup:
    def test_victim_releases_locks_for_waiters(self):
        profiles = [
            TransactionProfile(
                "AB", 0.0,
                (TransactionStep("X", subtract(1), 0.5),
                 TransactionStep("Y", subtract(1), 0.5)),
                plan(4.0)),
            TransactionProfile(
                "BA", 0.5,
                (TransactionStep("Y", subtract(1), 0.5),
                 TransactionStep("X", subtract(1), 0.5)),
                plan(4.0)),
            # a third party arriving later must still get through
            single_step_profile("late", 10.0, "X", subtract(1), plan(1.0)),
        ]
        result = run_workload(profiles, extra_objects={"Y": 100.0})
        late = result.collector.timelines["late"]
        assert late.outcome is Outcome.COMMITTED
