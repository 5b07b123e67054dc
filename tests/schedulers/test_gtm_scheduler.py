"""Tests for the GTM scheduler (simulated clients over the middleware)."""

import pytest

from repro.check.invariants import check_liveness
from repro.core.gtm import GlobalTransactionManager, GrantOutcome, GTMConfig
from repro.core.opclass import add, assign, subtract
from repro.core.sst import FailureInjector, SSTExecutor
from repro.core.states import TransactionState
from repro.core.objects import ObjectBinding
from repro.ldbs.constraints import NonNegative
from repro.ldbs.backend import MemoryBackend
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.metrics.collectors import (
    MetricsCollector,
    Outcome,
    TimelineObserver,
)
from repro.mobile.network import DisconnectionEvent
from repro.mobile.session import SessionPlan
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    two_phase_locking,
)
from repro.schedulers.gtm_scheduler import _SignallingObserver
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)
from repro.workload.spec import (
    TransactionProfile,
    TransactionStep,
    Workload,
    single_step_profile,
)


def plan(work=2.0, outages=()):
    return SessionPlan(work_time=work, outages=tuple(outages))


def run_workload(profiles, initial=100.0, config=None):
    workload = Workload(list(profiles),
                        initial_values={"X": initial})
    return GTMScheduler(config or GTMSchedulerConfig()).run(workload)


class TestBasicRuns:
    def test_single_transaction_commits(self):
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan())])
        assert result.stats.committed == 1
        assert result.final_values["X"] == 99

    def test_execution_time_is_work_time_when_uncontended(self):
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan(3.0))])
        timeline = result.collector.timelines["T"]
        assert timeline.execution_time == pytest.approx(3.0)

    def test_compatible_transactions_overlap(self):
        profiles = [
            single_step_profile(f"T{k}", 0.0, "X", subtract(1), plan(4.0))
            for k in range(5)]
        result = run_workload(profiles)
        assert result.stats.committed == 5
        assert result.final_values["X"] == 95
        # all five ran concurrently: makespan ~ one work time
        assert result.stats.makespan < 4.0 + 1.0

    def test_incompatible_transactions_serialize(self):
        profiles = [
            single_step_profile("A", 0.0, "X", assign(10), plan(2.0)),
            single_step_profile("B", 0.1, "X", assign(20), plan(2.0)),
        ]
        result = run_workload(profiles)
        assert result.stats.committed == 2
        b_timeline = result.collector.timelines["B"]
        assert b_timeline.wait_time > 0
        # B arrived second and committed second: its value sticks
        assert result.final_values["X"] == 20

    def test_reconciliation_makes_sum_correct_under_contention(self):
        profiles = [
            single_step_profile(f"T{k}", 0.05 * k, "X", subtract(1),
                                plan(1.0))
            for k in range(20)]
        result = run_workload(profiles, initial=1000.0)
        assert result.stats.committed == 20
        assert result.final_values["X"] == 980


class TestDisconnections:
    def test_sleeper_resumes_and_commits(self):
        outage = DisconnectionEvent(0.5, 4.0)
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1),
                                 plan(2.0, [outage]))])
        timeline = result.collector.timelines["T"]
        assert timeline.outcome is Outcome.COMMITTED
        assert timeline.sleep_time == pytest.approx(4.0)
        assert timeline.execution_time == pytest.approx(6.0)

    def test_conflicting_commit_during_sleep_aborts_sleeper(self):
        profiles = [
            single_step_profile(
                "sleeper", 0.0, "X", subtract(1),
                plan(2.0, [DisconnectionEvent(0.5, 10.0)])),
            # admin arrives during the outage and commits an assignment
            single_step_profile("admin", 2.0, "X", assign(0), plan(1.0)),
        ]
        result = run_workload(profiles)
        sleeper = result.collector.timelines["sleeper"]
        admin = result.collector.timelines["admin"]
        assert admin.outcome is Outcome.COMMITTED
        assert sleeper.outcome is Outcome.ABORTED
        assert sleeper.abort_reason == "sleep-conflict"

    def test_compatible_traffic_during_sleep_is_harmless(self):
        profiles = [
            single_step_profile(
                "sleeper", 0.0, "X", subtract(1),
                plan(2.0, [DisconnectionEvent(0.5, 10.0)])),
            single_step_profile("buyer", 2.0, "X", subtract(1),
                                plan(1.0)),
        ]
        result = run_workload(profiles)
        assert result.stats.committed == 2
        assert result.final_values["X"] == 98


class TestWaitTimeout:
    def test_waiter_aborts_after_timeout(self):
        config = GTMSchedulerConfig(wait_timeout=1.0)
        profiles = [
            single_step_profile("holder", 0.0, "X", assign(1),
                                plan(10.0)),
            single_step_profile("waiter", 0.5, "X", assign(2), plan(1.0)),
        ]
        result = run_workload(profiles, config=config)
        waiter = result.collector.timelines["waiter"]
        assert waiter.outcome is Outcome.ABORTED
        assert waiter.abort_reason == "wait-timeout"


class TestMultiStep:
    def test_two_object_transaction(self):
        profile = TransactionProfile(
            "T", 0.0,
            (TransactionStep("X", subtract(1), 0.5),
             TransactionStep("Y", subtract(2), 0.5)),
            plan(2.0))
        workload = Workload([profile],
                            initial_values={"X": 10.0, "Y": 10.0})
        result = GTMScheduler().run(workload)
        assert result.stats.committed == 1
        assert result.final_values["X"] == 9
        assert result.final_values["Y"] == 8


class TestStaleWake:
    """A grant made inside the client's own ``invoke`` still schedules a
    wake for ``now + 0`` when the client's next action invokes again in
    the same event.  That wake arrives when the client already waits for
    something else, and must not be taken for the grant it is waiting
    for (the client then operated while Waiting: ``ProtocolError`` out
    of ``run``)."""

    @staticmethod
    def _two_objects():
        holder = single_step_profile("H", 0.0, "y", assign(5), plan(10.0))
        late = TransactionProfile(
            "T", 1.0,
            (TransactionStep("x", add(1), 0.0),      # granted in invoke
             TransactionStep("y", assign(7), 1.0)),  # queued behind H
            plan(2.0))
        return Workload([holder, late], initial_values={"x": 0.0, "y": 0.0})

    def test_wake_for_another_object_is_not_the_awaited_grant(self):
        result = GTMScheduler().run(self._two_objects())
        assert result.stats.committed == 2
        assert result.final_values == {"x": 1.0, "y": 7.0}
        # T got y when H committed at 10, not at its own arrival
        assert result.collector.timelines["T"].wait_time == \
            pytest.approx(9.0)

    def test_wake_for_another_member_is_not_the_awaited_grant(self):
        holder = single_step_profile("H", 0.0, "x", assign(5, "m2"),
                                     plan(10.0))
        late = TransactionProfile(
            "T", 1.0,
            (TransactionStep("x", add(1, "m1"), 0.0),
             TransactionStep("x", assign(7, "m2"), 1.0)),
            plan(2.0))
        workload = Workload(
            [holder, late],
            initial_members={"x": {"m1": 0.0, "m2": 0.0}})
        scheduler = GTMScheduler()
        result = scheduler.run(workload)
        assert result.stats.committed == 2
        assert scheduler.last_gtm.object("x").permanent == \
            {"m1": 1.0, "m2": 7.0}
        assert result.collector.timelines["T"].wait_time == \
            pytest.approx(9.0)

    def test_wake_for_another_object_under_a_wait_timeout(self):
        """The same schedule with a wait timeout: the stale wake re-arms
        the client's timer, at the same deadline.  The wake is still
        delivered (two fires: the stale one and the grant of y), so
        ``_await_grant``'s stale-wake branch runs under a timer too."""
        scheduler = GTMScheduler(GTMSchedulerConfig(wait_timeout=30.0))
        result = scheduler.run(self._two_objects())
        assert result.stats.committed == 2
        assert result.final_values == {"x": 1.0, "y": 7.0}
        assert result.collector.timelines["T"].wait_time == \
            pytest.approx(9.0)
        wake = scheduler.last_gtm.observer.wake_signals["T"]
        assert wake.fire_count == 2

    def test_the_stale_wake_keeps_same_instant_calls_in_order(
            self, monkeypatch):
        """Without a timer the stale wake still decides an order.  At
        t = 1, T's x is granted inside its invoke and its y queues
        behind H's assign, next to U's add; then H's timer commits at
        the same instant, and the pump grants U, then T.  The stale wake
        of x, scheduled before both grants' wakes, resumes T first, so
        T's apply of y precedes U's.  Skipping it would resume U
        first."""
        applied = []
        real_apply = GlobalTransactionManager.apply

        def apply(self, txn_id, object_name, invocation):
            applied.append((txn_id, object_name))
            return real_apply(self, txn_id, object_name, invocation)

        monkeypatch.setattr(GlobalTransactionManager, "apply", apply)
        holder = single_step_profile("H", 0.0, "y", assign(5), plan(1.0))
        waiter = single_step_profile("U", 0.5, "y", add(1), plan(2.0))
        late = TransactionProfile(
            "T", 1.0,
            (TransactionStep("x", add(1), 0.0),      # granted in invoke
             TransactionStep("y", add(2), 1.0)),     # queued behind H
            plan(2.0))
        workload = Workload([holder, waiter, late],
                            initial_values={"x": 0.0, "y": 0.0})
        result = GTMScheduler().run(workload)
        assert result.stats.committed == 3
        assert applied == [("H", "y"), ("T", "x"), ("T", "y"), ("U", "y")]


class TestScheduledFires:
    """A fire that would wake nobody is not scheduled."""

    def test_an_uncontended_transaction_takes_two_events(self):
        """Its start and its work timer: the direct grant schedules no
        wake, and the commit schedules nothing."""
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan())])
        assert result.stats.committed == 1
        assert result.extra["events_dispatched"] == 2


class TestNoDeferredCommit:
    """The scheduler keeps no retry path for a deferred local commit.

    A commit is deferred (Algorithm 3) only behind a transaction that
    holds X_committing across events, and under the simulated driver a
    client's commit runs to completion inside its own event, so none
    ever is.  Were one deferred, the liveness verdict would name the
    stranded transaction."""

    #: The paper_emulation benchmark's (α, β) grid and its first round
    #: at seed 7 (episode seed 7 · 100000 + point).
    GRID = tuple((alpha, beta) for alpha in (0.1, 0.5, 0.9)
                 for beta in (0.05, 0.3))

    def test_no_commit_is_deferred_on_the_paper_grid_or_under_2pl(
            self, monkeypatch):
        deferred = []
        monkeypatch.setattr(
            TimelineObserver, "on_commit_deferred",
            lambda observer, txn, obj, now: deferred.append(txn.txn_id))
        # the watched hook does hear a deferral made by hand
        gtm = GlobalTransactionManager()
        gtm.subscribe(TimelineObserver(MetricsCollector()))
        gtm.create_object("X", value=0)
        for txn_id in ("A", "B"):
            gtm.begin(txn_id)
            gtm.invoke(txn_id, "X", add(1))
        gtm.local_commit("A", "X")
        gtm.local_commit("B", "X")
        assert deferred == ["B"]
        deferred.clear()

        workloads = [
            generate_paper_workload(PaperWorkloadConfig(
                alpha=alpha, beta=beta, seed=700_000 + point)).workload
            for point, (alpha, beta) in enumerate(self.GRID)]
        for workload in workloads:
            assert GTMScheduler().run(workload).stats.unfinished == 0
        assert two_phase_locking().run(workloads[3]).stats.unfinished == 0
        assert deferred == []


class TestCascadeGrant:
    """A grant made *after* the request queued, but before ``invoke``
    returns: the abort cascade (a victim's teardown pumps the unlock
    queue) grants the requester while ``invoke`` still reports QUEUED.
    ``_await_grant`` then waits for that grant's wake, so it must be
    scheduled although nobody waits on it when it is.
    ``tests/service/test_found_regressions.py::
    test_cascade_grant_during_invoke_answers_queued_op`` reproduces the
    same cascade at the same facade seam for the service."""

    @staticmethod
    def _episode(monkeypatch):
        """B holds y; H holds x and queues for y; R's ``invoke`` of x
        queues for real behind H, then H is aborted inside the call and
        the pump grants R, and the call answers QUEUED."""
        real_invoke = GlobalTransactionManager.invoke

        def cascade_invoke(self, txn_id, object_name, invocation):
            outcome = real_invoke(self, txn_id, object_name, invocation)
            if txn_id == "R":
                assert outcome == GrantOutcome.QUEUED
                self.abort("H", reason="cascade")
                assert self.transaction("R").state is \
                    TransactionState.ACTIVE
            return outcome

        monkeypatch.setattr(GlobalTransactionManager, "invoke",
                            cascade_invoke)
        blocker = single_step_profile("B", 0.0, "y", assign(5), plan(20.0))
        holder = TransactionProfile(
            "H", 0.5,
            (TransactionStep("x", assign(1), 0.0),
             TransactionStep("y", assign(2), 1.0)),
            plan(2.0))
        requester = single_step_profile("R", 1.0, "x", assign(3), plan(2.0))
        workload = Workload([blocker, holder, requester],
                            initial_values={"x": 0.0, "y": 0.0})
        return GTMScheduler().run(workload)

    def test_a_grant_made_after_the_request_queued_wakes_the_client(
            self, monkeypatch):
        result = self._episode(monkeypatch)
        assert check_liveness(result.collector) == []
        timelines = result.collector.timelines
        assert timelines["R"].outcome is Outcome.COMMITTED
        assert timelines["R"].finished == pytest.approx(3.0)
        assert timelines["H"].outcome is Outcome.ABORTED
        assert timelines["B"].outcome is Outcome.COMMITTED
        assert result.final_values == {"x": 3.0, "y": 5.0}

    def test_no_wake_while_nobody_waits_strands_the_client(
            self, monkeypatch):
        """Control leg: the cruder rule, a grant wake only for a client
        already waiting on it, leaves R waiting for ever, and the
        liveness verdict names it."""

        def on_grant(self, txn, obj, invocation, now):
            signal = self.signal_for(txn.txn_id)
            if signal.waiters:
                self._fire_later(signal, ("grant", obj.name))

        monkeypatch.setattr(_SignallingObserver, "on_grant", on_grant)
        result = self._episode(monkeypatch)
        assert [violation.split(":")[0] for violation
                in check_liveness(result.collector)] == ["txn 'R'"]


class TestSSTIntegration:
    def make_database(self, stock=10):
        db = MemoryBackend()
        db.create_table(
            TableSchema("flight",
                        (Column("id", ColumnType.INT),
                         Column("free", ColumnType.INT)),
                        primary_key="id"),
            constraints=[NonNegative("flight", "free")])
        db.seed("flight", [{"id": 1, "free": stock}])
        return db

    def test_commits_apply_through_sst(self):
        db = self.make_database(10)
        config = GTMSchedulerConfig(
            sst_executor=SSTExecutor(db),
            bindings={"X": ObjectBinding.cell("flight", 1, "free")})
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan())],
            initial=10.0, config=config)
        assert result.stats.committed == 1
        assert db.dump()["flight"][1]["free"] == 9

    def test_sst_failure_recorded_as_abort(self):
        db = self.make_database(10)
        executor = SSTExecutor(
            db, max_retries=0,
            injector=FailureInjector(should_fail=lambda t, a: True))
        config = GTMSchedulerConfig(
            sst_executor=executor,
            bindings={"X": ObjectBinding.cell("flight", 1, "free")})
        result = run_workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan())],
            initial=10.0, config=config)
        assert result.stats.aborted == 1
        assert db.dump()["flight"][1]["free"] == 10

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_naming_a_backend_binds_it(self, backend):
        """One field on the object that reads it: naming the backend is
        all it takes for commits to run SSTs against it (it used to take
        ``GTMConfig.ldbs_backend`` *and* a second boolean here)."""
        scheduler = GTMScheduler(GTMSchedulerConfig(ldbs_backend=backend))
        result = scheduler.run(Workload(
            [single_step_profile("T", 0.0, "X", subtract(1), plan())],
            initial_values={"X": 10.0}))
        assert scheduler.last_backend.name == backend
        assert result.extra["sst_executions"] == 1
        assert scheduler.last_backend.dump()["X"][1]["value"] == 9.0
        scheduler.last_backend.close()
        assert not hasattr(GTMConfig(), "ldbs_backend")


class TestSerializability:
    def test_emulated_run_is_serializable(self):
        """The full emulation's committed schedule must pass the serial
        replay check (paper Section V's serializability claim)."""
        from repro.check.oracle import check_episode, record_gtm
        from repro.workload.generator import (
            PaperWorkloadConfig,
            generate_paper_workload,
        )
        generated = generate_paper_workload(PaperWorkloadConfig(
            n_transactions=250, alpha=0.7, beta=0.1, seed=31))
        scheduler = GTMScheduler()
        scheduler.run(generated.workload)
        report = check_episode(record_gtm(scheduler.last_gtm))
        assert report.serializable, report.mismatches
        assert report.committed > 200


class TestDeterminism:
    def test_same_workload_same_results(self):
        profiles = [
            single_step_profile(f"T{k}", 0.3 * k, "X",
                                subtract(1) if k % 3 else assign(k),
                                plan(1.5))
            for k in range(12)]
        workload = Workload(list(profiles), initial_values={"X": 100.0})
        first = GTMScheduler().run(workload)
        second = GTMScheduler().run(workload)
        assert first.final_values == second.final_values
        assert first.stats.avg_execution_time == \
            second.stats.avg_execution_time
        assert first.stats.committed == second.stats.committed
