"""Bus-driven TimelineObserver tests + minimized timeline regressions.

The first half drives a real :class:`GlobalTransactionManager` under a
manual virtual clock and checks the timelines the observer builds from
the event stream alone.  The second half holds one minimized regression
test per timeline-accounting bug fixed in this change:

1. ``on_sleep_start`` left the wait interval open across the sleep, so
   wait and sleep time overlapped (double-counting the disconnection);
2. transactions still waiting/sleeping at makespan never closed their
   intervals — ``finalize`` did not exist, silently under-reporting;
3. ``TimelineObserver.on_grant`` closed the wait unconditionally, ending
   a wait the transaction was still in when a grant arrived while its
   ``t_wait`` set was non-empty (queue-jump regrant / multi-object
   fan-out).
"""

from types import SimpleNamespace

import pytest

from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign
from repro.metrics.collectors import (
    MetricsCollector,
    Outcome,
    TimelineObserver,
    TxnTimeline,
)


class ManualClock:
    """A virtual clock the test advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def observed_gtm():
    clock = ManualClock()
    gtm = GlobalTransactionManager(clock=clock)
    collector = MetricsCollector()
    gtm.subscribe(TimelineObserver(collector))
    gtm.create_object("X", value=100)
    return gtm, collector, clock


class TestBusDrivenTimelines:
    def test_begin_records_arrival(self):
        gtm, collector, clock = observed_gtm()
        clock.advance(2.0)
        gtm.begin("T1")
        assert collector.of("T1").arrival == 2.0
        assert collector.of("T1").outcome is Outcome.UNFINISHED

    def test_uncontended_grant_has_no_wait(self):
        gtm, collector, clock = observed_gtm()
        gtm.begin("T1")
        clock.advance(1.0)
        assert gtm.invoke("T1", "X", assign(7)) == "granted"
        timeline = collector.of("T1")
        assert timeline.first_grant == 1.0
        assert timeline.wait_time == 0.0

    def test_contended_wait_measured_queue_to_grant(self):
        gtm, collector, clock = observed_gtm()
        gtm.begin("T1")
        assert gtm.invoke("T1", "X", assign(1)) == "granted"
        gtm.begin("T2")
        clock.advance(1.0)
        assert gtm.invoke("T2", "X", assign(2)) == "queued"
        clock.advance(4.0)
        gtm.apply("T1", "X", assign(1))
        gtm.request_commit("T1")
        gtm.pump_commits()
        timeline = collector.of("T2")
        assert timeline.wait_time == pytest.approx(4.0)
        assert timeline.intervals == [("wait", 1.0, 5.0)]
        assert timeline.first_grant == 5.0

    def test_commit_stamps_outcome_and_finish(self):
        gtm, collector, clock = observed_gtm()
        gtm.begin("T1")
        gtm.invoke("T1", "X", add(5))
        gtm.apply("T1", "X", add(5))
        clock.advance(3.0)
        gtm.request_commit("T1")
        gtm.pump_commits()
        timeline = collector.of("T1")
        assert timeline.outcome is Outcome.COMMITTED
        assert timeline.finished == 3.0
        assert timeline.execution_time == 3.0

    def test_commit_order_is_the_global_commit_order(self):
        """Two commits at one instant: the collector keeps the order
        the GTM committed them in, not the txn ids'."""
        gtm, collector, clock = observed_gtm()
        for txn_id in ("T2", "T1"):
            gtm.begin(txn_id)
            gtm.invoke(txn_id, "X", add(1))
            gtm.apply(txn_id, "X", add(1))
        clock.advance(1.0)
        for txn_id in ("T2", "T1"):
            gtm.request_commit(txn_id)
            gtm.pump_commits()
        assert collector.commit_order == ["T2", "T1"]
        assert collector.commit_order == gtm.history.commit_order

    def test_abort_records_reason(self):
        gtm, collector, clock = observed_gtm()
        gtm.begin("T1")
        gtm.invoke("T1", "X", assign(1))
        clock.advance(1.0)
        gtm.abort("T1", reason="driver-disconnect")
        timeline = collector.of("T1")
        assert timeline.outcome is Outcome.ABORTED
        assert timeline.abort_reason == "driver-disconnect"

    def test_sleep_awake_accounting(self):
        gtm, collector, clock = observed_gtm()
        gtm.begin("T1")
        gtm.invoke("T1", "X", add(5))
        clock.advance(1.0)
        gtm.sleep("T1")
        clock.advance(6.0)
        assert gtm.awake("T1") is True
        timeline = collector.of("T1")
        assert timeline.sleeps == 1
        assert timeline.sleep_time == pytest.approx(6.0)
        assert timeline.intervals == [("sleep", 1.0, 7.0)]

    def test_awake_abort_closes_sleep_and_records_reason(self):
        # Algorithm 9: a conflicting operation executed during the
        # disconnection forces the awakening transaction to abort.
        gtm, collector, clock = observed_gtm()
        gtm.begin("T2")
        assert gtm.invoke("T2", "X", add(5)) == "granted"
        gtm.apply("T2", "X", add(5))
        clock.advance(1.0)
        gtm.sleep("T2")
        clock.advance(1.0)
        gtm.begin("T1")  # the sleeper leaves the effective lock set
        assert gtm.invoke("T1", "X", assign(7)) == "granted"
        gtm.apply("T1", "X", assign(7))
        gtm.request_commit("T1")
        gtm.pump_commits()
        clock.advance(3.0)
        assert gtm.awake("T2") is False
        timeline = collector.of("T2")
        assert timeline.outcome is Outcome.ABORTED
        assert timeline.abort_reason == "sleep-conflict"
        assert timeline.sleeps == 1
        assert timeline.sleep_time == pytest.approx(4.0)
        assert timeline.intervals == [("sleep", 1.0, 5.0)]

    def test_collector_finalize_closes_waiter_at_makespan(self):
        gtm, collector, clock = observed_gtm()
        gtm.begin("T1")
        assert gtm.invoke("T1", "X", assign(1)) == "granted"
        gtm.begin("T2")
        clock.advance(2.0)
        assert gtm.invoke("T2", "X", assign(2)) == "queued"
        clock.advance(8.0)
        collector.finalize(clock.now)
        timeline = collector.of("T2")
        assert timeline.outcome is Outcome.UNFINISHED
        assert timeline.wait_time == pytest.approx(8.0)
        assert timeline.intervals == [("wait", 2.0, 10.0)]


class TestSleepClosesWaitRegression:
    """Bug 1: sleeping while queued double-counted the wait."""

    def test_sleep_start_closes_open_wait(self):
        timeline = TxnTimeline("T")
        timeline.on_wait_start(0.0)
        timeline.on_sleep_start(5.0)   # disconnect while still queued
        timeline.on_sleep_end(9.0)
        timeline.on_commit(9.0)
        # pre-fix the wait stayed open across the sleep and was closed
        # at commit: wait_time 9 + sleep_time 4 > the 9s the txn lived
        assert timeline.wait_time == pytest.approx(5.0)
        assert timeline.sleep_time == pytest.approx(4.0)
        assert timeline.intervals == [("wait", 0.0, 5.0),
                                      ("sleep", 5.0, 9.0)]

    def test_wait_and_sleep_never_overlap(self):
        timeline = TxnTimeline("T")
        timeline.on_wait_start(1.0)
        timeline.on_sleep_start(2.0)
        timeline.on_sleep_end(4.0)
        timeline.on_wait_start(4.0)
        timeline.on_commit(6.0)
        spans = sorted((start, end) for _, start, end
                       in timeline.intervals)
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start >= prev_end
        assert timeline.wait_time + timeline.sleep_time \
            == pytest.approx(6.0 - 1.0)


class TestFinalizeRegression:
    """Bug 2: open intervals at makespan were silently dropped."""

    def test_finalize_closes_dangling_wait(self):
        timeline = TxnTimeline("T")
        timeline.on_wait_start(2.0)
        timeline.finalize(10.0)
        # pre-fix: wait_time stayed 0.0 and intervals stayed empty
        assert timeline.wait_time == pytest.approx(8.0)
        assert timeline.intervals == [("wait", 2.0, 10.0)]
        assert timeline.outcome is Outcome.UNFINISHED

    def test_finalize_closes_dangling_sleep(self):
        timeline = TxnTimeline("T")
        timeline.on_sleep_start(3.0)
        timeline.finalize(10.0)
        assert timeline.sleep_time == pytest.approx(7.0)
        assert timeline.intervals == [("sleep", 3.0, 10.0)]

    def test_finalize_leaves_finished_untouched(self):
        timeline = TxnTimeline("T")
        timeline.on_wait_start(1.0)
        timeline.on_commit(4.0)
        timeline.finalize(10.0)
        assert timeline.wait_time == pytest.approx(3.0)
        assert timeline.finished == 4.0

    def test_collector_finalize_sweeps_every_timeline(self):
        collector = MetricsCollector()
        collector.arrival("A", 0.0).on_wait_start(1.0)
        collector.arrival("B", 0.0).on_sleep_start(2.0)
        done = collector.arrival("C", 0.0)
        done.on_commit(3.0)
        collector.finalize(10.0)
        assert collector.of("A").wait_time == pytest.approx(9.0)
        assert collector.of("B").sleep_time == pytest.approx(8.0)
        assert collector.of("C").finished == 3.0


class TestQueueJumpGrantRegression:
    """Bug 3: a grant must not close a wait the txn is still in."""

    @staticmethod
    def observer():
        collector = MetricsCollector()
        return TimelineObserver(collector), collector

    def test_grant_while_still_queued_keeps_wait_open(self):
        observer, collector = self.observer()
        txn = SimpleNamespace(txn_id="T", t_wait={})
        observer.on_begin(txn, 0.0)
        observer.on_wait(txn, None, None, 1.0)
        # a grant lands while the wait entry is still parked (Algorithm
        # 9 queue-jump regrant before wake_survivor clears A_t_wait, or
        # a multi-object fan-out granting one member of the invocation)
        txn.t_wait = {"other-object": object()}
        observer.on_grant(txn, None, None, 3.0)
        timeline = collector.of("T")
        assert timeline.first_grant == 3.0
        # pre-fix: on_grant ended the wait here -> wait_time 2.0
        assert timeline.wait_time == 0.0
        # the real end of the wait: t_wait drained, next grant closes it
        txn.t_wait = {}
        observer.on_grant(txn, None, None, 5.0)
        assert timeline.wait_time == pytest.approx(4.0)
        assert timeline.intervals == [("wait", 1.0, 5.0)]

    def test_grant_with_empty_t_wait_closes_wait(self):
        observer, collector = self.observer()
        txn = SimpleNamespace(txn_id="T", t_wait={})
        observer.on_begin(txn, 0.0)
        observer.on_wait(txn, None, None, 1.0)
        observer.on_grant(txn, None, None, 4.0)
        timeline = collector.of("T")
        assert timeline.wait_time == pytest.approx(3.0)
        assert timeline.first_grant == 4.0
