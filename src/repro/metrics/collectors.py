"""Per-transaction timelines and the collector that builds them."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.events import GTMObserver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.objects import ManagedObject
    from repro.core.opclass import Invocation
    from repro.core.transaction import GTMTransaction


class Outcome(enum.Enum):
    """Final fate of a transaction in a run."""

    COMMITTED = "committed"
    ABORTED = "aborted"
    UNFINISHED = "unfinished"


@dataclass
class TxnTimeline:
    """Milestones of one transaction (virtual-time seconds)."""

    txn_id: str
    arrival: float = 0.0
    first_grant: float | None = None
    commit_requested: float | None = None
    finished: float | None = None
    outcome: Outcome = Outcome.UNFINISHED
    abort_reason: str = ""
    #: Total time spent in wait queues.
    wait_time: float = 0.0
    #: Total time spent sleeping (disconnected / inactive).
    sleep_time: float = 0.0
    #: How many times the transaction slept.
    sleeps: int = 0
    #: Closed (kind, start, end) intervals; kind is "wait" or "sleep".
    intervals: list[tuple[str, float, float]] = field(default_factory=list)
    _wait_started: float | None = field(default=None, repr=False)
    _sleep_started: float | None = field(default=None, repr=False)

    # -- event recording ------------------------------------------------------

    def on_wait_start(self, now: float) -> None:
        if self._wait_started is None:
            self._wait_started = now

    def on_wait_end(self, now: float) -> None:
        if self._wait_started is not None:
            self.wait_time += now - self._wait_started
            self.intervals.append(("wait", self._wait_started, now))
            self._wait_started = None

    def on_sleep_start(self, now: float) -> None:
        if self._sleep_started is None:
            # Wait and sleep intervals are disjoint by definition: a
            # disconnected transaction is not accruing queue delay even
            # if its wait entry stays parked (Algorithm 7 subtracts
            # sleepers from the effective lock set).  Close any open
            # wait here or the overlap double-counts the disconnection.
            self.on_wait_end(now)
            self._sleep_started = now
            self.sleeps += 1

    def on_sleep_end(self, now: float) -> None:
        if self._sleep_started is not None:
            self.sleep_time += now - self._sleep_started
            self.intervals.append(("sleep", self._sleep_started, now))
            self._sleep_started = None

    def on_commit(self, now: float) -> None:
        # the open-interval tests inline: most transactions finish with
        # neither open, and a call apiece is two frames per commit.
        if self._wait_started is not None:
            self.on_wait_end(now)
        if self._sleep_started is not None:
            self.on_sleep_end(now)
        self.finished = now
        self.outcome = Outcome.COMMITTED

    def on_abort(self, now: float, reason: str = "") -> None:
        if self._wait_started is not None:
            self.on_wait_end(now)
        if self._sleep_started is not None:
            self.on_sleep_end(now)
        self.finished = now
        self.outcome = Outcome.ABORTED
        self.abort_reason = reason

    def finalize(self, now: float) -> None:
        """Close dangling wait/sleep intervals at episode end.

        A transaction still queued or disconnected when the run's
        makespan is reached used to leave ``_wait_started`` /
        ``_sleep_started`` open, silently under-reporting its
        ``intervals``, ``wait_time`` and ``sleep_time``.  Schedulers
        call this once at makespan; finished transactions are untouched
        (commit/abort already closed their intervals)."""
        if self.outcome is not Outcome.UNFINISHED:
            return
        self.on_wait_end(now)
        self.on_sleep_end(now)

    # -- derived ---------------------------------------------------------------

    @property
    def execution_time(self) -> float | None:
        """Arrival-to-finish latency (None while unfinished)."""
        if self.finished is None:
            return None
        return self.finished - self.arrival


class MetricsCollector:
    """Owns every timeline of a run."""

    def __init__(self) -> None:
        self.timelines: dict[str, TxnTimeline] = {}
        #: txn ids in the order the run committed them.  Finish times
        #: cannot give it: two commits at one virtual instant tie.
        self.commit_order: list[str] = []

    def arrival(self, txn_id: str, now: float) -> TxnTimeline:
        timeline = TxnTimeline(txn_id=txn_id, arrival=now)
        self.timelines[txn_id] = timeline
        return timeline

    def of(self, txn_id: str) -> TxnTimeline:
        return self.timelines[txn_id]

    def committed(self) -> list[TxnTimeline]:
        return [t for t in self.timelines.values()
                if t.outcome is Outcome.COMMITTED]

    def aborted(self) -> list[TxnTimeline]:
        return [t for t in self.timelines.values()
                if t.outcome is Outcome.ABORTED]

    def unfinished(self) -> list[TxnTimeline]:
        return [t for t in self.timelines.values()
                if t.outcome is Outcome.UNFINISHED]

    def finalize(self, now: float) -> None:
        """Close every unfinished timeline's open intervals at ``now``.

        Called by the schedulers once the simulation is quiescent so
        that transactions still waiting or sleeping at makespan report
        their accrued (not just their *closed*) wait and sleep time."""
        for timeline in self.timelines.values():
            if timeline.outcome is Outcome.UNFINISHED:
                timeline.finalize(now)

    def __len__(self) -> int:
        return len(self.timelines)


class TimelineObserver(GTMObserver):
    """Builds timelines straight from the GTM's event bus.

    Subscribe one to :meth:`GlobalTransactionManager.subscribe` and the
    collector fills itself — schedulers no longer do any manual timeline
    bookkeeping.  Virtual timestamps match the client-visible ones: the
    simulation schedulers resume clients at ``now + 0``, so bus-side and
    client-side clocks agree.
    """

    def __init__(self, collector: MetricsCollector) -> None:
        self.collector = collector
        # bound once: a lookup helper would be one frame per hook
        self._timelines = collector.timelines

    def on_begin(self, txn: "GTMTransaction", now: float) -> None:
        self.collector.arrival(txn.txn_id, now)

    def on_wait(self, txn: "GTMTransaction", obj: "ManagedObject",
                invocation: "Invocation", now: float) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is not None:
            timeline.on_wait_start(now)

    def on_grant(self, txn: "GTMTransaction", obj: "ManagedObject",
                 invocation: "Invocation", now: float) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is None:
            return
        # Close the wait interval only when the transaction has no
        # queued invocation left (A_t_wait = ⊥).  The admission
        # controller clears the object's t_wait entry *before* firing
        # on_grant (pump_unlock: clear_wait then grant), so after the
        # grant that unblocks the client t_wait is empty — but a grant
        # delivered while the transaction is still queued elsewhere
        # (e.g. a driver that fans one logical multi-member invocation
        # across several objects, or the Algorithm 9 queue-jump regrant
        # firing before wake_survivor clears A_t_wait) must not end a
        # wait the transaction is still in.
        if not txn.t_wait and timeline._wait_started is not None:
            timeline.on_wait_end(now)
        if timeline.first_grant is None:
            timeline.first_grant = now

    def on_local_commit(self, txn: "GTMTransaction", obj: "ManagedObject",
                        now: float) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is not None and timeline.commit_requested is None:
            timeline.commit_requested = now

    def on_commit_deferred(self, txn: "GTMTransaction",
                           obj: "ManagedObject", now: float) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is not None and timeline.commit_requested is None:
            timeline.commit_requested = now

    def on_sleep(self, txn: "GTMTransaction", now: float) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is not None:
            timeline.on_sleep_start(now)

    def on_awake(self, txn: "GTMTransaction", now: float,
                 survived: bool) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is not None:
            timeline.on_sleep_end(now)

    def on_global_commit(self, txn: "GTMTransaction", now: float) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is not None and timeline.outcome is Outcome.UNFINISHED:
            timeline.on_commit(now)
            self.collector.commit_order.append(txn.txn_id)

    def on_global_abort(self, txn: "GTMTransaction", now: float,
                        reason: str) -> None:
        timeline = self._timelines.get(txn.txn_id)
        if timeline is not None and timeline.outcome is Outcome.UNFINISHED:
            timeline.on_abort(now, reason)
