"""The classical strict-2PL baseline (the paper's comparison point).

Semantics reproduced from Section II's discussion of 2PL weaknesses:

- every step takes an exclusive lock on its object (reads-for-update and
  writes are not distinguished, matching the paper's simplification) and
  holds it until commit/abort (strict 2PL);
- a disconnected transaction *keeps its locks* — the server cannot tell
  a disconnection from a slow user.  The only defence is a **sleep
  timeout**: a transaction disconnected longer than the timeout is
  aborted and its locks released ("In the 2PL approach we can simply
  consider the abort percentage as function of sleeping timeout",
  Section VI-A);
- multi-object workloads can deadlock; a wait-for graph detects cycles
  and aborts the victim (Section VII points at the classical
  techniques).

Writes are buffered per transaction and applied at commit while the
locks are still held — observationally equivalent to in-place writes
with undo, but simpler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.core.opclass import OperationClass
from repro.ldbs.deadlock import DeadlockDetector, VictimPolicy
from repro.ldbs.locks import LockManager, LockMode
from repro.metrics.collectors import MetricsCollector, TxnTimeline
from repro.schedulers.base import (
    CommitAction,
    InvokeAction,
    Scheduler,
    SchedulerResult,
    SleepAction,
    WorkAction,
    build_itinerary,
)
from repro.sim.engine import ScheduledEvent, SimulationEngine
from repro.sim.process import Signal, Process, Timeout, WaitEvent
from repro.workload.spec import TransactionProfile, Workload


@dataclass
class TwoPLSchedulerConfig:
    """Baseline knobs."""

    #: Disconnections longer than this abort the transaction (seconds).
    #: Default 3 s < the workload's fixed 5 s outage, so a classical
    #: server aborts every disconnected transaction (see EXPERIMENTS.md).
    sleep_timeout: float = 3.0
    #: Abort a transaction whose lock wait exceeds this (None = forever).
    wait_timeout: float | None = None
    victim_policy: VictimPolicy = VictimPolicy.YOUNGEST
    #: Section II's first strategy: take an S lock when the step starts
    #: (the user browses) and *upgrade* to X at the end of the step's
    #: work (the user decides).  Two concurrent browsers of the same
    #: resource then deadlock on the upgrade — "a deadlock can occur and
    #: it can be solved aborting T_i and/or T_j".  False = plain
    #: exclusive locking from the start.
    upgrade_mode: bool = False


class _Run:
    """Mutable state of one 2PL run."""

    def __init__(self, workload: Workload, engine: SimulationEngine,
                 config: TwoPLSchedulerConfig) -> None:
        self.engine = engine
        self.config = config
        self.locks = LockManager()
        self.values: dict[str, float] = dict(workload.initial_values)
        self.collector = MetricsCollector()
        self.wake: dict[str, Signal] = {}
        self.aborted: dict[str, str] = {}
        self.start_times: dict[str, float] = {}
        self.deadlocks = 0
        self.timeout_aborts = 0
        self.sleep_aborts = 0
        self.detector = DeadlockDetector(
            policy=config.victim_policy,
            start_time_of=lambda t: self.start_times.get(t, 0.0),
            lock_count_of=lambda t: len(self.locks.resources_held_by(t)),
        )

    def signal_for(self, txn_id: str) -> Signal:
        signal = self.wake.get(txn_id)
        if signal is None:
            signal = Signal(f"2pl.wake.{txn_id}")
            self.wake[txn_id] = signal
        return signal

    def fire_later(self, txn_id: str, payload: Any) -> None:
        signal = self.signal_for(txn_id)
        self.engine.schedule_after(0.0, lambda _e: signal.fire(payload))

    def abort_txn(self, txn_id: str, reason: str,
                  notify: bool = True) -> None:
        """Release everything ``txn_id`` holds and mark it aborted."""
        if txn_id in self.aborted:
            return
        self.aborted[txn_id] = reason
        self.locks.release_all(txn_id)
        self.detector.on_finished(txn_id)
        if notify:
            self.fire_later(txn_id, ("aborted", reason))


class TwoPLScheduler(Scheduler):
    """Strict 2PL over the workload's objects, with sleep-timeout aborts."""

    name = "2pl"

    def __init__(self, config: TwoPLSchedulerConfig | None = None) -> None:
        self.config = config or TwoPLSchedulerConfig()

    def run(self, workload: Workload) -> SchedulerResult:
        engine = SimulationEngine()
        run = _Run(workload, engine, self.config)
        for profile in workload:
            Process(engine, self._client(profile, run),
                    name=profile.txn_id, start_delay=profile.arrival_time)
        makespan = engine.run()
        extra = {
            "deadlocks": run.deadlocks,
            "timeout_aborts": run.timeout_aborts,
            "sleep_aborts": run.sleep_aborts,
            "events_dispatched": engine.events_dispatched,
        }
        return self._result(run.collector, makespan, dict(run.values),
                            extra)

    # -- lock acquisition -----------------------------------------------------

    def _mode_for(self, op_class: OperationClass) -> LockMode:
        return (LockMode.S if op_class is OperationClass.READ
                else LockMode.X)

    def _acquire(self, run: _Run, txn_id: str, resource: str,
                 mode: LockMode,
                 timeline: TxnTimeline) -> Generator[Any, Any, bool]:
        """Acquire or wait; returns False when the transaction died."""
        granted = run.locks.acquire(
            txn_id, resource, mode,
            on_grant=lambda t, r: run.fire_later(t, ("grant", r)))
        if granted:
            return True
        timeline.on_wait_start(run.engine.now)
        blockers = run.locks.blockers_of(txn_id, resource)
        resolution = run.detector.on_wait(txn_id, blockers)
        if resolution is not None:
            run.deadlocks += 1
            victim = resolution.victim
            if victim == txn_id:
                run.locks.cancel_request(txn_id, resource)
                run.detector.on_stop_waiting(txn_id)
                run.abort_txn(txn_id, "deadlock-victim", notify=False)
                timeline.on_abort(run.engine.now, reason="deadlock-victim")
                return False
            run.abort_txn(victim, "deadlock-victim")
            victim_timeline = run.collector.timelines.get(victim)
            if victim_timeline is not None:
                victim_timeline.on_abort(run.engine.now,
                                         reason="deadlock-victim")
        while True:
            payload = yield WaitEvent(run.signal_for(txn_id),
                                      timeout=self.config.wait_timeout)
            if payload is WaitEvent.TIMED_OUT:
                run.locks.cancel_request(txn_id, resource)
                run.detector.on_stop_waiting(txn_id)
                run.timeout_aborts += 1
                run.abort_txn(txn_id, "wait-timeout", notify=False)
                timeline.on_abort(run.engine.now, reason="wait-timeout")
                return False
            kind, detail = payload
            if kind == "aborted":
                # a deadlock victim resolution killed us while waiting
                timeline.on_abort(run.engine.now, reason=str(detail))
                return False
            if kind == "grant" and detail == resource:
                run.detector.on_stop_waiting(txn_id)
                timeline.on_wait_end(run.engine.now)
                return True

    # -- the client process ------------------------------------------------------

    def _client(self, profile: TransactionProfile,
                run: _Run) -> Generator[Any, Any, None]:
        txn_id = profile.txn_id
        timeline = run.collector.arrival(txn_id, 0.0)
        timeline.arrival = run.engine.now
        run.start_times[txn_id] = run.engine.now
        buffered: list[tuple[str, Any]] = []  # (object, invocation)
        upgrades: list[str] = []              # objects held S, needing X
        for action in build_itinerary(profile):
            if txn_id in run.aborted:
                return
            if isinstance(action, InvokeAction):
                step = action.step
                mode = self._mode_for(step.invocation.op_class)
                if self.config.upgrade_mode and mode is LockMode.X:
                    # Section II: browse under S first, decide later.
                    mode = LockMode.S
                    upgrades.append(step.object_name)
                ok = yield from self._acquire(run, txn_id,
                                              step.object_name, mode,
                                              timeline)
                if not ok:
                    return
                if step.apply_op:
                    buffered.append((step.object_name, step.invocation))
            elif isinstance(action, WorkAction):
                yield Timeout(action.duration)
            elif isinstance(action, SleepAction):
                # the server cannot see the disconnection; it only has
                # the sleep timeout.
                timeline.on_sleep_start(run.engine.now)
                timer = self._schedule_sleep_abort(run, txn_id, timeline)
                yield Timeout(action.duration)
                timer.cancel()
                timeline.on_sleep_end(run.engine.now)
                if txn_id in run.aborted:
                    return
            elif isinstance(action, CommitAction):
                if txn_id in run.aborted:
                    return
                # the decision point: upgrade every browsed resource
                # (this is where the paper's upgrade deadlocks bite).
                for object_name in upgrades:
                    ok = yield from self._acquire(run, txn_id,
                                                  object_name, LockMode.X,
                                                  timeline)
                    if not ok:
                        return
                for object_name, invocation in buffered:
                    if invocation.op_class.mutates:
                        run.values[object_name] = invocation.apply(
                            run.values[object_name])
                run.locks.release_all(txn_id)
                run.detector.on_finished(txn_id)
                timeline.on_commit(run.engine.now)
                run.collector.commit_order.append(txn_id)
                return

    def _schedule_sleep_abort(self, run: _Run, txn_id: str,
                              timeline: TxnTimeline) -> ScheduledEvent:
        """Arm the server-side sleep-timeout abort."""

        def fire(_engine: SimulationEngine) -> None:
            if txn_id in run.aborted:
                return
            run.sleep_aborts += 1
            run.abort_txn(txn_id, "sleep-timeout", notify=False)
            timeline.on_abort(run.engine.now, reason="sleep-timeout")

        return run.engine.schedule_after(self.config.sleep_timeout, fire)
