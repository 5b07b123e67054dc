"""The GTM scheduler: the paper's middleware driven by simulated clients.

Each transaction profile becomes one simulation process that walks its
itinerary (invoke / work / sleep / commit) against a shared
:class:`~repro.core.gtm.GlobalTransactionManager`:

- a queued invocation parks the process on a per-transaction signal that
  the GTM observer fires when ⟨unlock, X⟩ (Algorithm 11) grants it;
- a disconnection emits ⟨sleep, A⟩, the reconnection ⟨awake, A⟩ — if the
  awakening detects conflicts (Algorithm 9, third case) the transaction
  is aborted and the client gives up.  With ``hold_timeout`` set the
  server never learns of the outage: the transaction holds its locks
  and is aborted once the outage outlasts the timeout (the 2PL
  baseline, :func:`two_phase_locking`);
- the commit request runs to completion inside the client's event: a
  local commit is deferred (Algorithm 3) only behind a committer that
  holds X_committing across events, and under this driver none does,
  so no client ever waits for a commit slot.

Observer callbacks never resume processes synchronously: they schedule
signal fires at ``now + 0`` so the GTM's own event handling finishes
before any client reacts (no re-entrancy).  A fire is scheduled only
when it can resume someone; a fire that would find no waiter is left
out, so every GTM call happens at the instant and in the order it would
with every fire scheduled (:class:`_SignallingObserver` says why each
skipped fire finds nobody).

Metrics are not collected here: a
:class:`~repro.metrics.collectors.TimelineObserver` subscribed to the
GTM's event bus builds every timeline, so the client processes contain
only protocol driving.  The one exception is a held outage, which the
kernel never sees: its client records the sleep interval itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.errors import SSTFailure
from repro.core.compatibility import READ_WRITE
from repro.core.conflicts import ConflictChecker
from repro.core.gtm import (
    GlobalTransactionManager,
    GTMConfig,
    GTMObserver,
    GrantOutcome,
)
from repro.core.objects import ManagedObject, ObjectBinding
from repro.core.opclass import Invocation
from repro.core.sst import SSTExecutor
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction
from repro.ldbs.backend import LDBSBackend, create_backend
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.metrics.collectors import (
    MetricsCollector,
    TimelineObserver,
    TxnTimeline,
)
from repro.obs import Observability
from repro.schedulers.base import (
    CommitAction,
    InvokeAction,
    Scheduler,
    SchedulerResult,
    SleepAction,
    WorkAction,
    build_itinerary,
)
from repro.sim.engine import SimulationEngine
from repro.sim.process import Process, Signal, Timeout, WaitEvent
from repro.workload.spec import TransactionProfile, Workload


def bind_workload_backend(backend: LDBSBackend,
                          workload: Workload) -> dict[str, ObjectBinding]:
    """Give every workload object a real LDBS home on ``backend``.

    One table per object (table name = object name), an ``id`` INT
    primary key holding the single row ``id=1``, and one nullable FLOAT
    column per member (reconciled GTM values are floats).  Tables are
    created and seeded with the workload's initial values; the returned
    bindings map each object onto its row for the SST executor.
    """
    bindings: dict[str, ObjectBinding] = {}
    spec: dict[str, dict[str, Any]] = {}
    for name, value in workload.initial_values.items():
        spec[name] = {"value": value}
    for name, members in workload.initial_members.items():
        spec[name] = dict(members)
    for name, members in spec.items():
        columns = [Column("id", ColumnType.INT)]
        columns.extend(Column(member, ColumnType.FLOAT, nullable=True)
                       for member in members)
        backend.create_table(TableSchema(name, tuple(columns),
                                         primary_key="id"))
        row: dict[str, Any] = {"id": 1}
        row.update({member: float(value)
                    for member, value in members.items()})
        backend.seed(name, [row])
        bindings[name] = ObjectBinding(
            table=name, key=1,
            member_columns={member: member for member in members})
    return bindings


@dataclass
class GTMSchedulerConfig:
    """Scheduler-level knobs (the protocol knobs live in GTMConfig)."""

    gtm_config: GTMConfig = field(default_factory=GTMConfig)
    #: Abort a transaction whose lock wait exceeds this (None = wait
    #: forever; the paper's single-object workload cannot deadlock).
    wait_timeout: float | None = None
    #: Optional SST executor (binds commits to an LDBS).
    sst_executor: SSTExecutor | None = None
    #: Bindings applied to created objects (object name -> binding).
    bindings: dict[str, ObjectBinding] = field(default_factory=dict)
    #: When set (and no explicit ``sst_executor`` was given), build the
    #: LDBS backend of that name (``"memory"`` / ``"sqlite"``), auto-bind
    #: every workload object onto it (:func:`bind_workload_backend`)
    #: and execute SSTs against it.  The backend of the most recent run
    #: is exposed as :attr:`GTMScheduler.last_backend`.  ``None``: run
    #: virtual-only, no SST reaches a database.
    ldbs_backend: str | None = None
    #: Observability on/off (a ``bool``).  On, the run's metrics land
    #: in :attr:`SchedulerResult.obs`.  Recording rides the event bus
    #: read-only, so enabling it cannot change grant order or digests
    #: (``python -m repro.obs.selfcheck`` proves it).
    obs: bool = False
    #: How a disconnection is handled.  None: the paper's ⟨sleep⟩ /
    #: ⟨awake⟩.  A number: the classical server, which cannot tell an
    #: outage from a slow user, so the transaction keeps its locks and
    #: is aborted ("sleep-timeout") once disconnected that long.
    hold_timeout: float | None = None


class _SignallingObserver(GTMObserver):
    """Relays GTM events to per-transaction simulation signals.

    The wake of a *direct* grant is left out because it would wake
    nobody: one made inside the requester's own ``invoke``
    (:attr:`invoking`) before the request queued (any ``on_wait`` of it
    inside the call clears the mark).  The return value answers it, and
    the client marks only an invoke whose next action yields to the
    engine, so the wake would have found it waiting on a timer, or
    finished, never waiting on its wake.

    Every other grant, and every abort, still schedules its wake: a
    grant made after the request queued (also one the abort cascade
    makes before ``invoke`` returns QUEUED) is what ``_await_grant``
    waits for.
    """

    def __init__(self, engine: SimulationEngine) -> None:
        self.engine = engine
        self.wake_signals: dict[str, Signal] = {}
        #: the transaction whose own ``invoke`` is running, while a
        #: grant made inside it needs no wake; None otherwise.
        self.invoking: str | None = None

    def signal_for(self, txn_id: str) -> Signal:
        signal = self.wake_signals.get(txn_id)
        if signal is None:
            signal = Signal(f"gtm.wake.{txn_id}")
            self.wake_signals[txn_id] = signal
        return signal

    def _fire_later(self, signal: Signal, payload: Any) -> None:
        self.engine.schedule_after(0.0, lambda _e: signal.fire(payload))

    # -- GTMObserver hooks -----------------------------------------------------

    def on_wait(self, txn: GTMTransaction, obj: ManagedObject,
                invocation: Invocation, now: float) -> None:
        if txn.txn_id == self.invoking:
            self.invoking = None  # queued: its grant comes by a wake

    def on_grant(self, txn: GTMTransaction, obj: ManagedObject,
                 invocation: Invocation, now: float) -> None:
        if txn.txn_id != self.invoking:
            self._fire_later(self.signal_for(txn.txn_id),
                             ("grant", obj.name))

    def on_global_abort(self, txn: GTMTransaction, now: float,
                        reason: str) -> None:
        self._fire_later(self.signal_for(txn.txn_id), ("aborted", reason))


class GTMScheduler(Scheduler):
    """Runs a workload through the Global Transaction Manager."""

    name = "gtm"

    def __init__(self, config: GTMSchedulerConfig | None = None, *,
                 checker: ConflictChecker | None = None) -> None:
        self.config = config or GTMSchedulerConfig()
        #: handed to each run's GTM (``GlobalTransactionManager(checker=)``)
        self.checker = checker
        #: the GTM of the most recent run (for post-run inspection,
        #: e.g. repro.check.oracle.record_gtm).
        self.last_gtm: GlobalTransactionManager | None = None
        #: the auto-built LDBS backend of the most recent run (only set
        #: when ``ldbs_backend`` built one; its ``dump()`` is the SST-side
        #: permanent state the backend-differential harness compares).
        self.last_backend: LDBSBackend | None = None

    def run(self, workload: Workload) -> SchedulerResult:
        engine = SimulationEngine()
        collector = MetricsCollector()
        observer = _SignallingObserver(engine)
        sst_executor = self.config.sst_executor
        bindings = dict(self.config.bindings)
        self.last_backend = None
        if sst_executor is None and self.config.ldbs_backend is not None:
            backend = create_backend(self.config.ldbs_backend)
            auto = bind_workload_backend(backend, workload)
            auto.update(bindings)
            bindings = auto
            sst_executor = SSTExecutor(backend)
            self.last_backend = backend
        gtm = GlobalTransactionManager(
            config=self.config.gtm_config,
            clock=engine.read_clock,
            sst_executor=sst_executor,
            observer=observer,
            checker=self.checker,
        )
        gtm.subscribe(TimelineObserver(collector))
        obs = Observability() if self.config.obs else None
        if obs is not None:
            obs.attach(gtm)
        for name, value in workload.initial_values.items():
            gtm.create_object(name, value=value,
                              binding=bindings.get(name))
        for name, members in workload.initial_members.items():
            gtm.create_object(name, members=dict(members),
                              binding=bindings.get(name))
        self.last_gtm = gtm
        for profile in workload:
            body = self._client(profile, gtm, observer, collector)
            Process(engine, body, name=profile.txn_id,
                    start_delay=profile.arrival_time)
        makespan = engine.run()
        final_values = {name: obj.permanent_value()
                        for name, obj in gtm.objects.items()
                        if "value" in obj.permanent}
        extra = {
            "sst_executions": (sst_executor.executed
                               if sst_executor else 0),
            "sst_failures": (sst_executor.failed
                             if sst_executor else 0),
            "events_dispatched": engine.events_dispatched,
        }
        result = self._result(collector, makespan, final_values, extra)
        if obs is not None:
            obs.finalize(collector, gtm.lock_table)
            result.obs = obs
        return result

    # -- the client process ------------------------------------------------------

    def _client(self, profile: TransactionProfile,
                gtm: GlobalTransactionManager,
                observer: _SignallingObserver,
                collector: MetricsCollector) -> Generator[Any, Any, None]:
        txn_id = profile.txn_id
        txn = gtm.begin(txn_id, priority=profile.priority)
        actions = build_itinerary(profile)
        for index, action in enumerate(actions):
            if isinstance(action, InvokeAction):
                # A grant made inside this invoke is answered by its
                # return value.  Its wake is needed only when the next
                # action invokes again in this same event, and may wait.
                if not isinstance(actions[index + 1], InvokeAction):
                    observer.invoking = txn_id
                outcome = gtm.invoke(txn_id, action.step.object_name,
                                     action.step.invocation)
                observer.invoking = None
                if outcome == GrantOutcome.ABORTED:
                    # the request closed a wait-for cycle and this
                    # transaction was the chosen victim
                    return
                if outcome == GrantOutcome.QUEUED:
                    granted = yield from self._await_grant(txn, gtm,
                                                           observer)
                    if not granted:
                        return
                if action.step.apply_op:
                    gtm.apply(txn_id, action.step.object_name,
                              action.step.invocation)
            elif isinstance(action, WorkAction):
                yield Timeout(action.duration)
            elif isinstance(action, SleepAction):
                if self.config.hold_timeout is None:
                    gtm.sleep(txn_id)
                    yield Timeout(action.duration)
                    if not gtm.awake(txn_id):
                        # conflicts during the sleep: aborted (Algorithm 9)
                        return
                else:
                    yield from self._hold(txn, action.duration, gtm,
                                          observer.engine,
                                          collector.of(txn_id))
                    if txn.state is TransactionState.ABORTED:
                        return
            elif isinstance(action, CommitAction):
                try:
                    gtm.request_commit(txn_id)
                except SSTFailure:
                    pass  # the GTM already aborted and reported it
                return

    def _hold(self, txn: GTMTransaction, duration: float,
              gtm: GlobalTransactionManager, engine: SimulationEngine,
              timeline: TxnTimeline) -> Generator[Any, Any, None]:
        """A disconnection the server cannot see: no ⟨sleep⟩, so the
        transaction keeps its locks, and a timer aborts it once the
        outage outlasts ``hold_timeout``.  The kernel never hears of
        the outage, so the client records it on the timeline."""
        timeline.on_sleep_start(engine.now)
        timer = engine.schedule_after(
            self.config.hold_timeout,
            lambda _e: gtm.abort(txn.txn_id, reason="sleep-timeout"))
        yield Timeout(duration)
        timer.cancel()
        timeline.on_sleep_end(engine.now)

    def _await_grant(self, txn: GTMTransaction,
                     gtm: GlobalTransactionManager,
                     observer: _SignallingObserver,
                     ) -> Generator[Any, Any, bool]:
        """Wait until granted; handles timeout-abort and external abort."""
        txn_id = txn.txn_id
        # built by the first wait, or by a wake scheduled before it: a
        # transaction that never queues needs none
        wake = observer.signal_for(txn_id)
        while True:
            payload = yield WaitEvent(wake, timeout=self.config.wait_timeout)
            if payload is WaitEvent.TIMED_OUT:
                gtm.abort(txn_id, reason="wait-timeout")
                return False
            kind = payload[0] if isinstance(payload, tuple) else payload
            if kind == "aborted":
                return False
            # A "grant" wake may be stale: a grant made inside the
            # client's own invoke still schedules one when the next
            # action invokes again, and that wake arrives while the
            # client already waits for something else.  The kernel
            # knows: a granted waiter has left Waiting.
            if kind == "grant" and txn.state is not TransactionState.WAITING:
                return True


def two_phase_locking(wait_timeout: float | None = None,
                      hold_timeout: float = 3.0) -> GTMScheduler:
    """The classical strict-2PL baseline the paper compares against.

    It is the GTM under :data:`~repro.core.compatibility.READ_WRITE`
    (readers share, everything else excludes, locks held until commit
    or abort) whose disconnected transactions keep their locks and are
    aborted past ``hold_timeout``.  The 3 s default is below the
    workload's fixed 5 s outage, so every disconnected transaction
    aborts (see EXPERIMENTS.md).  Deadlocks are broken by the GTM's
    wait-for graph, youngest victim first.
    """
    scheduler = GTMScheduler(GTMSchedulerConfig(
        gtm_config=GTMConfig(matrix=READ_WRITE),
        wait_timeout=wait_timeout, hold_timeout=hold_timeout))
    scheduler.name = "2pl"
    return scheduler
