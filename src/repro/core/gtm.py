"""The Global Transaction Manager facade — Algorithms 1-11 of the paper.

The GTM is "a sort of controller for the state machines that manages the
transaction conflicts on the various database objects, thus allowing a
pre-schedule of transactions" (Section IV).  This module is a *facade*
over the cooperating subsystems wired together here:
:mod:`~repro.core.admission` (Table I semantic locking, Algorithms 2, 5
and 11), :mod:`~repro.core.commit_pipeline` (Eq. (1)/(2) reconciliation
and SSTs, Algorithms 3 and 4), :mod:`~repro.core.sleep_manager`
(Algorithms 7-10) and :mod:`~repro.core.deadlock` (Section VII
deadlock policing).  Observer callbacks are multiplexed through one
:class:`~repro.core.events.EventBus`.  The paper-interpretation notes
live in ``docs/PROTOCOL.md`` alongside the layer diagram.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import GTMError, ProtocolError
from repro.driver.clock import Clock
from repro.core.admission import AdmissionController, GrantOutcome, LockTable
from repro.core.commit_pipeline import CommitPipeline
from repro.core.compatibility import (
    CompatibilityMatrix,
    DEFAULT_MATRIX,
    INDEPENDENT_MEMBERS,
    LogicalDependence,
)
from repro.core.conflicts import ConflictChecker, build_conflict_checker
from repro.core.deadlock import DeadlockPolicing
from repro.core.events import EventBus, GTMObserver
from repro.core.history import OperationLog
from repro.core.objects import ManagedObject, ObjectBinding
from repro.core.opclass import Invocation
from repro.core.reconciliation import ReconcilerRegistry, default_registry
from repro.core.sleep_manager import SleepManager
from repro.core.sst import SSTExecutor, SSTReport
from repro.core.starvation import FifoGrantPolicy, GrantPolicy
from repro.core.states import TransactionState
from repro.core.throttle import NoThrottle
from repro.core.transaction import GTMTransaction

__all__ = [
    "GlobalTransactionManager",
    "GTMConfig",
    "GTMObserver",
    "GrantOutcome",
]

_TS = TransactionState


def _ticked(method):
    """Bracket one facade mutation in a re-police tick.

    While the tick is open the admission controller queues the objects
    that ⟨unlock, X⟩ dirtied instead of sweeping their wait-for edges on
    every unlock; the outermost ``finally`` sweeps each queued object
    once.  Everything still happens *inside* the facade call.  Nested
    ticks (abort inside commit, the service re-entering from
    ``on_grant``) just deepen the counter; only the outermost close
    sweeps.  Observer hooks are not part of this: the bus delivers each
    one when it is emitted.

    Every facade call that can reach ⟨unlock, X⟩ ticks: ``invoke`` (a
    deadlock victim's abort), the commit calls, the abort calls,
    ``sleep``, ``awake`` and ``pump_commits``.  ``begin`` and ``apply``
    do not: one creates a transaction and the other writes its virtual
    copy, neither unlocks anything, so a tick around them would only
    open and close an empty batch, on every op of every transaction.
    A call re-entering from an observer hook opens its own tick.
    """
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        # the counter twiddles are inline: this wraps every facade call,
        # and they are not worth two method calls apiece.
        admission = self.admission
        admission._tick_depth += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            depth = admission._tick_depth - 1
            admission._tick_depth = depth
            if depth == 0 and admission._repolice_queue:
                admission.flush_repolice()
    return wrapper


@dataclass
class GTMConfig:
    """Protocol tunables.

    The paper's defaults: ``matrix`` is Table I, ``dependence`` treats
    members as independent, ``registry`` holds the Eq. (1)/(2)
    reconcilers, ``grant_policy`` is FIFO θ and ``throttle`` admits
    everything.  Definition 1 has one evaluator in the kernel, the
    compiled :class:`~repro.core.conflicts.ConflictChecker`, which no
    field switches.  Section VII leaves deadlock handling open; every
    manager detects deadlocks with its own wait-for graph
    (:mod:`repro.core.deadlock`), which no field switches off.
    """

    matrix: CompatibilityMatrix = field(default_factory=lambda: DEFAULT_MATRIX)
    dependence: LogicalDependence = field(
        default_factory=lambda: INDEPENDENT_MEMBERS)
    registry: ReconcilerRegistry = field(default_factory=default_registry)
    grant_policy: GrantPolicy = field(default_factory=FifoGrantPolicy)
    throttle: Any = field(default_factory=NoThrottle)


class GlobalTransactionManager:
    """The paper's middleware: pre-serialization over virtual data.

    Every Algorithm 1-11 step is written here (or in the subsystems this
    class wires), once; this is the only transaction manager.

    ``checker`` replaces the interned
    :class:`~repro.core.conflicts.ConflictChecker` built from the
    config's matrix and dependence; only the engine differential passes
    one, its pairwise oracle (:mod:`repro.check.pairwise`).
    """

    def __init__(self, config: GTMConfig | None = None,
                 clock: "Callable[[], float] | Clock | None" = None,
                 sst_executor: SSTExecutor | None = None,
                 observer: GTMObserver | None = None,
                 checker: ConflictChecker | None = None) -> None:
        self.config = config or GTMConfig()
        # Definition 1 condition 3: a class that commutes with itself
        # must have a reconciler — catch misconfiguration at startup.
        self.config.registry.validate_against(self.config.matrix)
        # The clock seam accepts a zero-argument callable, any
        # repro.driver Clock object (what the schedulers and the live
        # service pass), or nothing: then time is a logical counter.
        if clock is None:
            ticks = itertools.count(1)
            clock = lambda: float(next(ticks))  # noqa: E731
        elif not callable(clock):
            # ``getattr`` is C: a read is the clock's ``now`` frame alone
            clock = functools.partial(getattr, clock, "now")
        #: ``gtm.now()``: current time.  Bound here, not a method, so a
        #: read is the seam's own frames and no facade frame above them.
        self.now: Callable[[], float] = clock
        self.sst_executor = sst_executor
        self.observer = observer or GTMObserver()
        self.bus = EventBus([self.observer])
        self.checker = (checker if checker is not None
                        else build_conflict_checker(self.config.matrix,
                                                    self.config.dependence))
        self.transactions: dict[str, GTMTransaction] = {}
        #: operation log + commit order for serializability checking.
        self.history = OperationLog()

        # Ownership points one way: the subsystems wired below hold no
        # strong reference to this facade, so dropping the last
        # reference to it frees the kernel by reference counting.
        transactions = self.transactions
        self.deadlocks = DeadlockPolicing(
            lambda t: (transactions[t].begin_time
                       if t in transactions else 0.0))
        # The two real back-calls, a victim's and a failed commit's
        # abort, look ``abort`` up on a weak proxy at each call (a bound
        # method taken once would hold the facade).
        facade = weakref.proxy(self)
        self.lock_table = LockTable()
        self.admission = AdmissionController(
            checker=self.checker,
            grant_policy=self.config.grant_policy,
            throttle=self.config.throttle,
            deadlocks=self.deadlocks, bus=self.bus,
            transactions=self.transactions, clock=self.now,
            abort_txn=lambda victim, reason: facade.abort(victim, reason))
        self.pipeline = CommitPipeline(
            registry=self.config.registry, history=self.history,
            bus=self.bus, transactions=self.transactions,
            sst_executor=sst_executor, clock=self.now,
            objects=self.lock_table.objects,
            pump_unlock=self.admission.pump_unlock,
            on_finished=self.deadlocks.on_finished,
            abort_from_committing=lambda txn, now, reason:
                facade.abort(txn.txn_id, reason=reason))
        self.sleep_manager = SleepManager(
            checker=self.checker, bus=self.bus, history=self.history,
            pump_unlock=self.admission.pump_unlock,
            regrant=self.admission.regrant,
            on_finished=self.deadlocks.on_finished)

    # -- compatibility views over the subsystems ------------------------

    @property
    def objects(self) -> dict[str, ManagedObject]:
        return self.lock_table.objects

    @property
    def sst_reports(self) -> list[SSTReport]:
        return self.pipeline.sst_reports

    @property
    def deadlocks_detected(self) -> int:
        return self.deadlocks.detections

    def subscribe(self, observer: GTMObserver) -> GTMObserver:
        """Attach one more observer to the GTM's event stream."""
        return self.bus.subscribe(observer)

    # ------------------------------------------------------------------
    # object registry
    # ------------------------------------------------------------------

    def register_object(self, obj: ManagedObject) -> ManagedObject:
        self.lock_table.register(obj)
        self.history.record_object(obj.name, obj.permanent, obj.exists)
        return obj

    def create_object(self, name: str, value: Any = None,
                      members: Mapping[str, Any] | None = None,
                      binding: ObjectBinding | None = None,
                      exists: bool = True) -> ManagedObject:
        """Register a managed object; ``exists=False`` registers a
        *shell* only an INSERT invocation may touch until it commits."""
        return self.register_object(
            ManagedObject(name, members=members, value=value,
                          binding=binding, exists=exists))

    def object(self, name: str) -> ManagedObject:
        # the lock table's dict read here, not through ``LockTable.get``:
        # every facade call that names an object pays this lookup.
        try:
            return self.lock_table.objects[name]
        except KeyError:
            raise GTMError(f"unknown object {name!r}") from None

    def transaction(self, txn_id: str) -> GTMTransaction:
        try:
            return self.transactions[txn_id]
        except KeyError:
            raise GTMError(f"unknown transaction {txn_id!r}") from None

    # ------------------------------------------------------------------
    # Algorithm 1 — ⟨begin, A⟩
    # ------------------------------------------------------------------

    def begin(self, txn_id: str, priority: int = 0) -> GTMTransaction:
        """⟨begin, A⟩: create A in the Active state."""
        if txn_id in self.transactions:
            raise ProtocolError("begin", f"transaction {txn_id!r} exists")
        now = self.now()
        txn = GTMTransaction(txn_id, begin_time=now, priority=priority)
        self.transactions[txn_id] = txn
        self.bus.on_begin(txn, now)
        return txn

    # ------------------------------------------------------------------
    # Algorithm 2 — ⟨op, X, A⟩ (the admission layer)
    # ------------------------------------------------------------------

    @_ticked
    def invoke(self, txn_id: str, object_name: str,
               invocation: Invocation) -> str:
        """⟨op, X, A⟩: request the grant; returns a :class:`GrantOutcome`."""
        return self.admission.request(self.transaction(txn_id),
                                      self.object(object_name),
                                      invocation, self.now())

    # ------------------------------------------------------------------
    # operating on virtual data
    # ------------------------------------------------------------------

    def apply(self, txn_id: str, object_name: str,
              invocation: Invocation) -> Any:
        """Perform one operation on A's virtual copy of X (A_temp)."""
        return self.pipeline.apply_virtual(self.transaction(txn_id),
                                           self.object(object_name),
                                           invocation)

    def read_virtual(self, txn_id: str, object_name: str,
                     member: str = "value") -> Any:
        """Read A's virtual value of X.member (A_temp)."""
        return self.transaction(txn_id).temp_value(object_name, member)

    # ------------------------------------------------------------------
    # Algorithms 3 & 4 — the commit pipeline
    # ------------------------------------------------------------------

    @_ticked
    def local_commit(self, txn_id: str, object_name: str) -> bool:
        """⟨commit, X, A⟩: reconcile and stage; False when deferred."""
        return self.pipeline.local_commit(self.transaction(txn_id),
                                          self.object(object_name),
                                          self.now())

    @_ticked
    def global_commit(self, txn_id: str) -> SSTReport | None:
        """⟨commit, A⟩: apply X_new everywhere via the SST."""
        txn = self.transaction(txn_id)
        return self.pipeline.finish_commit(txn, self.pipeline.involved(txn),
                                           self.now())

    @_ticked
    def request_commit(self, txn_id: str) -> SSTReport | None:
        """Local commit on every involved object, then global commit."""
        return self.pipeline.request_commit(self.transaction(txn_id),
                                            self.now())

    @_ticked
    def try_finish_commit(self, txn_id: str) -> SSTReport | None:
        """Retry a commit left pending by deferred local commits."""
        return self.pipeline.try_finish_commit(self.transaction(txn_id),
                                               self.now())

    def commit_ready(self, txn_id: str) -> bool:
        """True when every involved object has A staged in X_committing."""
        return self.pipeline.commit_ready(self.transaction(txn_id))

    @_ticked
    def pump_commits(self) -> list[str]:
        """Complete every transaction whose deferred commits have staged."""
        return self.pipeline.pump_commits()

    # ------------------------------------------------------------------
    # Algorithms 5 & 6 — ⟨abort, X, A⟩ and ⟨abort, A⟩
    # ------------------------------------------------------------------

    @_ticked
    def local_abort(self, txn_id: str, object_name: str) -> None:
        """⟨abort, X, A⟩: drop A's work on X."""
        self.admission.local_abort(self.transaction(txn_id),
                                   self.object(object_name))
        self.pipeline.cancel_deferred(txn_id, object_name)

    @_ticked
    def global_abort(self, txn_id: str, reason: str = "requested") -> None:
        """⟨abort, A⟩: finalize the abort across every involved object."""
        txn = self.transaction(txn_id)
        now = self.now()
        if not txn.is_in(_TS.ABORTING):
            raise ProtocolError(
                "global_abort",
                f"{txn_id!r} is {txn.state.value}, not aborting")
        txn.finish(_TS.ABORTED, now)
        self.deadlocks.on_finished(txn_id)
        self.history.record_abort(txn_id)
        touched = self.pipeline.involved(txn)
        for obj in touched:
            obj.discard_aborting(txn_id)
        self.bus.on_global_abort(txn, now, reason)
        for obj in touched:
            self.pipeline.pump_deferred(obj)
            self.admission.pump_unlock(obj)

    @_ticked
    def abort(self, txn_id: str, reason: str = "requested") -> None:
        """Convenience: local aborts on every involved object + global."""
        txn = self.transaction(txn_id)
        for object_name in sorted(txn.involved):
            obj = self.object(object_name)
            if (obj.is_pending(txn_id) or obj.is_waiting(txn_id)
                    or txn_id in obj.committing):
                self.local_abort(txn_id, object_name)
        if not txn.is_in(_TS.ABORTING):
            # a transaction that never obtained any grant
            txn.transition(_TS.ABORTING)
        self.global_abort(txn_id, reason=reason)

    # ------------------------------------------------------------------
    # Algorithms 7-10 — the sleep manager
    # ------------------------------------------------------------------

    @_ticked
    def sleep(self, txn_id: str) -> None:
        """⟨sleep, A⟩ then ⟨sleep, X, A⟩ for every involved X.  The
        "oracle Ξ" of Algorithm 8 is the caller (disconnection start)."""
        txn = self.transaction(txn_id)
        self.sleep_manager.sleep(txn, self.pipeline.involved(txn),
                                 self.now())

    @_ticked
    def awake(self, txn_id: str) -> bool:
        """⟨awake, X, A⟩ on every object, then ⟨awake, A⟩.  True when A
        survived (now Active); False when Algorithm 9 forced an abort."""
        txn = self.transaction(txn_id)
        now = self.now()
        if not txn.is_in(_TS.SLEEPING):
            raise ProtocolError(
                "awake", f"{txn_id!r} is {txn.state.value}, not sleeping")
        if txn.t_sleep is None:
            raise ProtocolError("awake", f"{txn_id!r} has no sleep time")
        involved = self.pipeline.involved(txn)
        if self.sleep_manager.revalidate(txn, involved, now):
            self.sleep_manager.abort_conflicted(txn, involved, now)
            return False
        self.sleep_manager.wake_survivor(txn, involved, now)
        return True

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Cross-object structural invariants (used by property tests),
        and two progress properties that hold once a facade call
        returns:

        - **P1, work conservation**: θ (the grant policy's ``select``,
          its own definition of "would grant") run over an object's
          non-sleeping waiters picks no Waiting transaction the throttle
          would admit.  θ sees the time of the latest arrival: the check
          reads no clock, since the default logical clock advances on
          every read.
        - **P2, sleepers block nobody**: no Waiting transaction has a
          wait-for edge to a Sleeping one.  A *sleeping* waiter keeps
          its edges until its wake's queue-jump.
        """
        admission = self.admission
        for obj in self.lock_table.values():
            obj.check_invariants()
            candidates = [entry for entry in obj.waiting
                          if entry.txn_id not in obj.sleeping]
            if not candidates:
                continue
            latest = max(entry.arrival for entry in candidates)
            stuck = [
                entry.txn_id for entry in admission.grant_policy.select(
                    obj, candidates, self.checker, latest)
                if (txn := self.transactions.get(entry.txn_id)) is not None
                and txn.state is _TS.WAITING
                and admission.throttle.would_admit(obj, entry.invocation)]
            if stuck:
                raise GTMError(
                    f"P1: {stuck} grantable on {obj.name!r} but left "
                    f"waiting")
        graph = self.deadlocks.graph
        for txn in self.transactions.values():
            if txn.is_in(_TS.WAITING) and not txn.t_wait:
                raise GTMError(
                    f"{txn.txn_id!r} is Waiting with no t_wait entry")
            if txn.is_in(_TS.SLEEPING) and txn.t_sleep is None:
                raise GTMError(
                    f"{txn.txn_id!r} is Sleeping with t_sleep = ⊥")
            # a fresh grant drops no edges: it relies on this one
            if graph.waits_of(txn.txn_id) \
                    and not txn.is_in(_TS.WAITING, _TS.SLEEPING):
                raise GTMError(
                    f"{txn.txn_id!r} is {txn.state.value} but waits on "
                    f"{sorted(graph.waits_of(txn.txn_id))} in the "
                    f"wait-for graph")
            if txn.state is _TS.WAITING:
                asleep = sorted(
                    blocker for blocker in graph.waits_of(txn.txn_id)
                    if (holder := self.transactions.get(blocker)) is not None
                    and holder.state is _TS.SLEEPING)
                if asleep:
                    raise GTMError(
                        f"P2: Waiting {txn.txn_id!r} has wait-for edges to "
                        f"Sleeping {asleep}")

    def __repr__(self) -> str:
        states: dict[str, int] = {}
        for txn in self.transactions.values():
            states[txn.state.value] = states.get(txn.state.value, 0) + 1
        return (f"<{type(self).__name__} objects={len(self.lock_table)} "
                f"transactions={states}>")
