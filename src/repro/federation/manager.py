"""The federated GTM: N object-partitioned shards under one coordinator.

Drop-in facade-compatible with
:class:`~repro.core.gtm.GlobalTransactionManager`: same constructor
seam, same methods, same event stream, same error taxonomy.  Objects
are partitioned across :class:`~repro.federation.shard.FederationShard`
instances by the stable crc32 routing of
:class:`~repro.federation.routing.ObjectRouter`; everything keyed by
*object* (locks, wait queues, staging, versions) lives in the owning
shard, everything keyed by *transaction* (states, history, wait-for
edges, observers, the SST) stays at the coordinator.

The coordinator transcribes the monolith's commit/abort/sleep drivers
call-for-call — same event emission order, same clock-call count — so a
1-shard federation is trace-identical to the monolith (the identity leg
of the federation differential).  On top of that it adds what only a
coordinator can:

- **commitment-ordering certification** — every commit is externalized
  at one global point into per-shard commit-order logs
  (:class:`~repro.federation.certifier.CommitmentOrderCertifier`); a
  transaction whose snapshot promotion would invert an already
  externalized order is aborted with a ``certification-*`` reason;
- **never-blocking MVCC reads** (``GTMConfig.mvcc_reads``) — the READ
  class is admitted without ever entering the wait queue: the reader
  pins the owning shard's current commit sequence number and is served
  from the shard's ring of recent committed versions
  (:mod:`repro.ldbs.versions`) instead of taking a semantic lock.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Mapping

from repro.errors import (
    CertificationError,
    GTMError,
    ProtocolError,
    SnapshotTooOld,
    SSTFailure,
)
from repro.driver.clock import Clock
from repro.core.admission import GrantOutcome
from repro.core.conflicts import build_conflict_checker
from repro.core.events import EventBus, GTMEvent, GTMObserver, dispatch_event
from repro.core.gtm import GTMConfig
from repro.core.history import OperationLog
from repro.core.objects import ManagedObject, ObjectBinding
from repro.core.opclass import Invocation, OperationClass
from repro.core.policies import build_deadlock_policy
from repro.core.pool import ScratchLists
from repro.core.sst import SSTExecutor, SSTReport, StagedWrite
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction
from repro.federation.certifier import CommitmentOrderCertifier
from repro.federation.routing import FederationDirectory, ObjectRouter
from repro.federation.shard import FederationShard

__all__ = ["FederatedTransactionManager"]

_TS = TransactionState

#: Call-local accumulators for the coordinator's commit drivers —
#: mirrors the commit pipeline's pool so the federated hot path stays
#: allocation-free too.
_SCRATCH = ScratchLists(max_size=64)


def _fed_ticked(method):
    """The federation's tick bracket: one bus, N admission controllers.

    Mirrors :func:`repro.core.gtm._ticked` exactly, except the close
    drains every shard's re-police queue (in shard order — routing is
    deterministic, so so is the drain) before flushing the bus.
    """
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        bus = self.bus
        shards = self.shards
        bus._tick_depth += 1
        for shard in shards:
            shard.admission._tick_depth += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            for shard in shards:
                admission = shard.admission
                depth = admission._tick_depth - 1
                admission._tick_depth = depth
                if depth == 0 and admission._repolice_queue:
                    admission.flush_repolice()
            depth = bus._tick_depth - 1
            bus._tick_depth = depth
            if depth == 0 and bus._buffer:
                bus.flush()
    return wrapper


class _PipelineView:
    """The invariant sweep reads ``gtm.pipeline.deferred``; merge it."""

    __slots__ = ("_shards",)

    def __init__(self, shards: tuple[FederationShard, ...]) -> None:
        self._shards = shards

    @property
    def deferred(self) -> dict[str, list[str]]:
        merged: dict[str, list[str]] = {}
        for shard in self._shards:
            merged.update(shard.pipeline.deferred)
        return merged


class FederatedTransactionManager:
    """Facade-compatible federation of N single-partition GTM shards."""

    def __init__(self, config: GTMConfig | None = None,
                 clock: "Callable[[], float] | Clock | None" = None,
                 sst_executor: SSTExecutor | None = None,
                 observer: GTMObserver | None = None) -> None:
        self.config = config or GTMConfig()
        self.config.registry.validate_against(self.config.matrix)
        if clock is not None and not callable(clock):
            clock_obj = clock
            clock = lambda: clock_obj.now  # noqa: E731
        self._external_clock = clock
        self._logical_time = itertools.count(1)
        self.sst_executor = sst_executor
        self.observer = observer or GTMObserver()
        self.bus = EventBus([self.observer])
        self.checker = build_conflict_checker(
            self.config.conflict_engine, matrix=self.config.matrix,
            dependence=self.config.dependence)
        self.transactions: dict[str, GTMTransaction] = {}
        self.history = OperationLog()
        self.sst_reports: list[SSTReport] = []

        self.deadlock_policy = (
            self.config.deadlock_policy
            or build_deadlock_policy(self.config.deadlock_detection,
                                     self.config.victim_policy))
        self.deadlock_policy.bind(
            lambda t: (self.transactions[t].begin_time
                       if t in self.transactions else 0.0))

        #: ``mvcc_reads`` without an explicit shard count still needs
        #: the versioned-state machinery — it implies a 1-shard
        #: federation.
        shard_count = max(1, self.config.gtm_shards)
        self.router = ObjectRouter(shard_count)
        self.certifier = CommitmentOrderCertifier(shard_count)
        abort_from_committing = (
            lambda txn, now, reason: self.abort(txn.txn_id, reason=reason))
        self.shards: tuple[FederationShard, ...] = tuple(
            FederationShard(
                index, checker=self.checker,
                registry=self.config.registry, history=self.history,
                grant_policy=self.config.grant_policy,
                throttle=self.config.throttle,
                deadlock_policy=self.deadlock_policy, bus=self.bus,
                transactions=self.transactions, clock=self.now,
                abort_txn=self.abort,
                abort_from_committing=abort_from_committing,
                version_ring=self.config.version_ring)
            for index in range(shard_count))
        self.lock_table = FederationDirectory(
            shard.lock_table for shard in self.shards)
        self.pipeline = _PipelineView(self.shards)
        self._mvcc = bool(self.config.mvcc_reads)

    # -- compatibility views over the subsystems ------------------------

    @property
    def objects(self) -> dict[str, ManagedObject]:
        return self.lock_table.objects

    @property
    def deadlocks_detected(self) -> int:
        return self.deadlock_policy.detections

    def subscribe(self, observer: GTMObserver) -> GTMObserver:
        """Attach one more observer to the federation's event stream."""
        return self.bus.subscribe(observer)

    def now(self) -> float:
        """Current time: external clock if wired, else a logical counter."""
        if self._external_clock is not None:
            return self._external_clock()
        return float(next(self._logical_time))

    def _owner(self, name: str) -> FederationShard:
        return self.shards[self.router.index_of(name)]

    # ------------------------------------------------------------------
    # object registry
    # ------------------------------------------------------------------

    def register_object(self, obj: ManagedObject) -> ManagedObject:
        self.lock_table.register(obj)
        self._owner(obj.name).register(obj)
        self.history.record_object(obj.name, obj.permanent, obj.exists)
        return obj

    def create_object(self, name: str, value: Any = None,
                      members: Mapping[str, Any] | None = None,
                      binding: ObjectBinding | None = None,
                      exists: bool = True) -> ManagedObject:
        return self.register_object(
            ManagedObject(name, members=members, value=value,
                          binding=binding, exists=exists))

    def object(self, name: str) -> ManagedObject:
        return self.lock_table.get(name)

    def transaction(self, txn_id: str) -> GTMTransaction:
        try:
            return self.transactions[txn_id]
        except KeyError:
            raise GTMError(f"unknown transaction {txn_id!r}") from None

    def _involved_objects(self, txn: GTMTransaction) -> list[ManagedObject]:
        return [self.object(name) for name in sorted(txn.involved)]

    # ------------------------------------------------------------------
    # Algorithm 1 — ⟨begin, A⟩
    # ------------------------------------------------------------------

    @_fed_ticked
    def begin(self, txn_id: str, priority: int = 0) -> GTMTransaction:
        if txn_id in self.transactions:
            raise ProtocolError("begin", f"transaction {txn_id!r} exists")
        now = self.now()
        txn = GTMTransaction(txn_id, begin_time=now, priority=priority)
        self.transactions[txn_id] = txn
        self.bus.on_begin(txn, now)
        return txn

    # ------------------------------------------------------------------
    # Algorithm 2 — ⟨op, X, A⟩, with the MVCC fast path in front
    # ------------------------------------------------------------------

    @_fed_ticked
    def invoke(self, txn_id: str, object_name: str,
               invocation: Invocation) -> str:
        txn = self.transaction(txn_id)
        obj = self.object(object_name)
        if self._mvcc:
            outcome = self._mvcc_invoke(txn, obj, invocation)
            if outcome is not None:
                return outcome
        return self._owner(object_name).admission.request(
            txn, obj, invocation, self.now())

    def _mvcc_invoke(self, txn: GTMTransaction, obj: ManagedObject,
                     invocation: Invocation) -> str | None:
        """The lock-free read path and its write-promotion certification.

        Returns a :class:`GrantOutcome` when the invocation was fully
        handled here, or None to fall through to normal admission.
        """
        txn_id = txn.txn_id
        shard = self._owner(obj.name)
        if invocation.op_class is OperationClass.READ:
            if obj.is_pending(txn_id):
                # read-your-writes: a granted holder reads its virtual
                # copy, exactly as in the monolith.
                return None
            if not txn.is_in(_TS.ACTIVE):
                raise ProtocolError(
                    "invoke",
                    f"{txn_id!r} is {txn.state.value}, not active")
            if invocation.member not in obj.permanent:
                raise GTMError(
                    f"object {obj.name!r} has no member "
                    f"{invocation.member!r}")
            pin = self.certifier.pin(txn_id, shard.index)
            try:
                version = shard.versions.ring(obj.name).as_of(pin)
            except SnapshotTooOld:
                self.abort(txn_id, reason="snapshot-too-old")
                return GrantOutcome.ABORTED
            if not version.exists:
                raise ProtocolError(
                    "invoke",
                    f"{invocation.describe()!r} on {obj.name!r}: the "
                    f"object does not exist in the pinned snapshot")
            self.certifier.record_served(txn_id, obj.name, version)
            return GrantOutcome.GRANTED
        served = self.certifier.served_version(txn_id, obj.name)
        if served is None:
            return None
        # A write on an object this transaction read lock-free: the
        # snapshot promotes into a real grant, and commitment ordering
        # demands the snapshot still be the newest externalized version.
        first_grant = txn_id not in obj.read
        if first_grant:
            try:
                self.certifier.certify_promotion(txn_id, obj.name)
            except CertificationError:
                self.abort(txn_id, reason="certification-stale-snapshot")
                return GrantOutcome.ABORTED
        outcome = self._owner(obj.name).admission.request(
            txn, obj, invocation, self.now())
        if outcome == GrantOutcome.GRANTED and first_grant \
                and txn_id in obj.read:
            # read-your-snapshot: the virtual copy must chain from the
            # image the reads were served from.  After a certified
            # promotion this is a no-op (the snapshot is provably still
            # current); under the fault-injection control it is the
            # deliberate inconsistency the oracle must catch.
            for member, value in served.values.items():
                txn.set_temp(obj.name, member, value)
        return outcome

    # ------------------------------------------------------------------
    # operating on virtual data
    # ------------------------------------------------------------------

    @_fed_ticked
    def apply(self, txn_id: str, object_name: str,
              invocation: Invocation) -> Any:
        txn = self.transaction(txn_id)
        obj = self.object(object_name)
        if self._mvcc and invocation.op_class is OperationClass.READ \
                and not obj.is_pending(txn_id):
            served = self.certifier.served_version(txn_id, object_name)
            if served is not None:
                if not txn.is_in(_TS.ACTIVE):
                    raise ProtocolError(
                        "apply",
                        f"{txn_id!r} is {txn.state.value}, not active")
                try:
                    return served.values[invocation.member]
                except KeyError:
                    raise GTMError(
                        f"object {object_name!r} has no member "
                        f"{invocation.member!r}") from None
        return self._owner(object_name).pipeline.apply_virtual(
            txn, obj, invocation)

    def read_virtual(self, txn_id: str, object_name: str,
                     member: str = "value") -> Any:
        txn = self.transaction(txn_id)
        try:
            return txn.temp_value(object_name, member)
        except KeyError:
            served = self.certifier.served_version(txn_id, object_name)
            if served is not None and member in served.values:
                return served.values[member]
            raise

    # ------------------------------------------------------------------
    # Algorithms 3 & 4 — the coordinator's commit drivers
    # ------------------------------------------------------------------

    @_fed_ticked
    def local_commit(self, txn_id: str, object_name: str) -> bool:
        return self._owner(object_name).pipeline.local_commit(
            self.transaction(txn_id), self.object(object_name), self.now())

    @_fed_ticked
    def global_commit(self, txn_id: str) -> SSTReport | None:
        return self._finish_commit(self.transaction(txn_id), self.now())

    @_fed_ticked
    def request_commit(self, txn_id: str) -> SSTReport | None:
        return self._request_commit(self.transaction(txn_id))

    @_fed_ticked
    def try_finish_commit(self, txn_id: str) -> SSTReport | None:
        txn = self.transaction(txn_id)
        if not txn.is_in(_TS.COMMITTING):
            return None
        return self._request_commit(txn)

    def commit_ready(self, txn_id: str) -> bool:
        txn = self.transaction(txn_id)
        return self._commit_ready(txn)

    def _commit_ready(self, txn: GTMTransaction) -> bool:
        if not txn.is_in(_TS.COMMITTING):
            return False
        return all(txn.txn_id in self.object(name).committing
                   for name in txn.involved)

    @_fed_ticked
    def pump_commits(self) -> list[str]:
        completed: list[str] = []
        progress = True
        while progress:
            progress = False
            for txn_id, txn in list(self.transactions.items()):
                if txn.is_in(_TS.COMMITTING) and self._commit_ready(txn):
                    self._finish_commit(txn, self.now())
                    completed.append(txn_id)
                    progress = True
        return completed

    def _request_commit(self, txn: GTMTransaction) -> SSTReport | None:
        """Local commit everywhere, then the global commit — the
        monolith pipeline's driver, with per-object work delegated to
        the owning shard."""
        txn_id = txn.txn_id
        if not txn.is_in(_TS.ACTIVE, _TS.COMMITTING):
            raise ProtocolError(
                "request_commit", f"{txn_id!r} is {txn.state.value}")
        if txn.t_wait:
            raise ProtocolError(
                "request_commit",
                f"{txn_id!r} is waiting for an invocation (constraint iii)")
        all_staged = True
        involved = _SCRATCH.acquire()
        try:
            for name in sorted(txn.involved):
                involved.append(self.object(name))
            for obj in involved:
                if txn_id in obj.committing:
                    continue
                if obj.is_pending(txn_id):
                    if not self._owner(obj.name).pipeline.local_commit(
                            txn, obj, self.now()):
                        all_staged = False
        finally:
            _SCRATCH.release(involved)
        if not all_staged:
            return None
        if not txn.involved and txn.is_in(_TS.ACTIVE):
            # a pure lock-free reader commits without ever staging
            # anything — there is no local commit to make the Active ->
            # Committing transition for it.
            txn.transition(_TS.COMMITTING)
        return self._finish_commit(txn, self.now())

    def _finish_commit(self, txn: GTMTransaction,
                       now: float) -> SSTReport | None:
        """⟨commit, A⟩ plus the post-commit pumps on every involved X."""
        involved = _SCRATCH.acquire()
        try:
            for name in sorted(txn.involved):
                involved.append(self.object(name))
            report = self._global_commit(txn, involved, now)
            for obj in involved:
                shard = self._owner(obj.name)
                shard.pipeline.pump_deferred(obj)
                shard.admission.pump_unlock(obj)
        finally:
            _SCRATCH.release(involved)
        return report

    def _global_commit(self, txn: GTMTransaction,
                       involved: list[ManagedObject],
                       now: float) -> SSTReport | None:
        """Apply X_new everywhere via one federation-level SST, then
        externalize the commit into the shard commit-order logs and
        publish the post-commit versions."""
        txn_id = txn.txn_id
        if not txn.is_in(_TS.COMMITTING):
            raise ProtocolError(
                "global_commit",
                f"{txn_id!r} is {txn.state.value}, not committing")
        staged = _SCRATCH.acquire()
        try:
            for obj in involved:
                if txn_id not in obj.committing:
                    raise ProtocolError(
                        "global_commit",
                        f"{txn_id!r} missing from {obj.name!r}.committing "
                        f"— local commit every involved object first")
                new_values = obj.new.get(txn_id)
                if new_values is None:
                    raise ProtocolError(
                        "global_commit",
                        f"X_new is ⊥ for {txn_id!r} on {obj.name!r}")
                staged.append((obj, new_values))

            report: SSTReport | None = None
            if self.sst_executor is not None and staged:
                writes = [self._staged_write(obj, values)
                          for obj, values in staged]
                try:
                    report = self.sst_executor.execute(txn_id, writes)
                except SSTFailure:
                    self.abort(txn_id, reason="sst-failure")
                    raise
                self.sst_reports.append(report)

            for obj, new_values in staged:
                self._apply_permanent(obj, new_values)
                obj.record_commit(txn_id, obj.retire_committer(txn_id), now)
        finally:
            _SCRATCH.release(staged)
        txn.finish(_TS.COMMITTED, now)
        self.deadlock_policy.on_finished(txn_id)
        self.history.record_commit(txn_id)
        self.bus.on_global_commit(txn, now)
        self._externalize(txn_id, involved)
        return report

    def _externalize(self, txn_id: str,
                     involved: list[ManagedObject]) -> None:
        """The single global externalization point: commit-order logs
        gain one entry per touched shard, and each touched object's
        post-commit image joins its version ring under the new csn."""
        by_shard: dict[int, list[str]] = {}
        for obj in involved:
            by_shard.setdefault(self.router.index_of(obj.name),
                                []).append(obj.name)
        assigned = self.certifier.externalize(txn_id, by_shard)
        for obj in involved:
            index = self.router.index_of(obj.name)
            self.shards[index].versions.publish(
                obj.name, assigned[index], obj.permanent, obj.exists)
        self.certifier.forget(txn_id)

    @staticmethod
    def _staged_write(obj: ManagedObject,
                      new_values: dict[str, Any]) -> StagedWrite:
        if "__deleted__" in new_values:
            return StagedWrite(object_name=obj.name, binding=obj.binding,
                               values={}, delete=True)
        return StagedWrite(object_name=obj.name, binding=obj.binding,
                           values=dict(new_values))

    @staticmethod
    def _apply_permanent(obj: ManagedObject,
                         new_values: dict[str, Any]) -> None:
        if "__deleted__" in new_values:
            obj.permanent = {member: None for member in obj.permanent}
            obj.exists = False
            return
        obj.permanent.update(new_values)
        obj.exists = True  # a committed INSERT materializes the shell

    # ------------------------------------------------------------------
    # Algorithms 5 & 6 — ⟨abort, X, A⟩ and ⟨abort, A⟩
    # ------------------------------------------------------------------

    @_fed_ticked
    def local_abort(self, txn_id: str, object_name: str) -> None:
        shard = self._owner(object_name)
        shard.admission.local_abort(self.transaction(txn_id),
                                    self.object(object_name))
        shard.pipeline.cancel_deferred(txn_id, object_name)

    @_fed_ticked
    def global_abort(self, txn_id: str, reason: str = "requested") -> None:
        txn = self.transaction(txn_id)
        now = self.now()
        if not txn.is_in(_TS.ABORTING):
            raise ProtocolError(
                "global_abort",
                f"{txn_id!r} is {txn.state.value}, not aborting")
        txn.finish(_TS.ABORTED, now)
        self.deadlock_policy.on_finished(txn_id)
        self.certifier.forget(txn_id)
        touched = self._involved_objects(txn)
        for obj in touched:
            obj.aborting.discard(txn_id)
        self.bus.on_global_abort(txn, now, reason)
        for obj in touched:
            shard = self._owner(obj.name)
            shard.pipeline.pump_deferred(obj)
            shard.admission.pump_unlock(obj)

    @_fed_ticked
    def abort(self, txn_id: str, reason: str = "requested") -> None:
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
    # Algorithms 7-10 — the sleep protocol, coordinated across shards
    # ------------------------------------------------------------------

    @_fed_ticked
    def sleep(self, txn_id: str) -> None:
        txn = self.transaction(txn_id)
        involved = self._involved_objects(txn)
        now = self.now()
        if not txn.is_in(_TS.ACTIVE, _TS.WAITING):
            raise ProtocolError(
                "sleep", f"{txn_id!r} is {txn.state.value}, not "
                f"active/waiting")
        txn.transition(_TS.SLEEPING)
        txn.t_sleep = now
        for obj in involved:
            if obj.is_pending(txn_id) or obj.is_waiting(txn_id):
                obj.mark_sleeping(txn_id)   # Algorithm 7
        self.bus.on_sleep(txn, now)
        # a sleeping holder no longer blocks: waiters may proceed now.
        for obj in involved:
            self._owner(obj.name).admission.pump_unlock(obj)

    @_fed_ticked
    def awake(self, txn_id: str) -> bool:
        txn = self.transaction(txn_id)
        now = self.now()
        if not txn.is_in(_TS.SLEEPING):
            raise ProtocolError(
                "awake", f"{txn_id!r} is {txn.state.value}, not sleeping")
        if txn.t_sleep is None:
            raise ProtocolError("awake", f"{txn_id!r} has no sleep time")
        involved = self._involved_objects(txn)
        # Algorithm 9's per-object predicate, with the same evaluation
        # order, short-circuit and telemetry as the monolith's
        # revalidate — delegated to the owning shard's sleep manager.
        conflicted = False
        for obj in involved:
            hit = self._owner(obj.name).sleep_manager.conflicts(txn, obj)
            self.bus.on_revalidate(txn, obj, hit, now)
            if hit:
                conflicted = True
                break
        if conflicted:
            self._abort_conflicted(txn, involved, now)
            return False
        self._wake_survivor(txn, involved, now)
        return True

    def _abort_conflicted(self, txn: GTMTransaction,
                          involved: list[ManagedObject],
                          now: float) -> None:
        for obj in involved:
            obj.clear_txn(txn.txn_id)
        txn.finish(_TS.ABORTED, now)
        self.deadlock_policy.on_finished(txn.txn_id)
        self.certifier.forget(txn.txn_id)
        self.bus.on_awake(txn, now, survived=False)
        self.bus.on_global_abort(txn, now, "sleep-conflict")
        for obj in involved:
            self._owner(obj.name).admission.pump_unlock(obj)

    def _wake_survivor(self, txn: GTMTransaction,
                       involved: list[ManagedObject], now: float) -> None:
        for obj in involved:
            if txn.txn_id not in obj.sleeping:
                continue
            obj.wake_sleeping(txn.txn_id)
            entry = obj.waiting_entry(txn.txn_id)
            if entry is not None:
                # Algorithm 9, case 1: grant immediately with fresh
                # snapshots (the sleeper jumps the queue, per the paper).
                obj.remove_waiting(txn.txn_id)
                self._owner(obj.name).admission.grant(
                    txn, obj, entry.invocation, now)
                entry.release()  # last reference — recycle (core.pool)
        # Deliver any buffered queue-jump regrant notifications *before*
        # A_t_wait clears — same mid-tick flush as the monolith's sleep
        # manager, for the same observer contract.
        self.bus.flush()
        txn.transition(_TS.ACTIVE)
        txn.t_sleep = None
        txn.t_wait.clear()
        self.bus.on_awake(txn, now, survived=True)

    # ------------------------------------------------------------------
    # event-object dispatch and diagnostics
    # ------------------------------------------------------------------

    def dispatch(self, event: GTMEvent) -> Any:
        return dispatch_event(self, event)

    def check_invariants(self) -> None:
        """The monolith's structural sweep plus the federation's own:
        no pair of transactions may be externalized in opposite orders
        on two shards (the commitment-ordering audit)."""
        for obj in self.lock_table.values():
            obj.check_invariants()
        for txn in self.transactions.values():
            if txn.is_in(_TS.WAITING) and not txn.t_wait:
                raise GTMError(
                    f"{txn.txn_id!r} is Waiting with no t_wait entry")
            if txn.is_in(_TS.SLEEPING) and txn.t_sleep is None:
                raise GTMError(
                    f"{txn.txn_id!r} is Sleeping with t_sleep = ⊥")
        inverted = self.certifier.inversions()
        if inverted:
            first, second, shard_a, shard_b = inverted[0]
            raise GTMError(
                f"commitment-ordering violation: {first!r} precedes "
                f"{second!r} on shard {shard_a} but follows it on "
                f"shard {shard_b}")

    def __repr__(self) -> str:
        states: dict[str, int] = {}
        for txn in self.transactions.values():
            states[txn.state.value] = states.get(txn.state.value, 0) + 1
        return (f"<FederatedTransactionManager shards={len(self.shards)} "
                f"objects={len(self.lock_table)} transactions={states}>")
