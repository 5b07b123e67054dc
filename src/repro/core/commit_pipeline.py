"""The commit pipeline: Algorithms 3 and 4, Eq. (1)/(2) reconciliation.

Everything between "A asks to commit" and "the LDBS holds the value"
lives here: per-object staging (``X_committing`` / ``X_new``), the
reconciliation dispatch through the
:class:`~repro.core.reconciliation.ReconcilerRegistry`, the
deferred-commit queue that serializes committers per object (the
Algorithm 3 precondition), and SST execution with failure reporting.

The pipeline never grants locks: after a committer leaves an object it
replays deferred ⟨commit, X, A⟩ requests and asks the admission layer to
pump ⟨unlock, X⟩ — the only two couplings between the layers.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import (
    GTMError,
    ProtocolError,
    ReconciliationError,
    SSTFailure,
)
from repro.core.events import EventBus
from repro.core.history import OperationLog
from repro.core.objects import ManagedObject
from repro.core.opclass import Invocation, OperationClass
from repro.core.reconciliation import ReconcilerRegistry
from repro.core.sst import SSTExecutor, SSTReport, StagedWrite
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction

_TS = TransactionState


class CommitPipeline:
    """Stages, reconciles and applies commits; reports SST outcomes."""

    def __init__(self, registry: ReconcilerRegistry, history: OperationLog,
                 bus: EventBus,
                 transactions: Mapping[str, GTMTransaction],
                 sst_executor: SSTExecutor | None,
                 clock: Callable[[], float],
                 get_object: Callable[[str], ManagedObject],
                 pump_unlock: Callable[[ManagedObject], tuple[str, ...]],
                 on_finished: Callable[[str], None],
                 abort_from_committing: Callable[[GTMTransaction, float,
                                                  str], None]) -> None:
        self.registry = registry
        self.history = history
        self.bus = bus
        self._transactions = transactions
        self.sst_executor = sst_executor
        self._clock = clock
        self._get_object = get_object
        #: admission-layer coupling: ⟨unlock, X⟩ after a committer leaves.
        self._pump_unlock = pump_unlock
        #: deadlock-policy / facade cleanup once a transaction ends.
        self._on_finished = on_finished
        #: facade abort path for a failed SST.
        self._abort_from_committing = abort_from_committing
        #: Per object: txn ids whose local commit was deferred because
        #: another transaction held X_committing (Algorithm 3).
        self.deferred: dict[str, list[str]] = {}
        #: Reports of the SSTs that needed more than one attempt; a
        #: clean SST's report is returned to the caller, not kept.
        self.sst_reports: list[SSTReport] = []

    def _involved(self, txn: GTMTransaction) -> list[ManagedObject]:
        """A's involved objects in name order."""
        get_object = self._get_object
        return [get_object(name) for name in sorted(txn.involved)]

    # ------------------------------------------------------------------
    # operating on virtual data (feeds reconciliation at commit)
    # ------------------------------------------------------------------

    def apply_virtual(self, txn: GTMTransaction, obj: ManagedObject,
                      invocation: Invocation) -> Any:
        """Perform one operation on A's virtual copy of X.

        The operation must belong to the granted class and member
        (constraint i); READ of any member is always allowed since the
        grant snapshots the whole object.  Returns the resulting virtual
        value.
        """
        txn_id = txn.txn_id
        if txn.state is not _TS.ACTIVE:
            raise ProtocolError(
                "apply", f"{txn_id!r} is {txn.state.value}, not active")
        held = obj.pending.get(txn_id)
        if held is None:
            raise ProtocolError(
                "apply", f"{txn_id!r} holds no grant on {obj.name!r}")
        granted = held.get(invocation.member)
        is_read = invocation.op_class is OperationClass.READ
        if not is_read and (granted is None
                            or invocation.op_class is not granted.op_class):
            raise ProtocolError(
                "apply",
                f"{invocation.describe()!r} is outside the granted "
                f"operations {[op.describe() for op in obj.pending_ops(txn_id)]} "
                f"(constraint i)")
        if invocation.op_class is OperationClass.INSERT:
            # the operand carries the new object's member values
            values = invocation.operand or {}
            unknown = set(values) - set(obj.permanent)
            if unknown:
                raise GTMError(
                    f"INSERT values name unknown members {sorted(unknown)}")
            for member, value in values.items():
                txn.set_temp(obj.name, member, value)
            self.history.record_apply(txn_id, obj.name, invocation)
            return dict(values)
        if invocation.op_class is OperationClass.DELETE:
            self.history.record_apply(txn_id, obj.name, invocation)
            return None  # the tombstone is staged at local commit
        current = txn.temp_value(obj.name, invocation.member)
        new_value = invocation.apply(current)
        if not is_read:
            txn.set_temp(obj.name, invocation.member, new_value)
            self.history.record_apply(txn_id, obj.name, invocation)
        return new_value

    # ------------------------------------------------------------------
    # Algorithm 3 — ⟨commit, X, A⟩
    # ------------------------------------------------------------------

    def local_commit(self, txn: GTMTransaction, obj: ManagedObject,
                     now: float) -> bool:
        """Reconcile and stage A's value for X; False when deferred."""
        txn_id = txn.txn_id
        if txn.state not in (_TS.ACTIVE, _TS.COMMITTING):
            raise ProtocolError(
                "local_commit",
                f"{txn_id!r} is {txn.state.value}, not active/committing")
        if txn_id not in obj.pending:
            raise ProtocolError(
                "local_commit", f"{txn_id!r} not pending on {obj.name!r}")
        if txn.state is _TS.ACTIVE:
            txn.transition(_TS.COMMITTING)
        committing = obj.committing
        if committing and (len(committing) > 1 or txn_id not in committing):
            # another committer holds X_committing: A queues behind it.
            queue = self.deferred.setdefault(obj.name, [])
            if txn_id not in queue:
                queue.append(txn_id)
            self.bus.on_commit_deferred(txn, obj, now)
            return False

        # X_pending -> X_committing atomically (reconcile reads only
        # X_read / A_temp / X_permanent, so staging first is safe).
        invocations = obj.stage_commit(txn_id)
        new_values: dict[str, Any] = {}
        try:
            for invocation in invocations.values():
                new_values.update(self.reconcile(txn, obj, invocation))
                self.bus.on_reconcile(txn, obj, invocation, now)
        except ReconciliationError:
            # X_new^A stays ⊥, so A can never commit: it aborts, with
            # its reason, instead of holding X_committing for ever.
            self._abort_from_committing(txn, now, "reconciliation")
            raise
        # X_new^A: ⊥ until every member reconciled; stage_commit made
        # the map.
        obj.new[txn_id] = new_values
        # NOTE: Algorithm 3's postcondition clears A_temp and X_read here,
        # but the paper's own Table II shows both still populated on the
        # "req commit" row and cleared only at the commit row.  The two
        # clearing points are observationally equivalent (X_new is already
        # staged); we follow Table II so the replayed trace matches it.
        self.bus.on_local_commit(txn, obj, now)
        return True

    def reconcile(self, txn: GTMTransaction, obj: ManagedObject,
                  invocation: Invocation) -> dict[str, Any]:
        """ρ(X_read, A_temp, X_permanent) for each touched member."""
        op_class = invocation.op_class
        if op_class is OperationClass.READ:
            return {}
        if op_class is OperationClass.INSERT:
            return {member: txn.temp_value(obj.name, member)
                    for member in obj.permanent}
        if op_class is OperationClass.DELETE:
            return {"__deleted__": True}
        member = invocation.member
        x_read = obj.read_value(txn.txn_id, member)
        a_temp = txn.temp_value(obj.name, member)
        x_permanent = obj.permanent[member]
        value = self.registry.reconcile(op_class, x_read, a_temp,
                                        x_permanent)
        return {member: value}

    # ------------------------------------------------------------------
    # Algorithm 4 — ⟨commit, A⟩
    # ------------------------------------------------------------------

    def global_commit(self, txn: GTMTransaction,
                      involved: list[ManagedObject],
                      now: float) -> SSTReport | None:
        """Apply X_new everywhere via the SST; returns its report.

        On SST failure the transaction aborts instead (Section VII notes
        the paper *assumes* SSTs always succeed; the failure path is our
        extension) and the :class:`~repro.errors.SSTFailure` propagates.
        """
        txn_id = txn.txn_id
        if txn.state is not _TS.COMMITTING:
            raise ProtocolError(
                "global_commit",
                f"{txn_id!r} is {txn.state.value}, not committing")
        staged: list[tuple[ManagedObject, dict[str, Any]]] = []
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
            # a pure READ stages {}: nothing for the SST to store
            writes = [StagedWrite(obj.name, obj.binding, {}, delete=True)
                      if "__deleted__" in values
                      else StagedWrite(obj.name, obj.binding, values)
                      for obj, values in staged if values]
            try:
                report = self.sst_executor.execute(txn_id, writes)
            except SSTFailure:
                self._abort_from_committing(txn, now, "sst-failure")
                raise
            if report.attempts > 1:
                self.sst_reports.append(report)

        for obj, new_values in staged:
            self._apply_permanent(obj, new_values)
            obj.record_commit(txn_id, obj.retire_committer(txn_id), now)
        txn.finish(_TS.COMMITTED, now)
        self._on_finished(txn_id)
        self.history.record_commit(txn_id)
        self.bus.on_global_commit(txn, now)
        return report

    def _apply_permanent(self, obj: ManagedObject,
                         new_values: dict[str, Any]) -> None:
        if "__deleted__" in new_values:
            obj.permanent = {member: None for member in obj.permanent}
            obj.exists = False
            return
        obj.permanent.update(new_values)
        obj.exists = True  # a committed INSERT materializes the shell

    # ------------------------------------------------------------------
    # deferred-commit replay
    # ------------------------------------------------------------------

    def pump_deferred(self, obj: ManagedObject) -> None:
        """Replay queued ⟨commit, X, A⟩ requests after a committer leaves."""
        queue = self.deferred.get(obj.name)
        while queue:
            txn_id = queue.pop(0)
            txn = self._transactions.get(txn_id)
            if txn is None or txn.state is not _TS.COMMITTING:
                continue
            if txn_id not in obj.pending:
                continue
            try:
                self.local_commit(txn, obj, self._clock())
            except ReconciliationError:
                pass  # A aborted, and its abort pumped this queue
            # only one committer at a time: stop after a success
            break

    def cancel_deferred(self, txn_id: str, object_name: str) -> None:
        """Drop a transaction's queued commit request (abort path)."""
        queue = self.deferred.get(object_name)
        if queue and txn_id in queue:
            queue.remove(txn_id)

    # ------------------------------------------------------------------
    # commit drivers (the facade-facing entry points)
    # ------------------------------------------------------------------

    def finish_commit(self, txn: GTMTransaction,
                      involved: list[ManagedObject],
                      now: float) -> SSTReport | None:
        """⟨commit, A⟩ plus the post-commit pumps on every X of
        ``involved`` (:meth:`_involved`'s list, sorted once by the
        caller)."""
        report = self.global_commit(txn, involved, now)
        for obj in involved:
            self.pump_deferred(obj)
            self._pump_unlock(obj)
        return report

    def request_commit(self, txn: GTMTransaction,
                       now: float) -> SSTReport | None:
        """Local commit on every involved object, then global commit.

        If any local commit is deferred (another committer active), the
        transaction stays in Committing; call :meth:`try_finish_commit`
        (or rely on the automatic pump) to complete it later.  Returns
        the SST report when the commit completed now, else None.
        """
        txn_id = txn.txn_id
        if txn.state not in (_TS.ACTIVE, _TS.COMMITTING):
            raise ProtocolError(
                "request_commit", f"{txn_id!r} is {txn.state.value}")
        if txn.t_wait:
            raise ProtocolError(
                "request_commit",
                f"{txn_id!r} is waiting for an invocation (constraint iii)")
        involved = self._involved(txn)
        all_staged = True
        for obj in involved:
            if txn_id in obj.committing:
                continue
            if txn_id in obj.pending:
                if not self.local_commit(txn, obj, now):
                    all_staged = False
        if not all_staged:
            return None
        if not involved and txn.state is _TS.ACTIVE:
            # nothing was ever granted, so no local commit made the
            # Active -> Committing transition: the commit is trivial.
            txn.transition(_TS.COMMITTING)
        return self.finish_commit(txn, involved, now)

    def try_finish_commit(self, txn: GTMTransaction,
                          now: float) -> SSTReport | None:
        """Retry a commit left pending by deferred local commits."""
        if txn.state is not _TS.COMMITTING:
            return None
        return self.request_commit(txn, now)

    def commit_ready(self, txn: GTMTransaction) -> bool:
        """True when every involved object has A staged in X_committing."""
        if not txn.is_in(_TS.COMMITTING):
            return False
        return all(txn.txn_id in self._get_object(name).committing
                   for name in txn.involved)

    def pump_commits(self) -> list[str]:
        """Complete every transaction whose deferred commits have staged.

        Deferred ⟨commit, X, A⟩ requests are replayed automatically when
        a committer leaves an object, but the final ⟨commit, A⟩ needs a
        driver; schedulers call this after each event.  Iterative (not
        recursive) so a thousand queued committers on one hot object do
        not exhaust the stack.  Returns the ids committed, in order.
        """
        completed: list[str] = []
        progress = True
        while progress:
            progress = False
            for txn_id, txn in list(self._transactions.items()):
                if txn.is_in(_TS.COMMITTING) and self.commit_ready(txn):
                    self.finish_commit(txn, self._involved(txn),
                                       self._clock())
                    completed.append(txn_id)
                    progress = True
        return completed
