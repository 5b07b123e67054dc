"""The sleeping-transaction protocol: Algorithms 7-10 bookkeeping.

A sleeper releases its claim on concurrency without releasing its
grants: it is subtracted from the effective lock set (``pending −
sleeping``), so waiters may overtake it, and it must re-validate on
awakening — Algorithm 9 aborts it when any operation that conflicts with
its own was granted to another holder or committed (``X_tc > A_t_sleep``)
while it slept.

This manager owns the sleep/awake bookkeeping and the Algorithm 9
conflict predicate.  Re-granting a surviving waiter's queued invocation
(the "queue-jump" of Algorithm 9 case 1) goes through the admission
layer; tearing down a conflicted sleeper goes through the facade — the
manager itself never mutates lock state it does not own.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ProtocolError
from repro.core.conflicts import ConflictChecker
from repro.core.events import EventBus
from repro.core.history import OperationLog
from repro.core.objects import ManagedObject
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction

_TS = TransactionState


class SleepManager:
    """Sleep/awake state keeping for disconnected mobile transactions."""

    def __init__(self, checker: ConflictChecker, bus: EventBus,
                 history: OperationLog,
                 pump_unlock: Callable[[ManagedObject], tuple[str, ...]],
                 regrant: "Callable[..., None]",
                 on_finished: Callable[[str], None]) -> None:
        self.checker = checker
        self.bus = bus
        self.history = history
        #: admission-layer callbacks (Algorithm 11 pump + case-1 regrant).
        self._pump_unlock = pump_unlock
        self._regrant = regrant
        #: wait-for graph cleanup once a conflicted sleeper aborts.
        self._on_finished = on_finished

    # ------------------------------------------------------------------
    # Algorithms 7 & 8 — ⟨sleep, X, A⟩ and ⟨sleep, A⟩
    # ------------------------------------------------------------------

    def sleep(self, txn: GTMTransaction,
              involved: list[ManagedObject], now: float) -> None:
        """⟨sleep, A⟩ followed by ⟨sleep, X, A⟩ for every involved X."""
        if not txn.is_in(_TS.ACTIVE, _TS.WAITING):
            raise ProtocolError(
                "sleep", f"{txn.txn_id!r} is {txn.state.value}, not "
                f"active/waiting")
        txn.transition(_TS.SLEEPING)
        txn.t_sleep = now
        for obj in involved:
            if obj.is_pending(txn.txn_id) or obj.is_waiting(txn.txn_id):
                obj.mark_sleeping(txn.txn_id)   # Algorithm 7
        self.bus.on_sleep(txn, now)
        # a sleeping holder no longer blocks: waiters may proceed now.
        for obj in involved:
            self._pump_unlock(obj)

    # ------------------------------------------------------------------
    # Algorithm 9 — the awakening conflict predicate
    # ------------------------------------------------------------------

    def conflicts(self, txn: GTMTransaction, obj: ManagedObject) -> bool:
        """Algorithm 9's conflict predicate for one object."""
        own_ops = tuple(txn.operations.get(obj.name, {}).values())
        if not own_ops:
            return False
        if txn.t_sleep is None:  # defensive; checked by caller
            return False
        holders = obj.holder_ops(exclude=txn.txn_id)
        for ops in holders.values():
            for own in own_ops:
                if self.checker.conflicts_with_any(own, ops):
                    return True
        for record in obj.committed_after(txn.t_sleep):
            if record.txn_id == txn.txn_id:
                continue
            for own in own_ops:
                if self.checker.conflicts_with_any(own,
                                                   record.invocations):
                    return True
        return False

    def revalidate(self, txn: GTMTransaction,
                   involved: list[ManagedObject], now: float) -> bool:
        """True when :meth:`conflicts` holds on any involved object.

        Evaluated in ``involved`` order, stopping at the first conflict;
        the hook only *reports* each predicate result, so wiring
        observability cannot change which objects get examined."""
        for obj in involved:
            conflicted = self.conflicts(txn, obj)
            self.bus.on_revalidate(txn, obj, conflicted, now)
            if conflicted:
                return True
        return False

    # ------------------------------------------------------------------
    # Algorithms 9 & 10 — the surviving-awakening path
    # ------------------------------------------------------------------

    def abort_conflicted(self, txn: GTMTransaction,
                         involved: list[ManagedObject],
                         now: float) -> None:
        """Algorithm 9, conflict case: the sleeper goes straight to Aborted."""
        for obj in involved:
            obj.clear_txn(txn.txn_id)
        txn.finish(_TS.ABORTED, now)
        self._on_finished(txn.txn_id)
        self.history.record_abort(txn.txn_id)
        self.bus.on_awake(txn, now, survived=False)
        self.bus.on_global_abort(txn, now, "sleep-conflict")
        for obj in involved:
            self._pump_unlock(obj)

    def wake_survivor(self, txn: GTMTransaction,
                      involved: list[ManagedObject], now: float) -> None:
        """Clear the sleep marks; queue-jump grant surviving waiters."""
        for obj in involved:
            if txn.txn_id not in obj.sleeping:
                continue
            obj.wake_sleeping(txn.txn_id)
            entry = obj.waiting_entry(txn.txn_id)
            if entry is not None:
                # Algorithm 9, case 1: grant immediately with fresh
                # snapshots (the sleeper jumps the queue, per the paper).
                obj.remove_waiting(txn.txn_id)
                self._regrant(txn, obj, entry.invocation, now)
        # Algorithm 10 — ⟨awake, A⟩.  A_t_wait clears only now, after
        # the regrants above were announced: grant observers tell a
        # queue-jump regrant (t_wait still populated, the wait interval
        # stays open) from a pump grant by exactly that field.
        txn.transition(_TS.ACTIVE)
        txn.t_sleep = None
        txn.t_wait.clear()
        self.bus.on_awake(txn, now, survived=True)
