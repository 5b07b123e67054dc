"""Semantic-lock admission: Algorithms 2 and 11 over the Table I matrix.

This layer owns everything that decides *who may operate*: the managed
object registry (:class:`LockTable`), the conflict test against the
effective lock set ``(pending − sleeping) ∪ committing``, the grant
postcondition (snapshots + bookkeeping), the FIFO wait queues, and the
⟨unlock, X⟩ pump that re-admits waiters.  Deadlock handling is delegated
to a pluggable :class:`~repro.core.policies.DeadlockPolicy`; starvation
shaping to the configured :class:`~repro.core.starvation.GrantPolicy`
and throttle.

The commit pipeline and sleep manager call back into this layer only
through :meth:`AdmissionController.grant` and
:meth:`AdmissionController.pump_unlock`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import GTMError, ProtocolError
from repro.core.conflicts import ConflictChecker
from repro.core.events import EventBus
from repro.core.objects import ManagedObject, WaitEntry
from repro.core.opclass import Invocation, OperationClass
from repro.core.policies import DeadlockPolicy
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction

_TS = TransactionState


class _SweepScratch:
    """Holder/conflict state shared across one re-police sweep.

    Valid only while ``epoch`` matches the object's ``lock_epoch``; a
    mid-sweep abort bumps the epoch and forces a rebuild.
    """

    __slots__ = ("epoch", "holders", "memo", "queue_pos", "ahead")

    def __init__(self) -> None:
        self.epoch = -1
        #: txn -> its granted/committing ops (non-sleeping holders).
        self.holders: Mapping[str, tuple[Invocation, ...]] = {}
        #: (op-class bit, member) -> conflicting holder tuple.
        self.memo: dict[tuple[int, str], tuple[str, ...]] = {}
        #: txn -> its (first) position in the wait queue.
        self.queue_pos: dict[str, int] = {}
        #: (op-class bit, member) -> ((position, txn), ...) of queue
        #: entries whose queued invocation conflicts with that shape.
        self.ahead: dict[tuple[int, str],
                         tuple[tuple[int, str], ...]] = {}


class GrantOutcome:
    """Result of an ⟨op, X, A⟩ invocation."""

    GRANTED = "granted"
    QUEUED = "queued"
    #: the request closed a wait-for cycle and this transaction was
    #: chosen as the victim (it is now Aborted).
    ABORTED = "aborted-deadlock"


class LockTable:
    """The per-object registry: every ``ManagedObject`` the GTM controls.

    Grant/wait queues live *inside* each :class:`ManagedObject`; the
    table is the directory that finds them, in registration order.
    """

    def __init__(self) -> None:
        #: name -> object; exposed as ``gtm.objects`` for compatibility.
        self.objects: dict[str, ManagedObject] = {}

    def register(self, obj: ManagedObject) -> ManagedObject:
        if obj.name in self.objects:
            raise GTMError(f"object {obj.name!r} already registered")
        self.objects[obj.name] = obj
        return obj

    def get(self, name: str) -> ManagedObject:
        try:
            return self.objects[name]
        except KeyError:
            raise GTMError(f"unknown object {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.objects

    def __len__(self) -> int:
        return len(self.objects)

    def values(self) -> tuple[ManagedObject, ...]:
        return tuple(self.objects.values())


class AdmissionController:
    """Algorithm 2 (grant-or-wait) and Algorithm 11 (unlock) in one place.

    ``abort_txn`` is injected by the facade: aborting a deadlock victim
    spans every subsystem, so the controller never reaches into the
    commit pipeline directly.
    """

    def __init__(self, checker: ConflictChecker,
                 grant_policy: Any, throttle: Any,
                 deadlock_policy: DeadlockPolicy, bus: EventBus,
                 transactions: Mapping[str, GTMTransaction],
                 clock: Callable[[], float],
                 abort_txn: Callable[[str, str], None]) -> None:
        self.checker = checker
        self.grant_policy = grant_policy
        self.throttle = throttle
        self.deadlock_policy = deadlock_policy
        self.bus = bus
        self._transactions = transactions
        self._clock = clock
        self._abort_txn = abort_txn
        #: tick-batched re-policing state: objects dirtied by ⟨unlock,X⟩
        #: while a facade tick is open, swept once when it closes.
        self._repolice_queue: list[ManagedObject] = []
        self._tick_depth = 0
        self._flushing = False

    # ------------------------------------------------------------------
    # Algorithm 2 — ⟨op, X, A⟩
    # ------------------------------------------------------------------

    def request(self, txn: GTMTransaction, obj: ManagedObject,
                invocation: Invocation, now: float) -> str:
        """Grant the invocation, queue it, or abort a deadlock victim."""
        self._validate(txn, obj, invocation)
        if obj.is_pending(txn.txn_id):
            existing = obj.pending[txn.txn_id].get(invocation.member)
            if existing == invocation:
                return GrantOutcome.GRANTED

        # The three admission checks short-circuit in cost order: the
        # O(1) summary conflict test first, the throttle and the grant
        # policy's deny hook only on the uncontended path — a blocked
        # request queues regardless of what they would say.
        blocked = self.checker.object_blocked(obj, txn.txn_id, invocation)
        if not blocked \
                and self.throttle.admits(obj, invocation) \
                and not self.grant_policy.deny_fresh_invocation(
                    obj, invocation, self.checker, now):
            self.grant(txn, obj, invocation, now)
            return GrantOutcome.GRANTED

        # some not-compatible operations: A waits.
        txn.transition(_TS.WAITING)
        txn.record_wait(obj.name, now)
        txn.operations.setdefault(obj.name, {})[invocation.member] = \
            invocation
        obj.push_waiting(WaitEntry(txn.txn_id, invocation, now))
        if not obj.is_pending(txn.txn_id):
            txn.clear_temp(obj.name)  # A_temp^X = ⊥ (no grant held)
        self.bus.on_wait(txn, obj, invocation, now)
        if blocked:
            outcome = self._police_deadlock(txn, obj, invocation)
            if outcome is not None:
                return outcome
        if obj.is_waiting(txn.txn_id):
            obj.wait_edge_epochs[txn.txn_id] = obj.lock_epoch
        return GrantOutcome.QUEUED

    def _validate(self, txn: GTMTransaction, obj: ManagedObject,
                  invocation: Invocation) -> None:
        """Algorithm 2's preconditions and the paper's constraint (i)."""
        if txn.state is not _TS.ACTIVE:
            raise ProtocolError(
                "invoke",
                f"{txn.txn_id!r} is {txn.state.value}, not active")
        if invocation.member not in obj.permanent and \
                invocation.op_class is not OperationClass.INSERT:
            raise GTMError(
                f"object {obj.name!r} has no member "
                f"{invocation.member!r}")
        if invocation.op_class is OperationClass.INSERT:
            if obj.exists:
                raise ProtocolError(
                    "invoke",
                    f"INSERT on {obj.name!r}: the object already exists")
        elif not obj.exists:
            raise ProtocolError(
                "invoke",
                f"{invocation.describe()!r} on {obj.name!r}: the "
                f"object does not exist (deleted or never inserted)")
        if obj.is_pending(txn.txn_id):
            held = obj.pending[txn.txn_id]
            existing = held.get(invocation.member)
            if existing is not None and existing != invocation:
                raise ProtocolError(
                    "invoke",
                    f"{txn.txn_id!r} already granted "
                    f"{existing.describe()!r} on {obj.name!r}; at "
                    f"most one pending invocation per data member")
            if existing is None:
                # a new member of the same object: the transaction's own
                # operations must be mutually compatible (constraint i).
                for own in held.values():
                    if self.checker.in_conflict(invocation, own):
                        raise ProtocolError(
                            "invoke",
                            f"{invocation.describe()!r} conflicts with "
                            f"{txn.txn_id!r}'s own {own.describe()!r} on "
                            f"{obj.name!r} (constraint i)")

    def conflicting_holders(self, obj: ManagedObject, txn_id: str,
                            invocation: Invocation) -> tuple[str, ...]:
        """Transactions in (pending − sleeping) ∪ committing that conflict."""
        holders = obj.holder_ops(exclude=txn_id, include_sleeping=False)
        return tuple(
            holder for holder, ops in holders.items()
            if self.checker.conflicts_with_any(invocation, ops))

    def _queue_blockers(self, obj: ManagedObject, txn_id: str,
                        invocation: Invocation,
                        scratch: "_SweepScratch | None" = None,
                        ) -> tuple[str, ...]:
        """Everything that stalls this waiter: the wait-for edge set.

        Under the grant policy's conflict-respecting overtaking a queued
        invocation is stalled by exactly (a) the conflicting holders and
        (b) conflicting waiters queued ahead of it, so both kinds become
        wait-for edges — a cycle through a queue position is as much a
        deadlock as one through a held member.

        ``scratch`` (the re-police path) shares the holder lock-set and
        the per-(class, member) conflict result across every waiter of
        one sweep: conflicts are class/member-level, so all waiters with
        the same invocation shape see the same conflicting holders.
        """
        if scratch is None:
            blockers = list(
                self.conflicting_holders(obj, txn_id, invocation))
            for entry in obj.waiting:
                if entry.txn_id == txn_id:
                    break
                if entry.txn_id in obj.sleeping \
                        or entry.txn_id in blockers:
                    continue
                if self.checker.in_conflict(invocation, entry.invocation):
                    blockers.append(entry.txn_id)
            return tuple(blockers)
        if scratch.epoch != obj.lock_epoch:
            # a mid-sweep abort moved the lock state: rebuild.
            scratch.holders = obj.holder_ops(include_sleeping=False)
            scratch.memo = {}
            scratch.queue_pos = {}
            for i, entry in enumerate(obj.waiting):
                scratch.queue_pos.setdefault(entry.txn_id, i)
            scratch.ahead = {}
            scratch.epoch = obj.lock_epoch
        key = (invocation.op_class.bit, invocation.member)
        conflicting = scratch.memo.get(key)
        if conflicting is None:
            checker = self.checker
            conflicting = tuple(
                holder for holder, ops in scratch.holders.items()
                if checker.conflicts_with_any(invocation, ops))
            scratch.memo[key] = conflicting
        blockers = [h for h in conflicting if h != txn_id]
        ahead = scratch.ahead.get(key)
        if ahead is None:
            checker = self.checker
            ahead = tuple(
                (i, entry.txn_id)
                for i, entry in enumerate(obj.waiting)
                if checker.in_conflict(invocation, entry.invocation))
            scratch.ahead[key] = ahead
        # a waiter no longer queued (granted mid-police) keeps the old
        # semantics: the whole queue counts as "ahead" of it.
        limit = scratch.queue_pos.get(txn_id)
        if limit is None:
            limit = len(obj.waiting)
        sleeping = obj.sleeping
        for i, waiter_id in ahead:
            if i >= limit:
                break
            if waiter_id in sleeping or waiter_id in blockers:
                continue
            blockers.append(waiter_id)
        return tuple(blockers)

    # ------------------------------------------------------------------
    # deadlock policing (delegated to the policy object)
    # ------------------------------------------------------------------

    def _police_deadlock(self, txn: GTMTransaction, obj: ManagedObject,
                         invocation: Invocation,
                         scratch: "_SweepScratch | None" = None,
                         refresh: bool = False) -> str | None:
        """Consult the policy until it rests; abort each chosen victim.

        Returns :data:`GrantOutcome.ABORTED` when the requester itself is
        the victim, :data:`GrantOutcome.GRANTED` when killing another
        victim freed the object and the requester got the grant, and None
        when the requester still (legitimately) waits.

        ``refresh`` marks the re-police path: the first policy consult
        *replaces* the waiter's recorded edges (stale ones must go) where
        the request path only ever adds fresh ones.
        """
        txn_id = txn.txn_id
        first = True
        while True:
            blockers = self._queue_blockers(obj, txn_id, invocation,
                                            scratch)
            if not blockers:
                if first and refresh:
                    # nothing blocks the waiter any more, but its stale
                    # recorded edges still must be dropped.
                    self.deadlock_policy.on_stop_waiting(txn_id)
                break
            if first and refresh:
                resolution = self.deadlock_policy.refresh_wait(
                    txn_id, blockers)
            else:
                resolution = self.deadlock_policy.on_wait(txn_id, blockers)
            first = False
            if resolution is None:
                return None
            victim = resolution.victim
            if victim != txn_id:
                victim_txn = self._transactions.get(victim)
                if victim_txn is not None and \
                        victim_txn.is_in(_TS.COMMITTING):
                    # never abort a committer: it holds X_committing and
                    # finishes on its own — waiting behind it is finite.
                    return None
            self._abort_txn(victim, "deadlock-victim")
            if victim == txn_id:
                return GrantOutcome.ABORTED
            if txn.is_in(_TS.ACTIVE):
                # the victim's objects unlocked and the pump granted us.
                return GrantOutcome.GRANTED
        return None

    # ------------------------------------------------------------------
    # the grant postcondition (Algorithm 2, compatible branch)
    # ------------------------------------------------------------------

    def grant(self, txn: GTMTransaction, obj: ManagedObject,
              invocation: Invocation, now: float) -> None:
        self.deadlock_policy.on_stop_waiting(txn.txn_id)
        already_held = invocation.member in obj.pending.get(txn.txn_id, {})
        obj.grant_pending(txn.txn_id, invocation)
        if txn.txn_id not in obj.read:
            # first grant on this object: snapshot the whole object.
            # Members already granted keep their snapshot — each member's
            # virtual copy is one consistent image per transaction, and
            # reconciliation folds concurrent compatible commits in at
            # commit time.
            obj.snapshot_for(txn.txn_id)      # X_read^A = X_permanent
            for member, value in obj.permanent.items():
                txn.set_temp(obj.name, member, value)
        elif not already_held:
            # a member granted after the first snapshot (e.g. via the
            # unlock pump while other members were held): refresh *this
            # member's* snapshot so its x_read/a_temp match the grant
            # time.  Keeping the stale image loses every commit that
            # landed between first snapshot and this grant — an assign
            # reconciles to its virtual value verbatim, so it would
            # silently roll the member back (a lost update).
            fresh = obj.permanent[invocation.member]
            obj.read[txn.txn_id][invocation.member] = fresh
            txn.set_temp(obj.name, invocation.member, fresh)
        txn.operations.setdefault(obj.name, {})[invocation.member] = \
            invocation
        txn.involved.add(obj.name)
        self.bus.on_grant(txn, obj, invocation, now)

    # ------------------------------------------------------------------
    # Algorithm 5 — ⟨abort, X, A⟩ (releasing A's claim on X)
    # ------------------------------------------------------------------

    def local_abort(self, txn: GTMTransaction, obj: ManagedObject) -> None:
        """Drop A's work on X: grants, waits, staging, sleep marks."""
        txn_id = txn.txn_id
        if not txn.is_in(_TS.ACTIVE, _TS.ABORTING, _TS.WAITING,
                         _TS.COMMITTING, _TS.SLEEPING):
            raise ProtocolError(
                "local_abort",
                f"{txn_id!r} is {txn.state.value}; nothing to abort")
        if not (obj.is_pending(txn_id) or obj.is_waiting(txn_id)
                or txn_id in obj.committing):
            raise ProtocolError(
                "local_abort",
                f"{txn_id!r} neither pending, waiting nor committing on "
                f"{obj.name!r}")
        if not txn.is_in(_TS.ABORTING):
            txn.transition(_TS.ABORTING)
        obj.aborting.add(txn_id)
        txn.clear_temp(obj.name)
        obj.release_claims(txn_id)

    # ------------------------------------------------------------------
    # Algorithm 11 — ⟨unlock, X⟩
    # ------------------------------------------------------------------

    def pump_unlock(self, obj: ManagedObject) -> tuple[str, ...]:
        """Fire ⟨unlock, X⟩: grant waiters the lock set no longer blocks.

        Algorithm 11's trigger is ``X_pending = ⊥``; with per-member
        invocations the general condition is per waiter: an entry of
        θ(X_waiting − X_sleeping) is grantable when it conflicts with no
        operation of ``(pending − sleeping) ∪ committing`` (other
        transactions) and none already granted in this batch.  The
        grant-policy keeps the FIFO no-overtake discipline (a blocked
        waiter blocks everything behind it); the starvation policies
        reorder.  Granted transactions become Active with fresh
        snapshots.
        """
        if not obj.waiting:
            return ()  # the common case: nobody to build anything for
        candidates = [entry for entry in obj.waiting
                      if entry.txn_id not in obj.sleeping]
        if not candidates:
            return ()
        # Summary engines answer the per-waiter blocked test in O(1), so
        # the pump skips materialising the holder_ops dict entirely.
        holders = (None if self.checker.uses_summaries
                   else obj.holder_ops(include_sleeping=False))
        now = self._clock()
        batch = self.grant_policy.select(obj, candidates, self.checker,
                                         now, holders)
        granted: list[str] = []
        for entry in batch:
            txn = self._transactions.get(entry.txn_id)
            if txn is None or txn.state is not _TS.WAITING:
                continue
            if not self.throttle.admits(obj, entry.invocation):
                continue
            obj.remove_waiting(entry.txn_id)
            txn.transition(_TS.ACTIVE)
            txn.clear_wait(obj.name)
            self.grant(txn, obj, entry.invocation, now)
            granted.append(entry.txn_id)
        if granted:
            self.bus.on_unlock(obj, tuple(granted), now)
        # pump telemetry: an *overtake* is a grant handed out while an
        # earlier-queued candidate stayed blocked (the starvation
        # policy's conflict-respecting reordering in action).
        overtakes = 0
        if granted:
            granted_set = set(granted)
            blocked_ahead = 0
            for entry in candidates:
                if entry.txn_id in granted_set:
                    overtakes += blocked_ahead
                else:
                    blocked_ahead += 1
        self.bus.on_pump(obj, len(candidates), tuple(granted), overtakes,
                         now)
        if self._tick_depth > 0:
            # tick-batched: sweep once when the tick closes, however many
            # unlock events dirtied this object within the facade call.
            if not obj.repolice_queued:
                obj.repolice_queued = True
                self._repolice_queue.append(obj)
        else:
            self._repolice_waiters(obj)
        return tuple(granted)

    # ------------------------------------------------------------------
    # tick batching — one re-police sweep per dirtied object per tick
    # ------------------------------------------------------------------

    def flush_repolice(self) -> None:
        """Sweep every queued object once, including sweep-added ones.

        A sweep can abort a deadlock victim, whose teardown re-enters the
        facade (nested ticks) and may dirty further objects; those append
        to the queue and the index loop picks them up.  The ``_flushing``
        guard keeps the nested tick's close from starting a second drain
        of the same queue.
        """
        if self._flushing:
            return
        self._flushing = True
        try:
            queue = self._repolice_queue
            i = 0
            while i < len(queue):
                obj = queue[i]
                i += 1
                obj.repolice_queued = False
                self._repolice_waiters(obj)
            queue.clear()
        finally:
            self._flushing = False

    def _repolice_waiters(self, obj: ManagedObject) -> None:
        """Refresh the wait-for edges of waiters the pump left behind.

        Edges are recorded when a wait *starts*, against the then-current
        blockers; every commit, abort and fresh grant changes the blocker
        set, and a stale edge can hide a hold-wait cycle that only closes
        through a *later* grant.  (Stress-harness find: T0 holds m2 and
        queues for m1 behind T1; T1 commits and the pump grants m1 to
        T2; T2 then requests m2 — a genuine cycle, invisible to the
        request-time edges which still say T0 waits on T1.)  Re-recording
        after every ⟨unlock, X⟩ keeps the graph current, and a cycle it
        closes is resolved exactly as at request time.

        Cost control (the pump-regression fix): the sweep is gated at
        *object* level by the lock epoch captured when the last sweep
        started.  If the epoch has not moved since, every per-waiter
        ``wait_edge_epochs`` check below would skip too (recording an
        edge stores the then-current epoch, and every queue/lock
        mutation bumps it), so the whole waiter walk — list copy, txn
        lookups — is redundant and elided.
        """
        start_epoch = obj.lock_epoch
        if obj.repoliced_epoch == start_epoch:
            return
        refreshed = 0
        scratch = _SweepScratch()
        for entry in list(obj.waiting):
            txn = self._transactions.get(entry.txn_id)
            if txn is None or not txn.is_in(_TS.WAITING):
                continue
            if entry.txn_id in obj.sleeping:
                continue
            if obj.wait_edge_epochs.get(entry.txn_id) == obj.lock_epoch:
                # the blocker state (pending/committing/sleeping/waiting)
                # has not moved since this waiter's edges were recorded,
                # so re-deriving them would reproduce the same graph.  A
                # cycle can only close through a mutation, and every
                # mutation bumps the epoch.
                continue
            refreshed += 1
            # refresh=True replaces the waiter's stale edges in one step
            # (a waiter waits on one object at a time, so this only
            # touches this object's edges).
            self._police_deadlock(txn, obj, entry.invocation,
                                  scratch, refresh=True)
            # "still queued?" — the scratch queue index answers without
            # rescanning when the policing did not move the lock state.
            if (entry.txn_id in scratch.queue_pos
                    if scratch.epoch == obj.lock_epoch
                    else obj.is_waiting(entry.txn_id)):
                obj.wait_edge_epochs[entry.txn_id] = obj.lock_epoch
        obj.repoliced_epoch = start_epoch
        if refreshed:
            self.bus.on_repolice(obj, refreshed, self._clock())
