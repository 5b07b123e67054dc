"""Semantic-lock admission: Algorithms 2 and 11 over the Table I matrix.

This layer owns everything that decides *who may operate*: the managed
object registry (:class:`LockTable`), the conflict test against the
effective lock set ``(pending − sleeping) ∪ committing``, the grant
postcondition (snapshots + bookkeeping), the FIFO wait queues, and the
⟨unlock, X⟩ pump that re-admits waiters.  Deadlock detection is the
GTM's :class:`~repro.core.deadlock.DeadlockPolicing`; starvation
shaping is the configured :class:`~repro.core.starvation.GrantPolicy`
and throttle.

The commit pipeline and sleep manager call back into this layer only
through :meth:`AdmissionController.regrant` and
:meth:`AdmissionController.pump_unlock`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import GTMError, ProtocolError
from repro.core.conflicts import ConflictChecker
from repro.core.deadlock import DeadlockPolicing
from repro.core.events import EventBus
from repro.core.objects import ManagedObject, WaitEntry
from repro.core.opclass import Invocation, OperationClass
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction

_TS = TransactionState


class _SweepScratch:
    """Queue and conflict state shared across one re-police sweep.

    Made for the first waiter that needs it, and valid only while
    ``epoch`` matches the object's ``lock_epoch``; a mid-sweep abort
    bumps the epoch and forces a rebuild.
    """

    __slots__ = ("epoch", "memo", "queue_pos", "ahead", "moved_since")

    def __init__(self) -> None:
        self.epoch = -1
        #: (op-class bit, member) -> conflicting holders.
        self.memo: dict[tuple[int, str], list[str]] = {}
        #: txn -> its (first) position in the wait queue.
        self.queue_pos: dict[str, int] = {}
        #: (op-class bit, member) -> ((position, txn), ...) of queue
        #: entries whose queued invocation conflicts with that shape.
        self.ahead: dict[tuple[int, str],
                         tuple[tuple[int, str], ...]] = {}
        #: recorded epoch -> the transactions whose claim moved since,
        #: each once, in order (``RepoliceState.since``).
        self.moved_since: dict[int, dict[str, None]] = {}

    def rebuild(self, obj: ManagedObject) -> None:
        self.memo = {}
        self.queue_pos = {}
        for i, entry in enumerate(obj.waiting):
            self.queue_pos.setdefault(entry.txn_id, i)
        self.ahead = {}
        self.moved_since = {}
        self.epoch = obj.lock_epoch


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
                 deadlocks: DeadlockPolicing, bus: EventBus,
                 transactions: Mapping[str, GTMTransaction],
                 clock: Callable[[], float],
                 abort_txn: Callable[[str, str], None]) -> None:
        self.checker = checker
        self.grant_policy = grant_policy
        self.throttle = throttle
        self.deadlocks = deadlocks
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
        # ``txn_id in obj.pending`` and ``obj.pending.get`` are
        # ``ManagedObject.is_pending`` inline: every request tests it.
        held = obj.pending.get(txn.txn_id)
        if held is not None and held.get(invocation.member) == invocation:
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
        if txn.txn_id not in obj.pending:
            txn.clear_temp(obj.name)  # A_temp^X = ⊥ (no grant held)
        self.bus.on_wait(txn, obj, invocation, now)
        if blocked:
            outcome = self._police_deadlock(txn, obj, invocation)
            if outcome is not None:
                return outcome
        elif obj.is_waiting(txn.txn_id):
            # queued by the throttle or the grant policy with no edges
            # derived at all: whatever it waits on, they are not exact.
            obj.record_wait_edges(txn.txn_id, None)
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
        held = obj.pending.get(txn.txn_id)
        if held is not None:
            existing = held.get(invocation.member)
            upgrade = False
            if existing is not None and existing != invocation:
                # A READ that conflicts with the member's next invocation
                # (under a read/write matrix, not Table I) is a shared
                # lock, and the invocation its upgrade: it replaces the
                # READ once granted.
                upgrade = (existing.op_class is OperationClass.READ
                           and self.checker.in_conflict(invocation,
                                                        existing))
                if not upgrade:
                    raise ProtocolError(
                        "invoke",
                        f"{txn.txn_id!r} already granted "
                        f"{existing.describe()!r} on {obj.name!r}; at "
                        f"most one pending invocation per data member")
            if existing is None or upgrade:
                # a new member of the same object, or an upgrade: the
                # transaction's own operations must be mutually
                # compatible (constraint i).
                for own in held.values():
                    if own is not existing \
                            and self.checker.in_conflict(invocation, own):
                        raise ProtocolError(
                            "invoke",
                            f"{invocation.describe()!r} conflicts with "
                            f"{txn.txn_id!r}'s own {own.describe()!r} on "
                            f"{obj.name!r} (constraint i)")

    def _conflicting_holders(self, obj: ManagedObject,
                             invocation: Invocation) -> list[str]:
        """Transactions in (pending − sleeping) ∪ committing that conflict,
        in that order, read straight from the object's sets."""
        conflicts = self.checker.conflicts_with_any
        sleeping = obj.sleeping
        holders = [holder for holder, ops in obj.pending.items()
                   if holder not in sleeping
                   and conflicts(invocation, ops.values())]
        for holder, ops in obj.committing.items():
            if conflicts(invocation, ops.values()):
                holders.append(holder)
        return holders

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

        ``scratch`` (the re-police path) shares the per-(class, member)
        conflict result across every waiter of one sweep: conflicts are
        class/member-level, so all waiters with the same invocation
        shape see the same conflicting holders.
        """
        if scratch is None:
            blockers = [holder for holder
                        in self._conflicting_holders(obj, invocation)
                        if holder != txn_id]
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
            scratch.rebuild(obj)
        key = (invocation.op_class.bit, invocation.member)
        conflicting = scratch.memo.get(key)
        if conflicting is None:
            conflicting = scratch.memo[key] = \
                self._conflicting_holders(obj, invocation)
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

    def _edges_now(self, obj: ManagedObject, txn_id: str,
                   invocation: Invocation, recorded_epoch: int,
                   edges: tuple[str, ...], scratch: "_SweepScratch",
                   ) -> tuple[str, ...] | None:
        """This waiter's edges as the graph holds them now, when those are
        still exactly what :meth:`_queue_blockers` would derive; None
        when they may not be.

        ``edges`` were its blockers at ``recorded_epoch``.  Whether a
        transaction blocks the waiter depends only on its own claim on
        the object (held ops, sleep mark, queue entry) and the waiter's,
        so only the transactions whose claim moved since then (the
        object's claim log) are asked again.  One that stopped blocking
        because it finished is already gone from the graph
        (``on_finished``) and just drops out; any other change, the
        waiter's own move, or a log that no longer reaches back answers
        None.
        """
        if scratch.epoch != obj.lock_epoch:
            scratch.rebuild(obj)
        moved = scratch.moved_since.get(recorded_epoch)
        if moved is None:
            since = obj.repolice.since(recorded_epoch)
            if since is None:
                return None
            moved = scratch.moved_since[recorded_epoch] = \
                dict.fromkeys(since)
        if txn_id in moved:
            return None
        queue_pos = scratch.queue_pos
        limit = queue_pos.get(txn_id)
        if limit is None:
            return None
        checker = self.checker
        sleeping = obj.sleeping
        for other in moved:
            asleep = other in sleeping
            held = obj.committing.get(other)
            if held is None and not asleep:
                held = obj.pending.get(other)
            if held is not None \
                    and checker.conflicts_with_any(invocation, held.values()):
                blocks = True
            elif asleep:
                blocks = False
            else:
                i = queue_pos.get(other)
                blocks = i is not None and i < limit and \
                    checker.in_conflict(invocation, obj.waiting[i].invocation)
            if blocks:
                if other not in edges:
                    return None
            elif other in edges:
                txn = self._transactions.get(other)
                if txn is not None and not txn.state.terminal:
                    return None
                i = edges.index(other)
                edges = edges[:i] + edges[i + 1:]
        return edges

    # ------------------------------------------------------------------
    # deadlock policing (the wait-for graph names the victims)
    # ------------------------------------------------------------------

    def _police_deadlock(self, txn: GTMTransaction, obj: ManagedObject,
                         invocation: Invocation,
                         scratch: "_SweepScratch | None" = None,
                         refresh: bool = False) -> str | None:
        """Consult the wait-for graph until it names no victim; abort
        each one it names.

        Returns :data:`GrantOutcome.ABORTED` when the requester itself is
        the victim, :data:`GrantOutcome.GRANTED` when killing another
        victim freed the object and the requester got the grant, and None
        when the requester still (legitimately) waits.  Then its edges
        are recorded on the object at the current epoch: the blockers of
        the one consult, or None when a victim loop added a second set
        to the first (the union is not its blockers at any epoch).

        ``refresh`` marks the re-police path: the first consult
        *replaces* the waiter's recorded edges (stale ones must go) where
        the request path only ever adds fresh ones.
        """
        txn_id = txn.txn_id
        epoch = obj.lock_epoch
        edges: tuple[str, ...] | None = ()
        first = True
        while True:
            blockers = self._queue_blockers(obj, txn_id, invocation,
                                            scratch)
            if not blockers:
                if first and refresh:
                    # nothing blocks the waiter any more, but its stale
                    # recorded edges still must be dropped.
                    self.deadlocks.on_stop_waiting(txn_id)
                break
            if first and refresh:
                victim = self.deadlocks.refresh_wait(txn_id, blockers)
            else:
                victim = self.deadlocks.on_wait(txn_id, blockers)
            if first:
                edges = blockers
            first = False
            if victim is None:
                break
            if victim != txn_id:
                victim_txn = self._transactions.get(victim)
                if victim_txn is not None and \
                        victim_txn.is_in(_TS.COMMITTING):
                    # never abort a committer: it holds X_committing and
                    # finishes on its own — waiting behind it is finite.
                    break
            self._abort_txn(victim, "deadlock-victim")
            if victim == txn_id:
                return GrantOutcome.ABORTED
            if txn.is_in(_TS.ACTIVE):
                # the victim's objects unlocked and the pump granted us.
                return GrantOutcome.GRANTED
            edges = None
        # still queued: certainly so when nothing moved since it was.
        if obj.lock_epoch == epoch or obj.is_waiting(txn_id):
            obj.record_wait_edges(txn_id, edges)
        return None

    # ------------------------------------------------------------------
    # the grant postcondition (Algorithm 2, compatible branch)
    # ------------------------------------------------------------------

    def grant(self, txn: GTMTransaction, obj: ManagedObject,
              invocation: Invocation, now: float) -> None:
        """The grant postcondition.  The grantee holds no wait-for edge:
        a requester is Active, so it has none (``check_invariants``
        holds every Active transaction to that), and a waiter comes
        through :meth:`regrant` or the unlock pump, which drop its
        edges first."""
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

    def regrant(self, txn: GTMTransaction, obj: ManagedObject,
                invocation: Invocation, now: float) -> None:
        """Grant a transaction that waited (Algorithm 9's queue-jump):
        its wait-for edges go first."""
        self.deadlocks.on_stop_waiting(txn.txn_id)
        self.grant(txn, obj, invocation, now)

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
        if not (txn_id in obj.pending or obj.is_waiting(txn_id)
                or txn_id in obj.committing):
            raise ProtocolError(
                "local_abort",
                f"{txn_id!r} neither pending, waiting nor committing on "
                f"{obj.name!r}")
        if not txn.is_in(_TS.ABORTING):
            txn.transition(_TS.ABORTING)
        obj.mark_aborting(txn_id)
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
            # every waiter sleeps, and each re-derives in full once its
            # wake moves it: nobody will read the claim log before then.
            obj.repolice.restart(obj.lock_epoch)
            return ()
        now = self._clock()
        batch = self.grant_policy.select(obj, candidates, self.checker, now)
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
            # :meth:`regrant`, one frame shallower
            self.deadlocks.on_stop_waiting(entry.txn_id)
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
            if not obj.repolice.queued:
                obj.repolice.queued = True
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
                obj.repolice.queued = False
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

        Cost control.  The sweep is gated at *object* level by the lock
        epoch captured when the last sweep started: if it has not moved,
        no waiter's edges can be stale (every mutation bumps it), and the
        waiter walk is elided.  A waiter whose recorded epoch is current
        is skipped.  A stale one whose edges were exactly its blockers
        is asked only about the transactions whose claim moved since
        (:meth:`_edges_now`); when none of them entered its blocker set
        or left it other than by finishing, and the graph is
        ``settled`` (a refresh that keeps the edges cannot find a
        deadlock), re-deriving and re-consulting would reproduce the
        graph it already holds, so only the record is renewed.
        Every other stale waiter is re-derived and re-policed in full.
        Either way it counts as refreshed.
        """
        start_epoch = obj.lock_epoch
        state = obj.repolice
        if state.swept_epoch == start_epoch:
            return
        deadlocks = self.deadlocks
        settled = deadlocks.settled
        refreshed = 0
        scratch = None
        for entry in list(obj.waiting):
            txn_id = entry.txn_id
            txn = self._transactions.get(txn_id)
            if txn is None or txn.state is not _TS.WAITING:
                continue
            if txn_id in obj.sleeping:
                continue
            recorded = obj.wait_edges.get(txn_id)
            if recorded is not None and recorded[0] == obj.lock_epoch:
                continue
            refreshed += 1
            if scratch is None:
                scratch = _SweepScratch()
            if settled and recorded is not None \
                    and recorded[1] is not None:
                edges = self._edges_now(obj, txn_id, entry.invocation,
                                        recorded[0], recorded[1], scratch)
                if edges is not None:
                    obj.record_wait_edges(txn_id, edges)
                    continue
            # refresh=True replaces the waiter's stale edges in one step
            # (a waiter waits on one object at a time, so this only
            # touches this object's edges).
            self._police_deadlock(txn, obj, entry.invocation,
                                  scratch, refresh=True)
            settled = deadlocks.settled
        state.swept_epoch = start_epoch
        # every waiter that could read the claim log was just recorded
        state.restart(obj.lock_epoch)
        if refreshed:
            self.bus.on_repolice(obj, refreshed, self._clock())
