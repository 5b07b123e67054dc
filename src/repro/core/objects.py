"""Managed objects: the per-object bookkeeping of paper Section IV.

Each object the GTM manages carries:

- ``X_permanent`` — the committed value of each data member;
- ``X_pending`` — transactions granted the right to operate, with their
  class of operation;
- ``X_waiting`` — the FIFO wait queue of (transaction, operation);
- ``X_committing`` / ``X_committed`` — transactions applying / having
  applied their commit;
- ``X_aborting`` — transactions rolling back;
- ``X_sleeping`` — sleeping transactions that touch this object;
- ``X_read`` — per transaction, the permanent value snapshotted at grant
  time;
- ``X_new`` — per transaction, the reconciled value staged for the SST;
- ``X_tc`` — per committed transaction, the commit time.

An object may be *bound* to an LDBS column via :class:`ObjectBinding`;
the SST executor uses the binding to translate staged values into real
database writes.

An object costs what it holds.  Algorithm 11 reads an empty set as ⊥,
and an object that nobody holds, waits on, commits, aborts or sleeps on
is *idle*: its X_* slots hold shared read-only empties (``_IDLE_MAP``,
``_IDLE_IDS``, ``()`` and ``_IDLE_SUMMARY``), so it owns no container
and the cyclic collector walks only the object itself.  The mutator
that records the first claim of a kind allocates that container inline,
and the one that removes the last claim puts every slot back; a write
that bypasses the mutators raises on an idle object instead of
corrupting every object that shares the empty.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.errors import GTMError
from repro.core.opclass import OP_CLASS_COUNT, Invocation

#: Template for a zeroed per-class count row: a flat ``array("q")``
#: (signed 64-bit) buffer, copied per row, O(1) indexed access for the
#: bitmask kernel.
_ZERO_ROW = array("q", [0] * OP_CLASS_COUNT)

#: The idle object's empty maps (X_pending, X_committing, X_read, X_new
#: and the wait-edge map) and sets (X_aborting, X_sleeping); X_waiting
#: and X_committed are ``()``.  Shared and read-only.
_IDLE_MAP: Mapping[str, Any] = MappingProxyType({})
_IDLE_IDS: frozenset[str] = frozenset()


class LockSetSummary:
    """Incremental summary of an object's *effective* lock set.

    The effective set — ``(pending − sleeping) ∪ committing`` — is what
    every Table I admission test runs against.  Instead of rebuilding a
    ``holder_ops`` dict per test (O(holders × members)), the summary
    keeps per-class occupancy counts that the kernel's conflict checker
    (:class:`~repro.core.conflicts.ConflictChecker`) consults in O(1)
    per test:

    - ``class_totals[bit]`` — effective invocations of that class,
      across all holders and members;
    - ``member_counts[member][bit]`` — the same, scoped to one data
      member (whole-object INSERT/DELETE invocations are counted only
      in ``class_totals``: they have no meaningful member);
    - ``member_masks[member]`` — occupancy bitmask derived from the
      counts, for fast zero checks.

    Counts are keyed by (class, member) only — holder identity stays
    out.  Excluding the requester's own invocations is done by the
    caller subtracting its (small, known) op set from the totals.

    Every mutation goes through :class:`ManagedObject`'s grant / commit
    / abort / sleep mutators; ``rebuild_from`` recomputes the summary
    from scratch so the differential harness can assert the incremental
    bookkeeping never drifts.

    An idle object shares the zero summary ``_IDLE_SUMMARY``; the grant
    that makes its first effective invocation builds its own, holding
    ``first``.
    """

    __slots__ = ("class_totals", "member_counts", "member_masks",
                 "total_ops")

    def __init__(self, first: Invocation | None = None) -> None:
        self.class_totals: array = array("q", _ZERO_ROW)
        self.member_counts: dict[str, array] = {}
        self.member_masks: dict[str, int] = {}
        self.total_ops = 0
        if first is not None:
            # ``add(first)`` inline: the claiming grant pays one frame,
            # as it would for ``add``
            bit = first.op_class.bit
            self.class_totals[bit] = 1
            self.total_ops = 1
            if not first.op_class.is_whole_object:
                row = self.member_counts[first.member] = \
                    array("q", _ZERO_ROW)
                row[bit] = 1
                self.member_masks[first.member] = 1 << bit

    def add(self, invocation: Invocation) -> None:
        bit = invocation.op_class.bit
        self.class_totals[bit] += 1
        self.total_ops += 1
        if invocation.op_class.is_whole_object:
            return
        member = invocation.member
        counts = self.member_counts.get(member)
        if counts is None:
            counts = self.member_counts[member] = array("q", _ZERO_ROW)
        counts[bit] += 1
        self.member_masks[member] = self.member_masks.get(member, 0) \
            | (1 << bit)

    def remove(self, invocation: Invocation) -> None:
        bit = invocation.op_class.bit
        if self.class_totals[bit] <= 0:
            raise GTMError(
                f"lock summary underflow removing {invocation.describe()!r}")
        self.class_totals[bit] -= 1
        self.total_ops -= 1
        if invocation.op_class.is_whole_object:
            return
        member = invocation.member
        counts = self.member_counts[member]
        counts[bit] -= 1
        if counts[bit] == 0:
            mask = self.member_masks[member] & ~(1 << bit)
            if mask:
                self.member_masks[member] = mask
            else:
                del self.member_masks[member]
                del self.member_counts[member]

    def rebuild_from(self, obj: "ManagedObject") -> None:
        """Recompute from the object's raw sets (verification aid)."""
        self.class_totals = array("q", _ZERO_ROW)
        self.member_counts.clear()
        self.member_masks.clear()
        self.total_ops = 0
        for txn_id, ops in obj.pending.items():
            if txn_id in obj.sleeping:
                continue
            for op in ops.values():
                self.add(op)
        for ops in obj.committing.values():
            for op in ops.values():
                self.add(op)

    def state(self) -> tuple:
        """Canonical comparable form (for drift verification)."""
        return (tuple(self.class_totals),
                tuple(sorted((m, tuple(c))
                             for m, c in self.member_counts.items())),
                self.total_ops)

    def __repr__(self) -> str:
        return (f"<LockSetSummary ops={self.total_ops} "
                f"classes={self.class_totals} "
                f"members={sorted(self.member_masks)}>")


#: The zero summary every idle object shares.  Its counts are a tuple and
#: its maps read-only, so ``add`` raises on it and ``remove`` underflows.
_IDLE_SUMMARY = LockSetSummary()
_IDLE_SUMMARY.class_totals = tuple(_ZERO_ROW)
_IDLE_SUMMARY.member_counts = _IDLE_SUMMARY.member_masks = _IDLE_MAP

#: Each X_* slot of :class:`ManagedObject` and the shared empty it holds
#: while the object is idle.
_IDLE_SLOTS = (
    ("pending", _IDLE_MAP), ("waiting", ()), ("committing", _IDLE_MAP),
    ("committed", ()), ("aborting", _IDLE_IDS), ("sleeping", _IDLE_IDS),
    ("read", _IDLE_MAP), ("new", _IDLE_MAP), ("summary", _IDLE_SUMMARY),
    ("wait_edges", _IDLE_MAP))


@dataclass(frozen=True)
class ObjectBinding:
    """Maps a GTM object member to an LDBS cell (table, key, column).

    ``member_columns`` maps GTM member names to table column names; the
    default binds the atomic member ``"value"`` to ``column``.
    """

    table: str
    key: Any
    member_columns: Mapping[str, str]

    @classmethod
    def cell(cls, table: str, key: Any, column: str) -> "ObjectBinding":
        return cls(table=table, key=key,
                   member_columns={"value": column})

    def column_for(self, member: str) -> str:
        try:
            return self.member_columns[member]
        except KeyError:
            raise GTMError(
                f"binding for table {self.table!r} has no member "
                f"{member!r}") from None


class WaitEntry:
    """One entry of ``X_waiting``: a transaction and its requested op.

    Wait entries churn once per blocked request, so they are slotted.
    """

    __slots__ = ("txn_id", "invocation", "arrival")

    def __init__(self, txn_id: str, invocation: Invocation,
                 arrival: float) -> None:
        self.txn_id = txn_id
        self.invocation = invocation
        self.arrival = arrival

    def __repr__(self) -> str:
        return (f"<WaitEntry {self.txn_id!r} "
                f"{self.invocation.describe()} @{self.arrival}>")


class RepoliceState:
    """What the admission layer's re-policing keeps for an object
    somebody has waited on: the claim log and the sweep marks.

    Made by the object's first ``push_waiting``; an object nobody ever
    waited on holds none.
    """

    __slots__ = ("moved", "base", "swept_epoch", "queued")

    def __init__(self) -> None:
        #: While someone waits: the transaction behind each epoch bump
        #: since ``base``, oldest first (``moved[i]`` made epoch
        #: ``base + i + 1``).  It restarts when a wait starts on an
        #: empty queue, and whenever the sweep has re-recorded every
        #: waiter it could use it for.
        self.moved: list[str] = []
        self.base = 0
        #: ``lock_epoch`` captured at the *start* of the last completed
        #: sweep.  When it still equals ``lock_epoch`` the sweep would
        #: refresh nothing (every waiter's edges were re-recorded then
        #: and nothing moved since), so the whole waiter walk is skipped.
        self.swept_epoch = -1
        #: True while the object sits in the deferred sweep queue (tick
        #: batching).
        self.queued = False

    def restart(self, epoch: int) -> None:
        """No waiter's edges predate ``epoch``: forget the moves before."""
        self.moved.clear()
        self.base = epoch

    def since(self, epoch: int) -> list[str] | None:
        """Transactions whose claim changed after ``epoch`` (in order,
        repeats kept), or None when the log does not reach back that far.
        """
        if epoch < self.base:
            return None
        return self.moved[epoch - self.base:]


@dataclass(frozen=True)
class CommitRecord:
    """One entry of ``X_committed``: who committed what, and when (X_tc)."""

    txn_id: str
    #: every operation the transaction held on this object (one per
    #: data member).
    invocations: tuple[Invocation, ...]
    commit_time: float


class ManagedObject:
    """The GTM-side state of one database object."""

    __slots__ = ("name", "permanent", "binding", "exists", "pending",
                 "waiting", "committing", "committed", "aborting",
                 "sleeping", "read", "new", "summary", "lock_epoch",
                 "wait_edges", "repolice")

    def __init__(self, name: str,
                 members: Mapping[str, Any] | None = None,
                 value: Any = None,
                 binding: ObjectBinding | None = None,
                 exists: bool = True) -> None:
        if members is None:
            members = {"value": value}
        elif value is not None:
            raise GTMError("pass either members= or value=, not both")
        self.name = name
        #: X_permanent: member -> committed value.
        self.permanent: dict[str, Any] = dict(members)
        self.binding = binding
        #: Whole-object existence: False for a registered shell awaiting
        #: an INSERT, or after a committed DELETE.
        self.exists = exists
        # The claim sets start idle (see the module docstring): each is
        # a shared empty until a mutator below records a claim in it.
        #: X_pending: txn -> (member -> granted invocation); "at most
        #: one pending invocation of a single object data member".
        self.pending: dict[str, dict[str, Invocation]] = _IDLE_MAP
        #: X_waiting: FIFO queue of wait entries.
        self.waiting: list[WaitEntry] = ()
        #: X_committing: txn -> (member -> invocation) being committed.
        self.committing: dict[str, dict[str, Invocation]] = _IDLE_MAP
        #: X_committed: commit records (X_tc inside) written while some
        #: transaction sleeps on this object.  Algorithm 9 is the only
        #: reader and its test ``X_tc > A_t_sleep`` is strict, so a
        #: record matters only to transactions already in X_sleeping
        #: when it was written; the list empties with X_sleeping.
        self.committed: list[CommitRecord] = ()
        #: X_aborting: txn ids rolling back.
        self.aborting: set[str] = _IDLE_IDS
        #: X_sleeping: sleeping txn ids that involve this object.
        self.sleeping: set[str] = _IDLE_IDS
        #: X_read: txn -> (member -> snapshot at grant time).
        self.read: dict[str, dict[str, Any]] = _IDLE_MAP
        #: X_new: txn -> (member -> reconciled value staged for the SST).
        self.new: dict[str, dict[str, Any]] = _IDLE_MAP
        #: Incremental class-occupancy summary of the effective lock set
        #: ``(pending − sleeping) ∪ committing``; maintained by the
        #: grant/commit/abort/sleep mutators below.
        self.summary = _IDLE_SUMMARY
        #: Monotone counter bumped on every change to the blocker-
        #: relevant state (pending, committing, sleeping, waiting).  The
        #: admission layer re-polices a waiter's wait-for edges only
        #: when this moved since the edges were recorded.  It survives
        #: idle periods, so it never runs backwards.
        self.lock_epoch = 0
        #: txn -> (``lock_epoch`` at which its wait-for edges were last
        #: recorded, those edges — or None when they are not exactly its
        #: blockers at that epoch).  Written by the admission layer's
        #: re-policing through :meth:`record_wait_edges`.
        self.wait_edges: dict[str, tuple[int, tuple[str, ...] | None]] = \
            _IDLE_MAP
        #: The claim log the mutators below append to while someone
        #: waits, and the sweep marks; None until the first wait.
        self.repolice: RepoliceState | None = None

    # -- membership helpers ---------------------------------------------------

    def members(self) -> tuple[str, ...]:
        return tuple(self.permanent)

    def permanent_value(self, member: str = "value") -> Any:
        try:
            return self.permanent[member]
        except KeyError:
            raise GTMError(
                f"object {self.name!r} has no member {member!r}") from None

    def is_pending(self, txn_id: str) -> bool:
        return txn_id in self.pending

    def pending_ops(self, txn_id: str) -> tuple[Invocation, ...]:
        """Every operation ``txn_id`` currently holds on this object."""
        return tuple(self.pending.get(txn_id, {}).values())

    def holder_ops(self, exclude: str | None = None,
                   include_sleeping: bool = True,
                   include_committing: bool = True,
                   ) -> dict[str, tuple[Invocation, ...]]:
        """The effective lock set: txn -> its granted/committing ops."""
        holders: dict[str, list[Invocation]] = {}
        for txn_id, ops in self.pending.items():
            if txn_id == exclude:
                continue
            if not include_sleeping and txn_id in self.sleeping:
                continue
            holders.setdefault(txn_id, []).extend(ops.values())
        if include_committing:
            for txn_id, ops in self.committing.items():
                if txn_id == exclude:
                    continue
                holders.setdefault(txn_id, []).extend(ops.values())
        return {txn_id: tuple(ops) for txn_id, ops in holders.items()}

    def is_idle(self) -> bool:
        """Nobody holds, waits on, commits, aborts or sleeps on it."""
        return not (self.pending or self.waiting or self.committing
                    or self.aborting or self.sleeping)

    # -- lock-state mutators ----------------------------------------------------
    #
    # Every change to pending/committing/sleeping/waiting flows through
    # these, so the :class:`LockSetSummary`, the lock epoch (bumped by
    # each of them) and the re-policing claim log (which names the
    # transaction behind each bump while someone waits) stay exact
    # without any rebuild on the hot path.  Each allocates the container
    # it writes when that is still the idle empty, inline, so a claim
    # costs no frame of its own.  The two that can remove an object's
    # last claim put the idle state back: ``discard_aborting`` (the
    # abort path) through ``_fall_idle``, ``retire_committer`` (every
    # commit) inline.

    def grant_pending(self, txn_id: str, invocation: Invocation) -> None:
        """Record a granted invocation in ``X_pending``."""
        pending = self.pending
        if pending is _IDLE_MAP:
            pending = self.pending = {}
        ops = pending.get(txn_id)
        if ops is None:
            ops = pending[txn_id] = {}
        previous = ops.get(invocation.member)
        ops[invocation.member] = invocation
        if txn_id not in self.sleeping:
            summary = self.summary
            if summary is _IDLE_SUMMARY:
                self.summary = LockSetSummary(invocation)
            else:
                if previous is not None:
                    summary.remove(previous)
                summary.add(invocation)
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)

    def stage_commit(self, txn_id: str) -> dict[str, Invocation]:
        """Move a holder from ``X_pending`` to ``X_committing``.  The
        caller stores ``X_new^A`` once every member has reconciled, in
        the map this makes."""
        invocations = dict(self.pending.pop(txn_id))
        committing = self.committing
        if committing is _IDLE_MAP:
            committing = self.committing = {}
        committing[txn_id] = invocations
        if self.new is _IDLE_MAP:
            self.new = {}
        if txn_id in self.sleeping:
            # a committer is never sleeping (constraint iii), but keep
            # the summary exact even if a caller breaks that: committing
            # ops are always effective.
            for op in invocations.values():
                self.summary.add(op)
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)
        return invocations

    def retire_committer(self, txn_id: str) -> dict[str, Invocation]:
        """Drop a finished committer from ``X_committing``/``X_new``."""
        invocations = self.committing.pop(txn_id)
        for op in invocations.values():
            self.summary.remove(op)
        if txn_id in self.new:
            del self.new[txn_id]
        if txn_id in self.read:
            del self.read[txn_id]   # X_read^A = ⊥
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)
        elif not (self.pending or self.committing or self.aborting
                  or self.sleeping):
            # the last claim left: ``is_idle`` and ``_fall_idle`` inline,
            # since every committed object passes here and the two
            # frames would cost 8 calls per four-object wire transaction
            self.pending = self.committing = self.read = self.new = \
                self.wait_edges = _IDLE_MAP
            self.waiting = self.committed = ()
            self.aborting = self.sleeping = _IDLE_IDS
            self.summary = _IDLE_SUMMARY
        return invocations

    def release_claims(self, txn_id: str) -> None:
        """Drop every grant/stage/wait/sleep claim (abort path)."""
        if txn_id in self.pending:
            ops = self.pending.pop(txn_id)
            if txn_id not in self.sleeping:
                for op in ops.values():
                    self.summary.remove(op)
        if txn_id in self.committing:
            for op in self.committing.pop(txn_id).values():
                self.summary.remove(op)
        if txn_id in self.read:
            del self.read[txn_id]
        if txn_id in self.new:
            del self.new[txn_id]
        self.remove_waiting(txn_id)
        if txn_id in self.sleeping:
            self.sleeping.discard(txn_id)
            if not self.sleeping:
                self.committed = ()
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)

    def mark_aborting(self, txn_id: str) -> None:
        """⟨abort, X, A⟩: A joins ``X_aborting`` until ⟨abort, A⟩."""
        aborting = self.aborting
        if aborting is _IDLE_IDS:
            aborting = self.aborting = set()
        aborting.add(txn_id)

    def discard_aborting(self, txn_id: str) -> None:
        """⟨abort, A⟩ finished: A leaves ``X_aborting``; the object
        falls idle when that was its last claim."""
        if txn_id in self.aborting:
            self.aborting.discard(txn_id)
        if self.is_idle():
            self._fall_idle()

    def _fall_idle(self) -> None:
        """No claim is left: every X_* slot takes its shared empty back."""
        for slot, empty in _IDLE_SLOTS:
            setattr(self, slot, empty)

    def mark_sleeping(self, txn_id: str) -> None:
        """⟨sleep, X, A⟩: subtract A's grants from the effective set."""
        sleeping = self.sleeping
        if txn_id in sleeping:
            return
        if sleeping is _IDLE_IDS:
            sleeping = self.sleeping = set()
        sleeping.add(txn_id)
        for op in self.pending.get(txn_id, {}).values():
            self.summary.remove(op)
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)

    def wake_sleeping(self, txn_id: str) -> None:
        """⟨awake, X, A⟩ survivor path: grants rejoin the effective set."""
        if txn_id not in self.sleeping:
            return
        self.sleeping.discard(txn_id)
        if not self.sleeping:
            self.committed = ()
        for op in self.pending.get(txn_id, {}).values():
            self.summary.add(op)
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)

    def push_waiting(self, entry: WaitEntry) -> None:
        state = self.repolice
        if self.waiting:
            self.waiting.append(entry)
        else:
            # nobody waited, so nobody's edges predate this push
            # (``restart`` inline: one frame fewer per wait)
            if state is None:
                state = self.repolice = RepoliceState()
            else:
                state.moved.clear()
            state.base = self.lock_epoch
            self.waiting = [entry]
        self.lock_epoch += 1
        state.moved.append(entry.txn_id)

    def record_wait_edges(self, txn_id: str,
                          edges: tuple[str, ...] | None) -> None:
        """A waiter's wait-for edges as of the current epoch: exactly
        its blockers, or None when they are not."""
        wait_edges = self.wait_edges
        if wait_edges is _IDLE_MAP:
            wait_edges = self.wait_edges = {}
        wait_edges[txn_id] = (self.lock_epoch, edges)

    def verify_summary(self) -> None:
        """Raise when the incremental summary drifted from the raw sets."""
        rebuilt = LockSetSummary()
        rebuilt.rebuild_from(self)
        if rebuilt.state() != self.summary.state():
            raise GTMError(
                f"object {self.name!r}: lock-set summary drift: "
                f"incremental {self.summary!r} != rebuilt {rebuilt!r}")

    def is_waiting(self, txn_id: str) -> bool:
        return any(entry.txn_id == txn_id for entry in self.waiting)

    def waiting_entry(self, txn_id: str) -> WaitEntry | None:
        return next((e for e in self.waiting if e.txn_id == txn_id), None)

    def remove_waiting(self, txn_id: str) -> None:
        remaining = [e for e in self.waiting if e.txn_id != txn_id]
        if len(remaining) != len(self.waiting):
            self.waiting = remaining or ()
            if txn_id in self.wait_edges:
                del self.wait_edges[txn_id]
            self.lock_epoch += 1
            if remaining:
                self.repolice.moved.append(txn_id)

    def record_commit(self, txn_id: str,
                      invocations: Mapping[str, Invocation],
                      now: float) -> None:
        """X_committed gains (A, ops, X_tc) — if anybody can read it."""
        if self.sleeping:
            record = CommitRecord(txn_id, tuple(invocations.values()),
                                  commit_time=now)
            if self.committed:
                self.committed.append(record)
            else:
                self.committed = [record]

    def committed_after(self, when: float) -> Iterator[CommitRecord]:
        """Commit records with ``X_tc > when`` (Algorithm 9's check)."""
        return (record for record in self.committed
                if record.commit_time > when)

    # -- snapshots --------------------------------------------------------------

    def snapshot_for(self, txn_id: str) -> None:
        """X_read^A = X_permanent (full member snapshot at grant time)."""
        read = self.read
        if read is _IDLE_MAP:
            read = self.read = {}
        read[txn_id] = dict(self.permanent)

    def read_value(self, txn_id: str, member: str = "value") -> Any:
        return self.read[txn_id][member]

    def clear_txn(self, txn_id: str) -> None:
        """Drop every trace of ``txn_id`` except committed history."""
        self.release_claims(txn_id)
        self.discard_aborting(txn_id)

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural invariants used by tests and property checks.

        - a transaction is never pending and committing at once, nor
          waiting and committing (a committer cannot be waiting per
          constraint iii); pending-and-waiting IS legal — a transaction
          may hold one data member while queued for another;
        - every pending/committing transaction has an X_read snapshot
          (committing keeps it until the global commit clears it);
        - sleeping is a subset of (pending ∪ waiting);
        - an idle object holds only the shared empties, and an object
          with effective invocations holds its own summary.
        """
        waiting_ids = {entry.txn_id for entry in self.waiting}
        pending_ids = set(self.pending)
        committing_ids = set(self.committing)
        overlap = (pending_ids & committing_ids) | \
                  (waiting_ids & committing_ids)
        if overlap:
            raise GTMError(
                f"object {self.name!r}: transactions in two roles: "
                f"{sorted(overlap)}")
        missing = pending_ids - set(self.read)
        if missing:
            raise GTMError(
                f"object {self.name!r}: pending without X_read: "
                f"{sorted(missing)}")
        stray = self.sleeping - (pending_ids | waiting_ids)
        if stray:
            raise GTMError(
                f"object {self.name!r}: sleeping but neither pending nor "
                f"waiting: {sorted(stray)}")
        if self.is_idle():
            private = [slot for slot, empty in _IDLE_SLOTS
                       if getattr(self, slot) is not empty]
            if private:
                raise GTMError(
                    f"object {self.name!r}: unclaimed but holds private "
                    f"containers: {private}")
        elif self.summary is _IDLE_SUMMARY and (
                committing_ids or pending_ids - self.sleeping):
            raise GTMError(
                f"object {self.name!r}: claimed but still uses the shared "
                f"idle summary")

    def __repr__(self) -> str:
        return (f"<ManagedObject {self.name!r} permanent={self.permanent!r} "
                f"pending={sorted(self.pending)} "
                f"waiting={[e.txn_id for e in self.waiting]} "
                f"committing={sorted(self.committing)}>")
