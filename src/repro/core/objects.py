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
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.errors import GTMError
from repro.core.opclass import OP_CLASS_COUNT, Invocation

#: Template for a zeroed per-class count row: a flat ``array("q")``
#: (signed 64-bit) buffer, copied per row, O(1) indexed access for the
#: bitmask kernel.
_ZERO_ROW = array("q", [0] * OP_CLASS_COUNT)


class LockSetSummary:
    """Incremental summary of an object's *effective* lock set.

    The effective set — ``(pending − sleeping) ∪ committing`` — is what
    every Table I admission test runs against.  Instead of rebuilding a
    ``holder_ops`` dict per test (O(holders × members)), the summary
    keeps per-class occupancy counts that the bitmask conflict kernel
    (:class:`~repro.core.conflicts.BitmaskConflictChecker`) consults in
    O(1) per test:

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
    """

    __slots__ = ("class_totals", "member_counts", "member_masks",
                 "total_ops")

    def __init__(self) -> None:
        self.class_totals: array = array("q", _ZERO_ROW)
        self.member_counts: dict[str, array] = {}
        self.member_masks: dict[str, int] = {}
        self.total_ops = 0

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
        #: X_pending: txn -> (member -> granted invocation); "at most
        #: one pending invocation of a single object data member".
        self.pending: dict[str, dict[str, Invocation]] = {}
        #: X_waiting: FIFO queue of wait entries.
        self.waiting: list[WaitEntry] = []
        #: X_committing: txn -> (member -> invocation) being committed.
        self.committing: dict[str, dict[str, Invocation]] = {}
        #: X_committed: commit records (X_tc inside) written while some
        #: transaction sleeps on this object.  Algorithm 9 is the only
        #: reader and its test ``X_tc > A_t_sleep`` is strict, so a
        #: record matters only to transactions already in X_sleeping
        #: when it was written; the list empties with X_sleeping.
        self.committed: list[CommitRecord] = []
        #: X_aborting: txn ids rolling back.
        self.aborting: set[str] = set()
        #: X_sleeping: sleeping txn ids that involve this object.
        self.sleeping: set[str] = set()
        #: X_read: txn -> (member -> snapshot at grant time).
        self.read: dict[str, dict[str, Any]] = {}
        #: X_new: txn -> (member -> reconciled value staged for the SST).
        self.new: dict[str, dict[str, Any]] = {}
        #: Incremental class-occupancy summary of the effective lock set
        #: ``(pending − sleeping) ∪ committing``; maintained by the
        #: grant/commit/abort/sleep mutators below.
        self.summary = LockSetSummary()
        #: Monotone counter bumped on every change to the blocker-
        #: relevant state (pending, committing, sleeping, waiting).  The
        #: admission layer re-polices a waiter's wait-for edges only
        #: when this moved since the edges were recorded.
        self.lock_epoch = 0
        #: txn -> (``lock_epoch`` at which its wait-for edges were last
        #: recorded, those edges — or None when they are not exactly its
        #: blockers at that epoch).  Owned by the admission layer's
        #: re-policing.
        self.wait_edges: dict[str, tuple[int, tuple[str, ...] | None]] = {}
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

    # -- lock-state mutators ----------------------------------------------------
    #
    # Every change to pending/committing/sleeping/waiting flows through
    # these, so the :class:`LockSetSummary`, the lock epoch (bumped by
    # each of them) and the re-policing claim log (which names the
    # transaction behind each bump while someone waits) stay exact
    # without any rebuild on the hot path.

    def grant_pending(self, txn_id: str, invocation: Invocation) -> None:
        """Record a granted invocation in ``X_pending``."""
        ops = self.pending.setdefault(txn_id, {})
        previous = ops.get(invocation.member)
        ops[invocation.member] = invocation
        if txn_id not in self.sleeping:
            if previous is not None:
                self.summary.remove(previous)
            self.summary.add(invocation)
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)

    def stage_commit(self, txn_id: str) -> dict[str, Invocation]:
        """Move a holder from ``X_pending`` to ``X_committing``."""
        invocations = dict(self.pending.pop(txn_id))
        self.committing[txn_id] = invocations
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
        self.new.pop(txn_id, None)
        self.read.pop(txn_id, None)   # X_read^A = ⊥
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)
        return invocations

    def release_claims(self, txn_id: str) -> None:
        """Drop every grant/stage/wait/sleep claim (abort path)."""
        effective = txn_id not in self.sleeping
        pending = self.pending.pop(txn_id, None)
        if pending is not None and effective:
            for op in pending.values():
                self.summary.remove(op)
        committing = self.committing.pop(txn_id, None)
        if committing is not None:
            for op in committing.values():
                self.summary.remove(op)
        self.read.pop(txn_id, None)
        self.new.pop(txn_id, None)
        self.remove_waiting(txn_id)
        self.sleeping.discard(txn_id)
        if not self.sleeping:
            self.committed.clear()
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)

    def mark_sleeping(self, txn_id: str) -> None:
        """⟨sleep, X, A⟩: subtract A's grants from the effective set."""
        if txn_id in self.sleeping:
            return
        self.sleeping.add(txn_id)
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
            self.committed.clear()
        for op in self.pending.get(txn_id, {}).values():
            self.summary.add(op)
        self.lock_epoch += 1
        if self.waiting:
            self.repolice.moved.append(txn_id)

    def push_waiting(self, entry: WaitEntry) -> None:
        state = self.repolice
        if not self.waiting:
            # nobody waited, so nobody's edges predate this push
            # (``restart`` inline: one frame fewer per wait)
            if state is None:
                state = self.repolice = RepoliceState()
            else:
                state.moved.clear()
            state.base = self.lock_epoch
        self.waiting.append(entry)
        self.lock_epoch += 1
        state.moved.append(entry.txn_id)

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
            self.waiting = remaining
            self.wait_edges.pop(txn_id, None)
            self.lock_epoch += 1
            if remaining:
                self.repolice.moved.append(txn_id)

    def record_commit(self, txn_id: str,
                      invocations: Mapping[str, Invocation],
                      now: float) -> None:
        """X_committed gains (A, ops, X_tc) — if anybody can read it."""
        if self.sleeping:
            self.committed.append(
                CommitRecord(txn_id, tuple(invocations.values()),
                             commit_time=now))

    def committed_after(self, when: float) -> Iterator[CommitRecord]:
        """Commit records with ``X_tc > when`` (Algorithm 9's check)."""
        return (record for record in self.committed
                if record.commit_time > when)

    # -- snapshots --------------------------------------------------------------

    def snapshot_for(self, txn_id: str) -> None:
        """X_read^A = X_permanent (full member snapshot at grant time)."""
        self.read[txn_id] = dict(self.permanent)

    def read_value(self, txn_id: str, member: str = "value") -> Any:
        return self.read[txn_id][member]

    def clear_txn(self, txn_id: str) -> None:
        """Drop every trace of ``txn_id`` except committed history."""
        self.release_claims(txn_id)
        self.aborting.discard(txn_id)

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural invariants used by tests and property checks.

        - a transaction is never pending and committing at once, nor
          waiting and committing (a committer cannot be waiting per
          constraint iii); pending-and-waiting IS legal — a transaction
          may hold one data member while queued for another;
        - every pending/committing transaction has an X_read snapshot
          (committing keeps it until the global commit clears it);
        - sleeping is a subset of (pending ∪ waiting).
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

    def __repr__(self) -> str:
        return (f"<ManagedObject {self.name!r} permanent={self.permanent!r} "
                f"pending={sorted(self.pending)} "
                f"waiting={[e.txn_id for e in self.waiting]} "
                f"committing={sorted(self.committing)}>")
