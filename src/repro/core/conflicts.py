"""Transaction conflicts (paper Definition 2).

"Transactions A and B are in conflict on X, (A, B) ∈ CONFLICT_X, if A is
operating on X and B requests to perform an operation that is not
compatible with the set of current operations of A, or vice-versa."

:class:`ConflictChecker` is the kernel's one evaluator of that rule:
Table I folded into per-class conflict bitmasks
(:meth:`~repro.core.compatibility.CompatibilityMatrix.conflict_masks`),
and object-level tests answered from the object's incremental
:class:`~repro.core.objects.LockSetSummary` in O(1) per request.

Definition 1 evaluated literally, pair by pair, lives under ``check/``
(:mod:`repro.check.pairwise`) as the oracle it is checked against: the
property suite asserts agreement on every class pair and round set,
and the engine differential (:mod:`repro.check.differential`) asserts
trace-identical episodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.compatibility import (
    CompatibilityMatrix,
    DEFAULT_MATRIX,
    INDEPENDENT_MEMBERS,
    LogicalDependence,
)
from repro.core.opclass import WHOLE_OBJECT_MASK, Invocation, OperationClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.objects import LockSetSummary, ManagedObject

#: Signature of the per-round blocked test built by
#: :meth:`ConflictChecker.blocked_tester`.
BlockedTester = Callable[[str, Invocation], bool]


class MaskRoundSet:
    """Round accumulator for one grant round: O(1) add and probe.

    Tracks per-member class-occupancy masks plus the whole-object and
    overall class masks; a probe is two ANDs plus one AND per dependent
    member, independent of how many invocations were added.
    """

    __slots__ = ("_masks", "_dependents", "_members", "_whole", "_all")

    def __init__(self, masks: tuple[int, ...],
                 dependents: dict[str, tuple[str, ...]]) -> None:
        self._masks = masks
        self._dependents = dependents
        self._members: dict[str, int] = {}
        self._whole = 0      # class occupancy of whole-object invocations
        self._all = 0        # class occupancy of every invocation

    def add(self, invocation: Invocation) -> None:
        bit = 1 << invocation.op_class.bit
        self._all |= bit
        if invocation.op_class.is_whole_object:
            self._whole |= bit
        else:
            member = invocation.member
            self._members[member] = self._members.get(member, 0) | bit

    def conflicts(self, invocation: Invocation) -> bool:
        mask = self._masks[invocation.op_class.bit]
        if invocation.op_class.is_whole_object:
            return bool(mask & self._all)
        if mask & self._whole:
            return True
        members = self._members
        member = invocation.member
        group = self._dependents.get(member)
        if group is None:
            return bool(mask & members.get(member, 0))
        for dependent in group:
            if mask & members.get(dependent, 0):
                return True
        return False


class ConflictChecker:
    """Evaluates CONFLICT_X: the compiled Table I, one AND per pair.

    ``in_conflict`` is a shift-and-mask on the matrix's compiled
    conflict masks; ``object_blocked`` counts conflicting effective
    invocations straight off the object's lock-set summary and subtracts
    the requester's own (at most members-per-object, usually 0-2) —
    independent of how many transactions hold the object.
    """

    def __init__(self, matrix: CompatibilityMatrix = DEFAULT_MATRIX,
                 dependence: LogicalDependence = INDEPENDENT_MEMBERS) -> None:
        self._masks = matrix.conflict_masks()
        #: per class, the conflicting classes split into whole-object
        #: bits (INSERT/DELETE) and member-scoped bit positions.
        self._member_bits = tuple(
            tuple(b.bit for b in OperationClass
                  if not b.is_whole_object
                  and (mask >> b.bit) & 1)
            for mask in self._masks)
        self._whole_bits = tuple(
            tuple(b.bit for b in OperationClass
                  if b.is_whole_object and (mask >> b.bit) & 1)
            for mask in self._masks)
        self._all_bits = tuple(
            tuple(b.bit for b in OperationClass if (mask >> b.bit) & 1)
            for mask in self._masks)
        #: Definition 1's member test as a table, built once per
        #: interned checker: a member in a declared group -> the group
        #: (``dependent_members``); a member in none is absent and
        #: depends on itself alone.  A test is then one dict probe, not
        #: a ``LogicalDependence`` call.
        self._dependents: dict[str, tuple[str, ...]] = {
            member: dependence.dependent_members(member)
            for group in dependence.groups for member in group}

    # -- pairwise kernel ----------------------------------------------------

    def in_conflict(self, requested: Invocation,
                    granted: Invocation) -> bool:
        """Definition 2 for a single pair of invocations."""
        a = requested.op_class
        b = granted.op_class
        if not (self._masks[a.bit] >> b.bit) & 1:
            return False
        if ((1 << a.bit) | (1 << b.bit)) & WHOLE_OBJECT_MASK:
            return True
        member = requested.member
        return (member == granted.member
                or granted.member in self._dependents.get(member, ()))

    def conflicts_with_any(self, requested: Invocation,
                           granted: Iterable[Invocation]) -> bool:
        """True if ``requested`` conflicts with any of ``granted``."""
        mask = self._masks[requested.op_class.bit]
        a_bit = requested.op_class.bit
        member = requested.member
        group = self._dependents.get(member, ())
        for op in granted:
            b = op.op_class
            if not (mask >> b.bit) & 1:
                continue
            if ((1 << a_bit) | (1 << b.bit)) & WHOLE_OBJECT_MASK:
                return True
            if member == op.member or op.member in group:
                return True
        return False

    # -- summary kernel -----------------------------------------------------

    def summary_conflicts(self, summary: "LockSetSummary",
                          invocation: Invocation) -> int:
        """Count of effective invocations conflicting with ``invocation``."""
        bit = invocation.op_class.bit
        if invocation.op_class.is_whole_object:
            # a whole-object op is compared at class level against every
            # effective invocation, member independence never rescues.
            totals = summary.class_totals
            return sum(totals[b] for b in self._all_bits[bit])
        totals = summary.class_totals
        count = 0
        for b in self._whole_bits[bit]:       # INSERT/DELETE holders
            count += totals[b]
        member_bits = self._member_bits[bit]
        masks = summary.member_masks
        counts = summary.member_counts
        member = invocation.member
        for dependent in self._dependents.get(member) or (member,):
            occupancy = masks.get(dependent)
            if not occupancy:
                continue
            row = counts[dependent]
            for b in member_bits:
                if (occupancy >> b) & 1:
                    count += row[b]
        return count

    def object_blocked(self, obj: "ManagedObject", txn_id: str,
                       invocation: Invocation) -> bool:
        """Does the effective lock set of *other* holders block this op?

        The effective set is ``(pending − sleeping) ∪ committing`` with
        ``txn_id``'s own invocations excluded — exactly the Algorithm 2
        admission test.
        """
        total = self.summary_conflicts(obj.summary, invocation)
        if total == 0:
            return False
        # subtract the requester's own contribution to the summary
        # (its pending ops when not sleeping, plus any committing ops).
        own = 0
        if txn_id not in obj.sleeping:
            own_pending = obj.pending.get(txn_id)
            if own_pending:
                own += sum(1 for op in own_pending.values()
                           if self.in_conflict(invocation, op))
        own_committing = obj.committing.get(txn_id)
        if own_committing:
            own += sum(1 for op in own_committing.values()
                       if self.in_conflict(invocation, op))
        return total > own

    def blocked_tester(self, obj: "ManagedObject") -> BlockedTester:
        """A reusable ``blocked(txn_id, invocation)`` test for one round.

        The grant policies probe many waiters against the *same* object
        state, so the tester memoizes the txn-independent summary count
        per ⟨class, member⟩: one summary probe serves every waiter
        asking for the same invocation shape.  The per-waiter remainder
        (subtracting the requester's own contribution) only runs when
        the count is non-zero, and short-circuits for waiters that hold
        nothing.  The tester must not be used across mutations of the
        object's lock sets.
        """
        summary = obj.summary
        memo: dict[tuple[int, str], int] = {}
        summary_conflicts = self.summary_conflicts
        in_conflict = self.in_conflict
        sleeping = obj.sleeping
        pending = obj.pending
        committing = obj.committing

        def blocked(txn_id: str, invocation: Invocation) -> bool:
            key = (invocation.op_class.bit, invocation.member)
            total = memo.get(key)
            if total is None:
                total = memo[key] = summary_conflicts(summary, invocation)
            if total == 0:
                return False
            own = 0
            if txn_id not in sleeping:
                own_pending = pending.get(txn_id)
                if own_pending:
                    own += sum(1 for op in own_pending.values()
                               if in_conflict(invocation, op))
            own_committing = committing.get(txn_id)
            if own_committing:
                own += sum(1 for op in own_committing.values()
                           if in_conflict(invocation, op))
            return total > own

        return blocked

    def new_round_set(self) -> MaskRoundSet:
        """An accumulator for one grant round (see ``GrantPolicy``)."""
        return MaskRoundSet(self._masks, self._dependents)


#: Interned checkers keyed by ⟨matrix, dependence⟩.  Checkers are
#: stateless after construction (precomputed masks only), so every GTM
#: with the same configuration shares one instance — profiling showed
#: per-episode checker construction at ~8% of fuzz-campaign runtime.
#: ``CompatibilityMatrix`` hashes by identity (the module singletons),
#: ``LogicalDependence`` by value.
_CHECKER_CACHE: dict[tuple, ConflictChecker] = {}


def build_conflict_checker(matrix: CompatibilityMatrix = DEFAULT_MATRIX,
                           dependence: LogicalDependence
                           = INDEPENDENT_MEMBERS) -> ConflictChecker:
    """The interned checker for ⟨matrix, dependence⟩."""
    try:
        key = (matrix, dependence)
        cached = _CHECKER_CACHE.get(key)
    except TypeError:        # unhashable custom matrix/dependence
        key = None
        cached = None
    if cached is not None:
        return cached
    checker = ConflictChecker(matrix=matrix, dependence=dependence)
    if key is not None:
        _CHECKER_CACHE[key] = checker
    return checker
