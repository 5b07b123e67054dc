"""The pairwise conflict oracle: Definition 2 evaluated literally.

The kernel's :class:`~repro.core.conflicts.ConflictChecker` compiles
Table I into bitmasks and answers object-level tests from incremental
lock-set summaries.  :class:`PairwiseConflictChecker` decides the same
rule the way the paper states it — every requested invocation against
every granted one through
:func:`~repro.core.compatibility.invocations_compatible`, walking the
object's holders — so the two can be compared.  The engine
differential (:mod:`repro.check.differential`) hands it to the kernel
through ``GlobalTransactionManager(checker=...)`` and asserts
trace-identical episodes; the property suite compares the two pair by
pair.  It offers the kernel's checker interface and nothing more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.compatibility import (
    CompatibilityMatrix,
    DEFAULT_MATRIX,
    INDEPENDENT_MEMBERS,
    LogicalDependence,
    invocations_compatible,
)
from repro.core.conflicts import BlockedTester
from repro.core.opclass import Invocation

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.objects import ManagedObject


class PairwiseConflictChecker:
    """Evaluates CONFLICT_X pair by pair: O(holders × members) per test."""

    def __init__(self, matrix: CompatibilityMatrix = DEFAULT_MATRIX,
                 dependence: LogicalDependence = INDEPENDENT_MEMBERS) -> None:
        self.matrix = matrix
        self.dependence = dependence

    def in_conflict(self, requested: Invocation,
                    granted: Invocation) -> bool:
        """Definition 2 for a single pair of invocations."""
        return not invocations_compatible(requested, granted,
                                          matrix=self.matrix,
                                          dependence=self.dependence)

    def conflicts_with_any(self, requested: Invocation,
                           granted: Iterable[Invocation]) -> bool:
        """True if ``requested`` conflicts with any of ``granted``."""
        return any(self.in_conflict(requested, op) for op in granted)

    def object_blocked(self, obj: "ManagedObject", txn_id: str,
                       invocation: Invocation) -> bool:
        """Does the effective lock set ``(pending − sleeping) ∪
        committing`` of *other* holders block this op?  Walks them."""
        holders = obj.holder_ops(exclude=txn_id, include_sleeping=False)
        return any(self.conflicts_with_any(invocation, ops)
                   for ops in holders.values())

    def blocked_tester(self, obj: "ManagedObject") -> BlockedTester:
        """The round's blocked test over one holder snapshot, taken now;
        a waiter's own entry is skipped."""
        holders = obj.holder_ops(include_sleeping=False)
        conflicts_with_any = self.conflicts_with_any

        def blocked(txn_id: str, invocation: Invocation) -> bool:
            return any(conflicts_with_any(invocation, ops)
                       for holder, ops in holders.items()
                       if holder != txn_id)

        return blocked

    def new_round_set(self) -> "PairwiseRoundSet":
        """An accumulator for one grant round (see ``GrantPolicy``)."""
        return PairwiseRoundSet(self)


class PairwiseRoundSet:
    """Round accumulator for the oracle: a list, probed O(n)."""

    __slots__ = ("_checker", "_ops")

    def __init__(self, checker: PairwiseConflictChecker) -> None:
        self._checker = checker
        self._ops: list[Invocation] = []

    def add(self, invocation: Invocation) -> None:
        self._ops.append(invocation)

    def conflicts(self, invocation: Invocation) -> bool:
        return self._checker.conflicts_with_any(invocation, self._ops)
