"""Operation-class compatibility (paper Table I and Definition 1).

Two invocation events are *compatible* when they forward-commute in the
Weihl sense and a reconciliation algorithm exists (Definition 1).  The
paper summarizes this as Table I:

===============================  =============================
Class of operations              Compatibilities
===============================  =============================
Read                             All classes
Insert/Delete                    No classes
update with assignment           Read
update with add/sub operations   Addition/Subtraction, Read
update with mult/div operations  Multiplication/Division, Read
===============================  =============================

Table I as printed is asymmetric ("Read: all classes" vs "Insert/Delete:
no classes").  A conflict relation must be symmetric, so we take the
*stricter* entry for each unordered pair — READ×INSERT and READ×DELETE
are incompatible — and property tests assert the symmetry.  This matches
the operational reading: an insert/delete changes object existence, which
no concurrent operation (not even a read snapshot) survives.

Definition 1 also restricts compatibility to operations "referred to the
same object data member"; the following paragraph *relaxes* it so that
operations on distinct, not-logically-dependent members are compatible.
:class:`LogicalDependence` captures the declared member dependencies
(e.g. ``quantity`` and ``price`` of a product).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping

from repro.errors import GTMError
from repro.core.opclass import Invocation, OperationClass

_R = OperationClass.READ
_I = OperationClass.INSERT
_D = OperationClass.DELETE
_AS = OperationClass.UPDATE_ASSIGN
_AD = OperationClass.UPDATE_ADDSUB
_MU = OperationClass.UPDATE_MULDIV

#: The unordered compatible pairs of Table I (symmetric closure, stricter
#: entry wins for the READ×INSERT/DELETE ambiguity).
_TABLE_I_PAIRS: frozenset[frozenset[OperationClass]] = frozenset({
    frozenset({_R}),            # read || read
    frozenset({_R, _AS}),       # read || assignment
    frozenset({_R, _AD}),       # read || add/sub
    frozenset({_R, _MU}),       # read || mul/div
    frozenset({_AD}),           # add/sub || add/sub
    frozenset({_MU}),           # mul/div || mul/div
})


class CompatibilityMatrix:
    """A symmetric compatibility relation over operation classes."""

    def __init__(self, pairs: Iterable[frozenset[OperationClass]]
                 = _TABLE_I_PAIRS) -> None:
        self._pairs: FrozenSet[frozenset[OperationClass]] = frozenset(pairs)
        for pair in self._pairs:
            if not 1 <= len(pair) <= 2:
                raise GTMError(f"malformed compatibility pair {pair!r}")
        # Compiled form: per class, the bitmask of CONFLICTING classes.
        # ``conflict_masks()[a.bit] >> b.bit & 1`` is the whole Table I
        # test — one shift and one AND instead of a frozenset build and
        # a set lookup per pair.
        self._conflict_masks: tuple[int, ...] = tuple(
            sum((1 << b.bit) for b in OperationClass
                if frozenset({a, b}) not in self._pairs)
            for a in OperationClass)

    def compatible_classes(self, a: OperationClass,
                           b: OperationClass) -> bool:
        """True when classes ``a`` and ``b`` commute (Table I)."""
        return frozenset({a, b}) in self._pairs

    def conflict_masks(self) -> tuple[int, ...]:
        """Table I compiled to bitmasks, indexed by ``OperationClass.bit``.

        Bit ``b.bit`` of ``conflict_masks()[a.bit]`` is set iff classes
        ``a`` and ``b`` do NOT commute.  The matrix is symmetric, so the
        compiled masks are too.
        """
        return self._conflict_masks

    def compatible_with(self, a: OperationClass) -> frozenset[OperationClass]:
        """All classes compatible with ``a``."""
        result = set()
        for other in OperationClass:
            if self.compatible_classes(a, other):
                result.add(other)
        return frozenset(result)

    def as_table(self) -> list[list[str]]:
        """Render the matrix as rows for reports (Table I regeneration)."""
        classes = list(OperationClass)
        header = [""] + [c.value for c in classes]
        rows = [header]
        for a in classes:
            row = [a.value]
            for b in classes:
                row.append("+" if self.compatible_classes(a, b) else "-")
            rows.append(row)
        return rows


#: The paper's matrix, shared default for the whole library.
DEFAULT_MATRIX = CompatibilityMatrix()

#: Classical read/write locking, the coarsest relation: only two reads
#: commute (2PL's S/X rule).  Under it the GTM is the strict-2PL
#: baseline Section II compares Table I against.
READ_WRITE = CompatibilityMatrix([frozenset({_R})])


@dataclass(frozen=True)
class LogicalDependence:
    """Declared logical dependencies among object data members.

    The paper relaxes Definition 1: "only transaction operations on
    logically dependent items (e.g. quantity and price of a given
    product) can generate a conflict, while operations on not-logical
    dependent data members are compatible."

    ``groups`` is a collection of member-name sets; members in the same
    group are mutually dependent.  Members not mentioned in any group are
    independent of everything else.
    """

    groups: tuple[frozenset[str], ...] = ()
    _member_to_group: Mapping[str, int] = field(init=False, repr=False,
                                                compare=False, default=None)
    _group_members: Mapping[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        mapping: dict[str, int] = {}
        for index, group in enumerate(self.groups):
            for member in group:
                if member in mapping:
                    raise GTMError(
                        f"member {member!r} appears in two dependence groups")
                mapping[member] = index
        object.__setattr__(self, "_member_to_group", mapping)
        object.__setattr__(self, "_group_members", {
            member: tuple(sorted(self.groups[index]))
            for member, index in mapping.items()})

    @classmethod
    def of(cls, *groups: Iterable[str]) -> "LogicalDependence":
        return cls(tuple(frozenset(g) for g in groups))

    def dependent(self, member_a: str, member_b: str) -> bool:
        """True when the two members may conflict.

        A member always depends on itself; distinct members depend on each
        other only when they share a declared group.
        """
        if member_a == member_b:
            return True
        group_a = self._member_to_group.get(member_a)
        group_b = self._member_to_group.get(member_b)
        return group_a is not None and group_a == group_b

    def dependent_members(self, member: str) -> tuple[str, ...]:
        """Every member ``member`` may conflict with (itself included).

        The bitmask kernel tables this tuple per member once, when its
        checker is built, and sums per-member occupancy over exactly it;
        group sizes are small and fixed, so the summary conflict test
        stays O(|group|), independent of holder count.
        """
        group = self._group_members.get(member)
        if group is None:
            return (member,)
        return group


#: No declared dependencies: only same-member operations can conflict.
INDEPENDENT_MEMBERS = LogicalDependence()


def invocations_compatible(a: Invocation, b: Invocation,
                           matrix: CompatibilityMatrix = DEFAULT_MATRIX,
                           dependence: LogicalDependence = INDEPENDENT_MEMBERS,
                           ) -> bool:
    """Definition 1 with the logical-dependence relaxation.

    Two invocations are compatible iff

    - they touch members that are not logically dependent (then they act
      on disjoint state and trivially commute), or
    - they touch dependent members (in particular the same one) and their
      operation classes commute per Table I.

    INSERT/DELETE target whole objects, so member independence does not
    rescue them: they are compared at class level regardless of members.
    """
    whole_object = (a.op_class in (_I, _D) or b.op_class in (_I, _D))
    if not whole_object and not dependence.dependent(a.member, b.member):
        return True
    return matrix.compatible_classes(a.op_class, b.op_class)
