"""Tests for Definition 2: the CONFLICT_X relation."""

from repro.core.compatibility import LogicalDependence
from repro.core.conflicts import ConflictChecker
from repro.core.opclass import add, assign, multiply, read, subtract


class TestConflictChecker:
    def test_compatible_pair_not_in_conflict(self):
        checker = ConflictChecker()
        assert not checker.in_conflict(add(1), subtract(2))
        assert not checker.in_conflict(read(), assign(5))

    def test_incompatible_pair_in_conflict(self):
        checker = ConflictChecker()
        assert checker.in_conflict(add(1), assign(5))
        assert checker.in_conflict(assign(1), assign(2))
        assert checker.in_conflict(add(1), multiply(2))

    def test_conflicts_with_any(self):
        checker = ConflictChecker()
        granted = [add(1), read()]
        assert not checker.conflicts_with_any(subtract(1), granted)
        assert checker.conflicts_with_any(assign(0), granted)

    def test_member_independence_respected(self):
        checker = ConflictChecker()
        assert not checker.in_conflict(add(-1, member="quantity"),
                                       assign(9, member="price"))

    def test_logical_dependence_creates_conflicts(self):
        checker = ConflictChecker(
            dependence=LogicalDependence.of({"quantity", "price"}))
        assert checker.in_conflict(add(-1, member="quantity"),
                                   assign(9, member="price"))

    def test_symmetry(self):
        checker = ConflictChecker()
        pairs = [(add(1), assign(2)), (read(), multiply(2)),
                 (assign(1), subtract(3))]
        for a, b in pairs:
            assert checker.in_conflict(a, b) == checker.in_conflict(b, a)
