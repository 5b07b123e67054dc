"""Tests for CHECK constraints."""

import pytest

from repro.errors import ConstraintViolation
from repro.ldbs.constraints import (
    CheckConstraint,
    ConstraintSet,
    NonNegative,
)


class TestNonNegative:
    def test_passes_on_zero_and_positive(self):
        constraint = NonNegative("flight", "free")
        constraint.validate({"free": 0})
        constraint.validate({"free": 10})

    def test_fails_on_negative(self):
        with pytest.raises(ConstraintViolation):
            NonNegative("flight", "free").validate({"free": -1})

    def test_none_passes(self):
        NonNegative("flight", "free").validate({"free": None})

    def test_violation_carries_constraint_name(self):
        try:
            NonNegative("flight", "free").validate({"free": -1})
        except ConstraintViolation as exc:
            assert exc.constraint == "flight.free>=0"
        else:  # pragma: no cover
            pytest.fail("expected ConstraintViolation")


class TestConstraintSet:
    def test_validates_per_table(self):
        constraints = ConstraintSet()
        constraints.add(NonNegative("flight", "free"))
        constraints.validate("flight", {"free": 1})
        constraints.validate("hotel", {"free": -1})  # other table: ok
        with pytest.raises(ConstraintViolation):
            constraints.validate("flight", {"free": -1})

    def test_multiple_constraints_all_checked(self):
        constraints = ConstraintSet()
        constraints.add(NonNegative("t", "a"))
        constraints.add(NonNegative("t", "b"))
        with pytest.raises(ConstraintViolation):
            constraints.validate("t", {"a": 1, "b": -1})

    def test_for_table(self):
        constraints = ConstraintSet()
        constraint = NonNegative("t", "a")
        constraints.add(constraint)
        assert constraints.for_table("t") == (constraint,)
        assert constraints.for_table("other") == ()

    def test_len(self):
        constraints = ConstraintSet()
        constraints.add(NonNegative("t", "a"))
        constraints.add(NonNegative("u", "b"))
        assert len(constraints) == 2

    def test_custom_check(self):
        even = CheckConstraint("t.even", "t",
                               check=lambda row: row["v"] % 2 == 0)
        even.validate({"v": 4})
        with pytest.raises(ConstraintViolation):
            even.validate({"v": 3})
