"""Integrity constraints for the LDBS.

The paper's motivating scenario imposes "precise constraints on important
resources (for example, ``Flight.FreeTickets >= 0``)".  Constraints are
checked at write time and re-checked at commit, which is exactly where
the GTM's reconciliation can fail (paper Section VII, "high rate of
aborts due to the violation of integrity constraints ... during the data
reconciliation process").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import ConstraintViolation

RowLike = Mapping[str, Any]


@dataclass(frozen=True)
class CheckConstraint:
    """A row-level CHECK constraint on one table."""

    name: str
    table: str
    check: Callable[[RowLike], bool]
    description: str = ""

    def validate(self, row: RowLike) -> None:
        """Raise :class:`~repro.errors.ConstraintViolation` on failure."""
        if not self.check(row):
            raise ConstraintViolation(
                self.name,
                detail=self.description or f"row {dict(row)!r} fails check")


def NonNegative(table: str, column: str) -> CheckConstraint:
    """The paper's canonical constraint: ``column >= 0``."""
    return CheckConstraint(
        name=f"{table}.{column}>=0",
        table=table,
        check=lambda row: row[column] is None or row[column] >= 0,
        description=f"{table}.{column} must be >= 0",
    )


class ConstraintSet:
    """All constraints of a database, indexed by table."""

    def __init__(self) -> None:
        self._by_table: dict[str, list[CheckConstraint]] = {}

    def add(self, constraint: CheckConstraint) -> None:
        self._by_table.setdefault(constraint.table, []).append(constraint)

    def for_table(self, table: str) -> tuple[CheckConstraint, ...]:
        return tuple(self._by_table.get(table, ()))

    def validate(self, table: str, row: RowLike) -> None:
        """Check ``row`` against every constraint of ``table``."""
        for constraint in self._by_table.get(table, ()):
            constraint.validate(row)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_table.values())

    def __repr__(self) -> str:
        return f"<ConstraintSet n={len(self)}>"
