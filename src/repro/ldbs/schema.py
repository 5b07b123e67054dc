"""Typed table schemas for the LDBS."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Column types supported by the LDBS."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"

    def validate(self, value: Any) -> Any:
        """Coerce/validate ``value`` for this type.

        INT accepts bool-free integers; FLOAT accepts ints and floats but
        not NaN and normalizes to float (``-0.0`` to ``0.0``); TEXT
        accepts str; BOOL accepts bool.  ``None`` is handled by the
        column's nullability, not here.
        """
        if self is ColumnType.INT:
            if isinstance(value, bool):
                raise SchemaError(f"expected INT, got {value!r}")
            if isinstance(value, int):
                return value
            # integral floats coerce (reconciled GTM values are floats)
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise SchemaError(f"expected INT, got {value!r}")
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected FLOAT, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise SchemaError(
                    f"expected FLOAT, got a {value.bit_length()}-bit int "
                    f"no float can hold") from None
            if value != value:
                # SQLite stores a bound NaN as NULL
                raise SchemaError(f"expected FLOAT, got {value!r}")
            # + 0.0 turns -0.0 into 0.0, which SQLite reads back anyway
            return value + 0.0
        if self is ColumnType.TEXT:
            if not isinstance(value, str):
                raise SchemaError(f"expected TEXT, got {value!r}")
            return value
        if self is ColumnType.BOOL:
            if not isinstance(value, bool):
                raise SchemaError(f"expected BOOL, got {value!r}")
            return value
        raise SchemaError(f"unknown column type {self!r}")  # pragma: no cover


_MISSING = object()


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type: ColumnType
    nullable: bool = False
    default: Any = _MISSING

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.default is not _MISSING and self.default is not None:
            object.__setattr__(self, "default", self.type.validate(self.default))

    @property
    def has_default(self) -> bool:
        return self.default is not _MISSING

    def validate(self, value: Any) -> Any:
        """Validate a value for this column, honouring nullability."""
        if value is None:
            if self.nullable:
                return None
            raise SchemaError(f"column {self.name!r} is not nullable")
        return self.type.validate(value)


@dataclass(frozen=True)
class TableSchema:
    """A named, ordered set of columns with an optional primary key.

    The primary key is a single column used for uniqueness checks and as
    the *lockable object identity* seen by the GTM (the paper locks at the
    granularity of an object / data member, which maps to (table, key,
    column) here).
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: str | None = None
    _by_name: Mapping[str, Column] = field(init=False, repr=False,
                                           compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid table name {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        by_name: dict[str, Column] = {}
        for column in self.columns:
            if column.name in by_name:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}")
            by_name[column.name] = column
        if self.primary_key is not None and self.primary_key not in by_name:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of "
                f"table {self.name!r}")
        if self.primary_key is not None and by_name[self.primary_key].nullable:
            raise SchemaError(
                f"primary key {self.primary_key!r} must not be nullable")
        object.__setattr__(self, "_by_name", by_name)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def validate_row(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a full row, filling defaults for missing columns.

        Returns a fresh dict in schema column order.  Raises
        :class:`~repro.errors.SchemaError` on unknown columns, missing
        non-defaulted columns, type errors or null violations.
        """
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise SchemaError(
                f"unknown columns for table {self.name!r}: {sorted(unknown)}")
        row: dict[str, Any] = {}
        for column in self.columns:
            if column.name in values:
                row[column.name] = column.validate(values[column.name])
            elif column.has_default:
                row[column.name] = column.default
            elif column.nullable:
                row[column.name] = None
            else:
                raise SchemaError(
                    f"missing value for column {column.name!r} of "
                    f"table {self.name!r}")
        return row

    def validate_update(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a partial update (only the supplied columns)."""
        by_name = self._by_name
        updated: dict[str, Any] = {}
        for name, value in values.items():
            column = by_name.get(name)
            if column is None:
                column = self.column(name)  # raises
            # what Column.validate does with a value that is not None
            updated[name] = (column.validate(value) if value is None
                             else column.type.validate(value))
        return updated
