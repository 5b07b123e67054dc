"""Heap storage: tables of immutable row versions keyed by rid."""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import StorageError
from repro.ldbs.predicate import ALWAYS, Predicate
from repro.ldbs.rows import Row
from repro.ldbs.schema import TableSchema


class HeapTable:
    """An unordered collection of rows for one table schema.

    The table enforces schema validation and primary-key uniqueness (if
    the schema declares a key) but knows nothing about transactions: the
    transactional layers (:mod:`repro.ldbs.engine` for the LDBS,
    :mod:`repro.core.gtm` above it) coordinate access and drive undo via
    the row versions this class returns.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, Row] = {}
        self._next_rid = 1
        self._key_index: dict[Any, int] | None = (
            {} if schema.primary_key else None)
        #: secondary hash indexes: column -> (value -> set of rids).
        self._indexes: dict[str, dict[Any, set[int]]] = {}

    # -- introspection ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, rid: int) -> bool:
        return rid in self._rows

    def rids(self) -> tuple[int, ...]:
        """All live rids in insertion order."""
        return tuple(self._rows)

    def rows(self) -> tuple[Row, ...]:
        """Every current row version, in :meth:`scan` order, without a
        predicate call per row (what a checkpoint snapshots)."""
        return tuple(self._rows.values())

    # -- point access -------------------------------------------------------

    def get(self, rid: int) -> Row:
        try:
            return self._rows[rid]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no row with rid {rid}") from None

    def rid_of_key(self, key: Any) -> int | None:
        """The rid of the row with primary key ``key``; None: no such row."""
        if self._key_index is None:
            raise StorageError(f"table {self.name!r} has no primary key")
        return self._key_index.get(key)

    def get_by_key(self, key: Any) -> Row:
        """Fetch a row by primary key value."""
        rid = self.rid_of_key(key)
        if rid is None:
            raise StorageError(
                f"table {self.name!r} has no row with key {key!r}")
        return self._rows[rid]

    def has_key(self, key: Any) -> bool:
        return self._key_index is not None and key in self._key_index

    # -- secondary indexes ----------------------------------------------------

    def create_index(self, column: str) -> None:
        """Build a hash index over ``column`` (idempotent)."""
        self.schema.column(column)  # validates the column exists
        if column in self._indexes:
            return
        index: dict[Any, set[int]] = {}
        for rid, row in self._rows.items():
            index.setdefault(row[column], set()).add(rid)
        self._indexes[column] = index

    def drop_index(self, column: str) -> None:
        self._indexes.pop(column, None)

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    def indexed_columns(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    def _index_add(self, row: Row) -> None:
        for column, index in self._indexes.items():
            index.setdefault(row[column], set()).add(row.rid)

    def _index_remove(self, row: Row) -> None:
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is not None:
                bucket.discard(row.rid)
                if not bucket:
                    del index[row[column]]

    def lookup(self, column: str, value: Any) -> list[Row]:
        """Indexed point lookup (raises if no index on ``column``)."""
        try:
            index = self._indexes[column]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no index on {column!r}"
            ) from None
        return [self._rows[rid] for rid in sorted(index.get(value, ()))]

    def candidates(self, predicate: Predicate) -> Iterator[Row]:
        """Rows possibly matching ``predicate``.

        Atomic equality predicates on an indexed column (or the primary
        key) resolve via the index; everything else falls back to a full
        scan.  Callers still re-apply the predicate.
        """
        atom = getattr(predicate, "atom", None)
        if atom is not None:
            column, op, value = atom
            if op == "=":
                if column in self._indexes:
                    yield from self.lookup(column, value)
                    return
                if column == self.schema.primary_key and                         self._key_index is not None:
                    rid = self._key_index.get(value)
                    if rid is not None:
                        yield self._rows[rid]
                    return
        yield from self.scan(predicate)

    # -- scans ---------------------------------------------------------------

    def scan(self, predicate: Predicate = ALWAYS) -> Iterator[Row]:
        """Yield current row versions matching ``predicate``.

        Iterates over a snapshot of the rid set, so callers may insert or
        delete while scanning without corrupting the iteration.
        """
        for rid in tuple(self._rows):
            row = self._rows.get(rid)
            if row is not None and predicate(row):
                yield row

    # -- mutations -----------------------------------------------------------

    def insert(self, values: Mapping[str, Any]) -> Row:
        """Validate and insert a new row; returns the stored version."""
        validated = self.schema.validate_row(values)
        key_column = self.schema.primary_key
        if key_column is not None:
            key = validated[key_column]
            if key in self._key_index:  # type: ignore[operator]
                raise StorageError(
                    f"duplicate key {key!r} for table {self.name!r}")
        rid = self._next_rid
        self._next_rid += 1
        row = Row(rid, validated)
        self._rows[rid] = row
        if key_column is not None:
            self._key_index[validated[key_column]] = rid  # type: ignore[index]
        self._index_add(row)
        return row

    def update(self, rid: int, updates: Mapping[str, Any]) -> tuple[Row, Row]:
        """Apply a partial update; returns ``(before, after)`` versions."""
        before = self._rows.get(rid)
        if before is None:
            before = self.get(rid)  # raises
        validated = self.schema.validate_update(updates)
        key_column = self.schema.primary_key
        rekey = key_column is not None and key_column in validated
        if rekey:
            new_key = validated[key_column]
            if new_key != before[key_column] and new_key in self._key_index:  # type: ignore[operator]
                raise StorageError(
                    f"duplicate key {new_key!r} for table {self.name!r}")
        after = before.replace(validated)
        self._rows[rid] = after
        if rekey:
            del self._key_index[before[key_column]]  # type: ignore[arg-type]
            self._key_index[after[key_column]] = rid  # type: ignore[index]
        if self._indexes:
            self._index_remove(before)
            self._index_add(after)
        return before, after

    def delete(self, rid: int) -> Row:
        """Remove a row; returns the deleted version (for undo)."""
        row = self.get(rid)
        del self._rows[rid]
        if self._key_index is not None:
            self._key_index.pop(row[self.schema.primary_key], None)
        self._index_remove(row)
        return row

    # -- physical restore (recovery / undo paths) ----------------------------

    def restore(self, row: Row) -> None:
        """Put back a specific row version (undo of delete/update).

        Unlike :meth:`insert`, this preserves rid and version and bypasses
        key allocation — it is only for the undo/recovery machinery.
        """
        previous = self._rows.get(row.rid)
        if previous is not None:
            self._index_remove(previous)
            if self._key_index is not None:  # an undone re-key
                self._key_index.pop(previous[self.schema.primary_key], None)
        self._rows[row.rid] = row
        if self._key_index is not None:
            self._key_index[row[self.schema.primary_key]] = row.rid
        self._index_add(row)
        # keep the rid allocator ahead of restored rids
        if row.rid >= self._next_rid:
            self._next_rid = row.rid + 1

    def remove_if_present(self, rid: int) -> None:
        """Undo of an insert: drop the row if it exists."""
        row = self._rows.pop(rid, None)
        if row is not None:
            if self._key_index is not None:
                self._key_index.pop(row[self.schema.primary_key], None)
            self._index_remove(row)

    def clear(self) -> None:
        """Drop all rows (used by recovery before a redo pass)."""
        self._rows.clear()
        if self._key_index is not None:
            self._key_index.clear()
        for index in self._indexes.values():
            index.clear()

    def __repr__(self) -> str:
        return f"<HeapTable {self.name!r} rows={len(self._rows)}>"
