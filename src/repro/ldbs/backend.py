"""Pluggable LDBS backends: the seam underneath the SST executor.

The paper's Secure System Transactions are "ordinary ACID transactions
against the LDBS"; this module makes the LDBS itself replaceable.  An
:class:`LDBSBackend` is anything that can create tables, open
transactions and answer catalog questions.  :class:`MemoryBackend`
keeps the committed rows in one dict per table, and
:mod:`repro.ldbs.sqlite_backend` runs them on SQLite in WAL mode.

Following libres' design (SNIPPETS.md Snippets 1-2), the transaction
API carries a **read/write path split**: ``begin(write=True)`` is the
serialized write path SSTs must use (``BEGIN IMMEDIATE`` on SQLite —
the writer lock is taken up front, and losing it raises
:class:`~repro.errors.BackendConflictError` for the executor's bounded
retry loop), while ``begin(write=False)`` is the cheaper
default-isolation read path (``BEGIN DEFERRED`` / a WAL snapshot on
SQLite, read-committed on memory).  The conformance suite in
``tests/ldbs`` pins the guarantees the two backends share.

Transactions speak a deliberately narrow, key-oriented dialect
(``has_key`` / ``get_row`` / ``insert`` / ``update_by_key`` /
``delete_by_key``): it is exactly what the SST path needs, and both
backends implement it with honest read-your-own-writes semantics —
the existence probe an upsert makes MUST go through the open
transaction, never around it (a bug the backend-differential harness
found on the SST path; see ``docs/BACKENDS.md``).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from repro.errors import (
    BackendConflictError,
    BackendError,
    CatalogError,
    StorageError,
    TransactionAborted,
)
from repro.ldbs.constraints import CheckConstraint, ConstraintSet
from repro.ldbs.schema import TableSchema

__all__ = [
    "LDBSBackend",
    "BackendTransaction",
    "MemoryBackend",
    "backend_names",
    "create_backend",
]


@runtime_checkable
class BackendTransaction(Protocol):
    """One open ACID transaction against a backend.

    Usable as a context manager: commits on clean exit, aborts on
    exception.  Every read answers *through* the transaction — an
    uncommitted insert is visible to its own ``has_key``/``get_row``.
    ``update_by_key`` and ``delete_by_key`` return the rows touched: 0,
    not an error, and only for a key that is not there (the SST's
    upsert probes with the update itself) — an existing row with
    nothing to change answers 1 and writes nothing.
    """

    txn_id: str

    def has_key(self, table: str, key: Any) -> bool: ...

    def get_row(self, table: str, key: Any) -> dict[str, Any]: ...

    def insert(self, table: str, values: Mapping[str, Any]) -> None: ...

    def update_by_key(self, table: str, key: Any,
                      changes: Mapping[str, Any]) -> int: ...

    def delete_by_key(self, table: str, key: Any) -> int: ...

    def commit(self) -> None: ...

    def abort(self) -> None: ...

    def __enter__(self) -> "BackendTransaction": ...

    def __exit__(self, exc_type, exc, tb) -> bool: ...


@runtime_checkable
class LDBSBackend(Protocol):
    """The LDBS seam: schema, transactions, catalog introspection.

    ``begin(write=True)`` opens the serialized write path (what SSTs
    use); ``begin(write=False)`` the default-isolation read path.
    ``dump()`` returns the committed permanent state in a canonical
    backend-independent form — the differential harness asserts
    byte-identical dumps across backends.  ``crash()`` drops every
    open transaction and returns their ids.  ``seed(table, rows)``
    writes rows, all or none, outside any transaction a caller sees:
    every refusal comes from the call, and the rows are committed by
    the next ``begin``, ``dump``, ``create_table``, ``crash`` or
    ``close`` at the latest (docs/BACKENDS.md §1).
    """

    name: str

    def create_table(self, schema: TableSchema,
                     constraints: Iterable[CheckConstraint] = ()) -> None: ...

    def seed(self, table: str, rows: Iterable[Mapping[str, Any]]) -> None: ...

    def begin(self, txn_id: str | None = None, *,
              write: bool = False) -> BackendTransaction: ...

    def table_names(self) -> tuple[str, ...]: ...

    def key_column(self, table: str) -> str | None: ...

    def dump(self) -> dict[str, dict[Any, dict[str, Any]]]: ...

    def crash(self) -> tuple[str, ...]: ...

    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# the in-memory default backend
# ---------------------------------------------------------------------------

#: ``overlay.get`` default: this transaction has not written the key.
_UNWRITTEN = object()


class _MemoryTransaction:
    """One transaction on a :class:`MemoryBackend`.

    Its writes go into an overlay (table -> key -> row, ``None`` for a
    deleted key) that commit applies to the committed rows and abort
    drops.  Reads look in the overlay first, then at the committed
    rows: read-your-own-writes, and read-committed for everyone else.
    """

    def __init__(self, backend: "MemoryBackend", txn_id: str) -> None:
        self._backend = backend
        self.txn_id = txn_id
        #: True while this transaction holds the backend's writer slot.
        self.write = False
        #: the overlay; None once the transaction has finished.
        self._writes: dict[str, dict[Any, dict[str, Any] | None]] | None = {}

    # -- reads (through the open transaction) -------------------------------

    def _row(self, table: str, key: Any) -> dict[str, Any] | None:
        """The row under ``key`` as this transaction sees it."""
        writes = self._writes
        if writes is None:
            raise TransactionAborted(self.txn_id, reason="already finished")
        overlay = writes.get(table)
        if overlay is not None:
            row = overlay.get(key, _UNWRITTEN)
            if row is not _UNWRITTEN:
                return row
        try:
            return self._backend._rows[table].get(key)
        except KeyError:
            raise CatalogError(f"table {table!r} does not exist") from None

    def has_key(self, table: str, key: Any) -> bool:
        return self._row(table, key) is not None

    def get_row(self, table: str, key: Any) -> dict[str, Any]:
        row = self._row(table, key)
        if row is None:
            raise StorageError(
                f"table {table!r} has no row with key {key!r}")
        return dict(row)

    # -- writes -------------------------------------------------------------

    def _overlay(self, table: str) -> dict[Any, dict[str, Any] | None]:
        """This transaction's writes to ``table``.  A read transaction
        that writes takes the writer slot first, as SQLite's deferred
        ``BEGIN`` takes the write lock at its first write."""
        if not self.write:
            self._backend._claim_writer(self)
        overlay = self._writes.get(table)
        if overlay is None:
            overlay = self._writes[table] = {}
        return overlay

    def insert(self, table: str, values: Mapping[str, Any]) -> None:
        """Insert a row: its constraints are checked before its key, as
        on SQLite."""
        backend = self._backend
        schema = backend._schema(table)
        row = schema.validate_row(values)
        backend.constraints.validate(table, row)
        key = row[schema.primary_key]
        if self._row(table, key) is not None:
            raise StorageError(
                f"duplicate key {key!r} for table {table!r}")
        self._overlay(table)[key] = row

    def update_by_key(self, table: str, key: Any,
                      changes: Mapping[str, Any]) -> int:
        backend = self._backend
        schema = backend._schema(table)
        updated = schema.validate_update(changes)
        current = self._row(table, key)
        if current is None:
            return 0
        if not updated:
            return 1
        row = {**current, **updated}
        backend.constraints.validate(table, row)
        key_column = schema.primary_key
        old_key, new_key = current[key_column], row[key_column]
        if new_key != old_key and self._row(table, new_key) is not None:
            raise StorageError(
                f"duplicate key {new_key!r} for table {table!r}")
        overlay = self._overlay(table)
        if new_key != old_key:
            overlay[old_key] = None
        overlay[new_key] = row
        return 1

    def delete_by_key(self, table: str, key: Any) -> int:
        current = self._row(table, key)
        if current is None:
            return 0
        key_column = self._backend._schemas[table].primary_key
        self._overlay(table)[current[key_column]] = None
        return 1

    # -- completion ---------------------------------------------------------

    def _finish(self) -> dict[str, dict[Any, dict[str, Any] | None]]:
        writes = self._writes
        if writes is None:
            raise TransactionAborted(self.txn_id, reason="already finished")
        self._writes = None
        self._backend._transaction_finished(self)
        return writes

    def commit(self) -> None:
        for table, overlay in self._finish().items():
            rows = self._backend._rows[table]
            for key, row in overlay.items():
                if row is None:
                    rows.pop(key, None)
                else:
                    rows[key] = row

    def abort(self) -> None:
        self._finish()

    def __enter__(self) -> "_MemoryTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._writes is not None:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


def _closed_error() -> BackendError:
    return BackendError("memory backend is closed")


class MemoryBackend:
    """The LDBS in memory: one dict of rows per table, by primary key.

    One writer at a time: a second ``begin(write=True)`` while one is
    open raises :class:`~repro.errors.BackendConflictError` at begin,
    as SQLite's busy ``BEGIN IMMEDIATE`` does.  Readers never wait and
    read committed rows.  Nothing is ever undone: abort and
    :meth:`crash` drop the overlay the writer would have applied.
    :meth:`seed` opens no transaction: it writes committed rows.
    """

    name = "memory"

    def __init__(self) -> None:
        self._schemas: dict[str, TableSchema] = {}
        #: table -> primary key -> committed row.
        self._rows: dict[str, dict[Any, dict[str, Any]]] = {}
        self.constraints = ConstraintSet()
        self._ids = itertools.count(1)
        #: open transactions, in begin order.
        self._open: dict[_MemoryTransaction, None] = {}
        self._writer: _MemoryTransaction | None = None
        self._closed = False

    # -- schema / seeding ---------------------------------------------------

    def create_table(self, schema: TableSchema,
                     constraints: Iterable[CheckConstraint] = ()) -> None:
        if self._closed:
            raise _closed_error()
        if schema.name in self._schemas:
            raise CatalogError(f"table {schema.name!r} already exists")
        if schema.primary_key is None:
            raise BackendError(
                f"table {schema.name!r} has no primary key; the memory "
                f"backend stores rows by key")
        self._schemas[schema.name] = schema
        self._rows[schema.name] = {}
        for constraint in constraints:
            if constraint.table not in self._schemas:
                raise CatalogError(
                    f"constraint targets unknown table "
                    f"{constraint.table!r}")
            self.constraints.add(constraint)

    def seed(self, table: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """Write rows straight into the committed rows, all or none.

        Each row is judged as ``insert`` judges it (schema, constraints,
        then key, against the committed rows and this call's earlier
        rows); no transaction is opened.  An open writer refuses the
        seed as it refuses a second writer."""
        if self._closed:
            raise _closed_error()
        if self._writer is not None:
            raise BackendConflictError(
                f"memory backend busy: {self._writer.txn_id!r} is "
                f"writing; a seed cannot")
        schema = self._schema(table)
        committed = self._rows[table]
        key_column = schema.primary_key
        validate = self.constraints.validate
        staged: dict[Any, dict[str, Any]] = {}
        for values in rows:
            row = schema.validate_row(values)
            validate(table, row)
            key = row[key_column]
            if key in committed or key in staged:
                raise StorageError(
                    f"duplicate key {key!r} for table {table!r}")
            staged[key] = row
        committed.update(staged)

    # -- transactions -------------------------------------------------------

    def begin(self, txn_id: str | None = None, *,
              write: bool = False) -> _MemoryTransaction:
        if self._closed:
            raise _closed_error()
        if txn_id is None:
            txn_id = f"memory-{next(self._ids)}"
        txn = _MemoryTransaction(self, txn_id)
        if write:
            self._claim_writer(txn)
        self._open[txn] = None
        return txn

    def _claim_writer(self, txn: _MemoryTransaction) -> None:
        if self._writer is not None:
            raise BackendConflictError(
                f"memory backend busy: {self._writer.txn_id!r} is "
                f"writing; {txn.txn_id!r} cannot")
        self._writer = txn
        txn.write = True

    def _transaction_finished(self, txn: _MemoryTransaction) -> None:
        del self._open[txn]
        if self._writer is txn:
            self._writer = None

    # -- catalog introspection ----------------------------------------------

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._schemas)

    def _schema(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise CatalogError(f"table {table!r} does not exist") from None

    def key_column(self, table: str) -> str | None:
        return self._schema(table).primary_key

    # -- state / lifecycle --------------------------------------------------

    def dump(self) -> dict[str, dict[Any, dict[str, Any]]]:
        """Committed permanent state, canonically ordered by key."""
        if self._closed:
            raise _closed_error()
        return {name: {key: dict(rows[key]) for key in sorted(rows, key=repr)}
                for name, rows in self._rows.items()}

    def crash(self) -> tuple[str, ...]:
        """Simulate a crash: every open transaction is lost with its
        overlay, the committed rows survive.  Returns the lost ids."""
        lost = tuple(txn.txn_id for txn in self._open)
        for txn in self._open:
            txn._writes = None
        self._open.clear()
        self._writer = None
        return lost

    def close(self) -> None:
        """Lose every open transaction and let go of the committed rows,
        as a closed SQLite backend removes its file.  A closed backend
        refuses ``create_table``, ``begin``, ``seed`` and ``dump``."""
        self.crash()
        self._rows = {}
        self._closed = True

    def __repr__(self) -> str:
        return (f"<MemoryBackend tables={sorted(self._schemas)} "
                f"open={len(self._open)}>")


# ---------------------------------------------------------------------------
# the backend registry
# ---------------------------------------------------------------------------


def backend_names() -> tuple[str, ...]:
    """Names accepted by :func:`create_backend` (and GTMConfig)."""
    return ("memory", "sqlite")


def create_backend(name: str, **kwargs: Any) -> "LDBSBackend":
    """Build a backend by registry name (``memory`` or ``sqlite``).

    Extra keyword arguments go to the backend constructor (e.g.
    ``path=...`` for SQLite).  Unknown names raise
    :class:`~repro.errors.BackendError`.
    """
    if name == "memory":
        return MemoryBackend(**kwargs)
    if name == "sqlite":
        from repro.ldbs.sqlite_backend import SQLiteBackend
        return SQLiteBackend(**kwargs)
    raise BackendError(
        f"unknown LDBS backend {name!r}; expected one of {backend_names()}")
