"""Pluggable LDBS backends: the seam underneath the SST executor.

The paper's Secure System Transactions are "ordinary ACID transactions
against the LDBS"; this module makes the LDBS itself replaceable.  An
:class:`LDBSBackend` is anything that can create tables, open
transactions and answer catalog questions; the default implementation
(:class:`MemoryBackend`) wraps the in-memory strict-2PL engine
(:class:`~repro.ldbs.engine.Database`), and
:mod:`repro.ldbs.sqlite_backend` provides a real-database
implementation on SQLite in WAL mode.

Following libres' design (SNIPPETS.md Snippets 1-2), the transaction
API carries a **read/write path split**: ``begin(write=True)`` is the
serialized write path SSTs must use (``BEGIN IMMEDIATE`` on SQLite —
the writer lock is taken up front, and losing it raises
:class:`~repro.errors.BackendConflictError` for the executor's bounded
retry loop), while ``begin(write=False)`` is the cheaper
default-isolation read path (``BEGIN DEFERRED`` / a WAL snapshot).
The in-memory engine has a single strict-2PL path, so it accepts and
ignores the flag; the conformance suite in ``tests/ldbs`` pins the
guarantees the two paths share.

Transactions speak a deliberately narrow, key-oriented dialect
(``has_key`` / ``get_row`` / ``insert`` / ``update_by_key`` /
``delete_by_key``): it is exactly what the SST path needs, and both
backends implement it with honest read-your-own-writes semantics —
the existence probe an upsert makes MUST go through the open
transaction, never around it (a bug the backend-differential harness
found on the SST path; see ``docs/BACKENDS.md``).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from repro.errors import BackendError, StorageError
from repro.ldbs.constraints import CheckConstraint
from repro.ldbs.engine import Database, Transaction, TxnStatus
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
    byte-identical dumps across backends.
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

    def crash(self) -> Any: ...

    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# the in-memory default backend
# ---------------------------------------------------------------------------


class _MemoryTransaction:
    """Key-oriented adapter over the engine's :class:`Transaction`."""

    def __init__(self, backend: "MemoryBackend", txn: Transaction) -> None:
        self._backend = backend
        self._txn = txn
        self.txn_id = txn.txn_id

    def has_key(self, table: str, key: Any) -> bool:
        # probe through the transaction: an S lock on the row (upgraded
        # to X by a following update), and read-your-own-writes since
        # the heap is single-copy and mutated in place.
        try:
            self._txn.get_by_key(table, key)
        except StorageError:
            return False
        return True

    def get_row(self, table: str, key: Any) -> dict[str, Any]:
        return dict(self._txn.get_by_key(table, key).as_dict())

    def insert(self, table: str, values: Mapping[str, Any]) -> None:
        self._txn.insert(table, values)

    def update_by_key(self, table: str, key: Any,
                      changes: Mapping[str, Any]) -> int:
        if not changes:
            return int(self.has_key(table, key))
        return int(self._txn.update_by_key(table, key, changes) is not None)

    def delete_by_key(self, table: str, key: Any) -> int:
        return self._txn.delete_by_key(table, key)

    def commit(self) -> None:
        self._txn.commit()
        self._backend._transaction_finished()

    def abort(self) -> None:
        self._txn.abort()
        self._backend._transaction_finished()

    def __enter__(self) -> "_MemoryTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        txn = self._txn
        if txn.status is TxnStatus.ACTIVE:
            if exc_type is None:
                txn.commit()
            else:
                txn.abort()
        self._backend._transaction_finished()
        return False


#: WAL records after which the memory backend checkpoints the engine
#: at the next quiescent moment.  SQLite's ``wal_autocheckpoint``
#: default (there in pages); a constant, not a knob.
WAL_AUTOCHECKPOINT = 1000


class MemoryBackend:
    """The in-memory strict-2PL engine behind the backend protocol.

    Wraps an existing :class:`~repro.ldbs.engine.Database` (or creates
    a fresh one).  Strict 2PL has no cheaper read path, so the
    ``write`` flag is accepted and ignored — every transaction runs at
    the engine's single (serializable) isolation level.

    The engine's WAL is bounded here: a transaction that finishes with
    :data:`WAL_AUTOCHECKPOINT` or more records logged and no other
    transaction open takes the engine's quiesced checkpoint (snapshot
    every table, truncate the log), so a long-lived service retains
    the rows and a bounded log suffix, not its whole write history.
    """

    name = "memory"

    def __init__(self, database: Database | None = None) -> None:
        self.database = database or Database()

    # -- schema / seeding ---------------------------------------------------

    def create_table(self, schema: TableSchema,
                     constraints: Iterable[CheckConstraint] = ()) -> None:
        self.database.create_table(schema, constraints=constraints)

    def seed(self, table: str, rows: Iterable[Mapping[str, Any]]) -> None:
        self.database.seed(table, rows)
        self._transaction_finished()

    # -- transactions -------------------------------------------------------

    def begin(self, txn_id: str | None = None, *,
              write: bool = False) -> _MemoryTransaction:
        return _MemoryTransaction(self, self.database.begin(txn_id))

    def _transaction_finished(self) -> None:
        """Checkpoint once the WAL is long enough and nothing is open."""
        database = self.database
        if (len(database.wal) >= WAL_AUTOCHECKPOINT
                and not database.open_transactions()):
            database.checkpoint()

    # -- catalog introspection ----------------------------------------------

    def table_names(self) -> tuple[str, ...]:
        return self.database.catalog.table_names()

    def key_column(self, table: str) -> str | None:
        return self.database.catalog.table(table).schema.primary_key

    # -- state / lifecycle --------------------------------------------------

    def dump(self) -> dict[str, dict[Any, dict[str, Any]]]:
        """Committed permanent state, canonically ordered by key."""
        state: dict[str, dict[Any, dict[str, Any]]] = {}
        for table in self.database.catalog:
            column = table.schema.primary_key
            rows = [dict(row.as_dict()) for row in table.scan()]
            if column is not None:
                rows.sort(key=lambda row: repr(row[column]))
                state[table.name] = {row[column]: row for row in rows}
            else:
                state[table.name] = {rid: dict(table.get(rid).as_dict())
                                     for rid in table.rids()}
        return state

    def crash(self) -> Any:
        """Simulated crash + WAL recovery (open transactions are lost)."""
        return self.database.crash()

    def close(self) -> None:
        """Nothing to release for the in-memory engine."""

    def __repr__(self) -> str:
        return f"<MemoryBackend {self.database!r}>"


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
