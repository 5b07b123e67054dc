"""SQLite LDBS backend: WAL mode, manual transactions, read/write split.

This is the first *real database* behind the SST path (ROADMAP open
item 1).  Design, following ``travel_dbms`` and libres (SNIPPETS.md):

- **Manual transaction control** — connections open with
  ``isolation_level=None`` so the stdlib driver never issues implicit
  BEGINs; every transaction boundary in this module is explicit.
- **WAL journal mode** — committed state lives in the main file + WAL;
  a crash (simulated here by dropping connections mid-transaction)
  loses exactly the uncommitted work, nothing else.
- **Read/write path split** — ``begin(write=True)`` (the SST path)
  issues ``BEGIN IMMEDIATE``: the writer lock is taken up front, so a
  losing writer fails *at begin* instead of deadlocking mid-commit.
  ``begin(write=False)`` issues plain ``BEGIN`` (deferred): a snapshot
  read at default isolation that never blocks, and never blocks the
  writer, under WAL.
- **One long-lived writer connection** — the GTM has already
  serialized the commits, so the write path does not pay connection
  set-up, statement re-preparation and a close-time WAL checkpoint per
  SST.  The first ``begin(write=True)`` opens the writer; finishing a
  write transaction (commit, abort, or a failed COMMIT/ROLLBACK)
  releases it for the next one instead of closing it, unless it is
  somehow still inside a transaction, in which case it is closed and
  the next ``begin`` opens a fresh one.  ``crash()`` and ``close()``
  hard-close it with every other connection.  A *second concurrent*
  writer finds the slot empty and opens its own connection, so two
  ``BEGIN IMMEDIATE`` writers genuinely race and SQLite itself refuses
  the loser at begin — which is what lets the conformance suite pin
  conflict semantics without threads.  Readers (``begin(write=False)``,
  ``dump()``) open a fresh snapshot connection each.  The writer
  belongs to the thread that first used it: connections keep
  sqlite3's ``check_same_thread`` default, so misuse from another
  thread raises instead of sharing a connection silently.
- **A seed writes rows, not transactions** — ``seed()`` runs its
  INSERTs at the call, in one write transaction it keeps open on the
  writer connection (a call of several rows under a SAVEPOINT, so it
  lands whole or not at all), and the next ``begin``, ``dump``,
  ``create_table``, ``crash`` or ``close`` commits it: seeding *N*
  objects one call each is ``BEGIN IMMEDIATE``, *N* INSERTs, ``COMMIT``.
- **Flush policy** — every connection, the writer included, comes from
  :meth:`SQLiteBackend._connect` and runs at SQLite's default
  ``synchronous=FULL``: a commit is on disk when ``commit()`` returns.
  (The pragma is per connection; nothing here lowers it.)
- **Error mapping into the repro taxonomy** — ``database is locked`` /
  busy becomes :class:`~repro.errors.BackendConflictError` (retryable,
  the ``TransactionRollbackError`` analogue); UNIQUE violations become
  :class:`~repro.errors.StorageError` like the memory backend's
  duplicate-key error; CHECK-style constraints are validated in Python
  *before* the SQL executes, via the same :class:`~repro.ldbs.constraints`
  machinery the memory backend uses, so both backends raise the
  same :class:`~repro.errors.ConstraintViolation` at the same point.

Values are validated through the :class:`~repro.ldbs.schema` layer on
the way in and re-canonicalized (BOOL columns round-trip through
INTEGER) on the way out, so ``dump()`` is byte-comparable with the
in-memory backend's — the property the backend-differential harness
enforces over the fuzz corpus.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
from functools import lru_cache
from typing import Any, Iterable, Mapping

from repro.errors import (
    BackendConflictError,
    BackendError,
    CatalogError,
    StorageError,
    TransactionAborted,
)
from repro.ldbs.constraints import CheckConstraint, ConstraintSet
from repro.ldbs.schema import ColumnType, TableSchema

__all__ = ["SQLiteBackend", "SQLiteTransaction"]

_SQL_TYPES = {
    ColumnType.INT: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.TEXT: "TEXT",
    ColumnType.BOOL: "INTEGER",
}

#: sqlite3.OperationalError texts that mean "you lost the race, retry".
_BUSY_MARKERS = ("database is locked", "database is busy",
                 "database table is locked")


def _map_operational(exc: sqlite3.OperationalError) -> Exception:
    text = str(exc).lower()
    if any(marker in text for marker in _BUSY_MARKERS):
        return BackendConflictError(
            f"sqlite serialization conflict: {exc}")
    return BackendError(f"sqlite operational error: {exc}")


def _no_primary_key(table: str) -> BackendError:
    return BackendError(
        f"table {table!r} has no primary key; key-oriented "
        f"backend operations need one")


@lru_cache(maxsize=256)
def _update_sql(table: str, key_column: str | None,
                names: tuple[str, ...]) -> str:
    """The keyed UPDATE of one (table, column set), built once."""
    if key_column is None:
        raise _no_primary_key(table)
    assignments = ", ".join(f'"{name}" = ?' for name in names)
    return f'UPDATE "{table}" SET {assignments} WHERE "{key_column}" = ?'


@lru_cache(maxsize=256)
def _insert_sql(table: str, names: tuple[str, ...]) -> str:
    """The INSERT of one (table, column set), built once."""
    columns = ", ".join(f'"{name}"' for name in names)
    slots = ", ".join("?" * len(names))
    return f'INSERT INTO "{table}" ({columns}) VALUES ({slots})'


class SQLiteTransaction:
    """One explicit SQLite transaction on a connection it holds until
    it finishes."""

    def __init__(self, backend: "SQLiteBackend", txn_id: str,
                 connection: sqlite3.Connection, write: bool) -> None:
        self._backend = backend
        self._conn: sqlite3.Connection | None = connection
        self.txn_id = txn_id
        self.write = write

    # -- plumbing -----------------------------------------------------------

    def _require_open(self) -> sqlite3.Connection:
        if self._conn is None:
            raise TransactionAborted(self.txn_id, reason="already finished")
        return self._conn

    def _execute(self, sql: str, params: Any = (),
                 many: bool = False) -> sqlite3.Cursor:
        conn = self._require_open()
        try:
            if many:
                return conn.executemany(sql, params)
            return conn.execute(sql, params)
        except sqlite3.OperationalError as exc:
            raise _map_operational(exc) from exc
        except sqlite3.IntegrityError as exc:
            raise StorageError(f"sqlite integrity error: {exc}") from exc

    # -- reads (through the open transaction) -------------------------------

    def has_key(self, table: str, key: Any) -> bool:
        column = self._backend._key_column_required(table)
        cursor = self._execute(
            f'SELECT 1 FROM "{table}" WHERE "{column}" = ? LIMIT 1',
            (key,))
        return cursor.fetchone() is not None

    def get_row(self, table: str, key: Any) -> dict[str, Any]:
        schema = self._backend._schema(table)
        column = self._backend._key_column_required(table)
        cursor = self._execute(
            f'SELECT * FROM "{table}" WHERE "{column}" = ?', (key,))
        raw = cursor.fetchone()
        if raw is None:
            raise StorageError(
                f"table {table!r} has no row with key {key!r}")
        return self._backend._from_sql(schema, raw)

    # -- writes -------------------------------------------------------------

    def insert(self, table: str, values: Mapping[str, Any]) -> None:
        backend = self._backend
        row = backend._schema(table).validate_row(values)
        backend.constraints.validate(table, row)
        self._execute(_insert_sql(table, tuple(row)), tuple(row.values()))

    def update_by_key(self, table: str, key: Any,
                      changes: Mapping[str, Any]) -> int:
        backend = self._backend
        schema = backend._schema(table)
        updated = schema.validate_update(changes)
        if not updated:
            return int(self.has_key(table, key))
        if backend.constraints.for_table(table):
            # validate the post-image exactly like the memory backend:
            # current row (read through this transaction) +
            # changes.  Only a constrained table pays for the read; the
            # UPDATE's own rowcount says whether the key was there.
            try:
                current = self.get_row(table, key)
            except StorageError:
                return 0  # no such row: nothing to update, not an error
            current.update(updated)
            backend.constraints.validate(table, current)
        cursor = self._execute(
            _update_sql(table, schema.primary_key, tuple(updated)),
            (*updated.values(), key))
        return cursor.rowcount

    def delete_by_key(self, table: str, key: Any) -> int:
        column = self._backend._key_column_required(table)
        cursor = self._execute(
            f'DELETE FROM "{table}" WHERE "{column}" = ?', (key,))
        return cursor.rowcount

    # -- completion ---------------------------------------------------------

    def commit(self) -> None:
        conn = self._require_open()
        try:
            conn.execute("COMMIT")
        except sqlite3.OperationalError as exc:
            self.abort()
            raise _map_operational(exc) from exc
        self._finish(committed=True)

    def abort(self) -> None:
        conn = self._require_open()
        try:
            conn.execute("ROLLBACK")
        except sqlite3.OperationalError:
            # SQLite rolled back by itself ("no transaction is active"),
            # or cannot now; a connection still inside a transaction is
            # closed by the backend, which rolls back as well.
            pass
        self._finish(committed=False)

    def _finish(self, committed: bool) -> None:
        conn = self._conn
        self._conn = None
        self._backend._transaction_finished(self, conn,
                                            committed=committed)

    def __enter__(self) -> "SQLiteTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._conn is not None:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    def __repr__(self) -> str:
        state = "open" if self._conn is not None else "finished"
        mode = "write" if self.write else "read"
        return f"<SQLiteTransaction {self.txn_id!r} {mode} {state}>"


class SQLiteBackend:
    """The LDBS on SQLite: WAL mode, one long-lived writer connection."""

    name = "sqlite"

    def __init__(self, path: str | os.PathLike[str] | None = None,
                 busy_timeout_ms: int = 0) -> None:
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-ldbs-",
                                            suffix=".sqlite")
            os.close(handle)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = str(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._schemas: dict[str, TableSchema] = {}
        self.constraints = ConstraintSet()
        self._txn_counter = 0
        self._open: list[SQLiteTransaction] = []
        self._open_conns: dict[int, sqlite3.Connection] = {}
        #: the idle writer connection (None while a write transaction
        #: holds it, and before the first one).
        self._writer: sqlite3.Connection | None = None
        #: the write transaction ``seed`` has staged its rows in, until
        #: the next begin, dump, create_table, crash or close commits it.
        self._seeding: SQLiteTransaction | None = None
        self.commits = 0
        self.aborts = 0
        self._closed = False
        # establish (persistent) WAL mode once, up front.
        conn = self._connect()
        try:
            mode = conn.execute("PRAGMA journal_mode=WAL").fetchone()[0]
            if mode.lower() != "wal":
                raise BackendError(
                    f"could not enable WAL mode on {self.path!r} "
                    f"(got {mode!r})")
        finally:
            conn.close()

    # -- connections --------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._closed:
            raise BackendError(f"backend {self.path!r} is closed")
        try:
            conn = sqlite3.connect(self.path, isolation_level=None,
                                   timeout=self.busy_timeout_ms / 1000.0)
        except sqlite3.OperationalError as exc:  # pragma: no cover
            raise BackendError(
                f"cannot open sqlite database {self.path!r}: {exc}"
            ) from exc
        conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
        return conn

    # -- schema / seeding ---------------------------------------------------

    def create_table(self, schema: TableSchema,
                     constraints: Iterable[CheckConstraint] = ()) -> None:
        if self._seeding is not None:
            self._commit_seed()     # the DDL needs the write lock
        if schema.name in self._schemas:
            raise CatalogError(f"table {schema.name!r} already exists")
        columns = []
        for column in schema.columns:
            sql = f'"{column.name}" {_SQL_TYPES[column.type]}'
            if not column.nullable and column.name != schema.primary_key:
                sql += " NOT NULL"
            columns.append(sql)
        if schema.primary_key is not None:
            columns.append(f'PRIMARY KEY ("{schema.primary_key}")')
        ddl = f'CREATE TABLE "{schema.name}" ({", ".join(columns)})'
        conn = self._connect()
        try:
            conn.execute(ddl)
        except sqlite3.OperationalError as exc:
            raise _map_operational(exc) from exc
        finally:
            conn.close()
        self._schemas[schema.name] = schema
        for constraint in constraints:
            self.add_constraint(constraint)

    def add_constraint(self, constraint: CheckConstraint) -> None:
        if constraint.table not in self._schemas:
            raise CatalogError(
                f"constraint targets unknown table {constraint.table!r}")
        self.constraints.add(constraint)

    def seed(self, table: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """INSERT rows now, all or none; COMMIT them with the next
        ``begin``, ``dump``, ``create_table``, ``crash`` or ``close``.

        Rows are judged as ``insert`` judges them, and the INSERTs run
        here, so a bad row or a duplicate key (committed or staged)
        raises from this call.  Consecutive seeds share one write
        transaction: a row costs an INSERT, not a COMMIT."""
        schema = self._schema(table)
        validate = self.constraints.validate
        params = []
        for values in rows:
            row = schema.validate_row(values)
            validate(table, row)
            params.append(tuple(row.values()))
        txn = self._seeding
        if txn is None:
            txn = self._seeding = self.begin(write=True)
        # every validated row has the schema's columns, in its order
        if len(params) == 1:
            txn._execute(_insert_sql(table, tuple(row)), params[0])
        elif params:
            txn._execute("SAVEPOINT seed")
            try:
                txn._execute(_insert_sql(table, tuple(row)), params,
                             many=True)
            except Exception:
                txn._execute("ROLLBACK TO seed")
                raise
            finally:
                txn._execute("RELEASE seed")

    def _commit_seed(self) -> None:
        """Commit the staged seed.  A failed COMMIT rolls it back, frees
        the write path, and raises :class:`~repro.errors.BackendError`
        whatever SQLite called it: the rows are lost, not retryable."""
        txn, self._seeding = self._seeding, None
        try:
            txn.commit()
        except (BackendError, BackendConflictError) as exc:
            raise BackendError(
                f"seeded rows were rolled back: {exc}") from exc

    # -- transactions -------------------------------------------------------

    def begin(self, txn_id: str | None = None, *,
              write: bool = False) -> SQLiteTransaction:
        if self._seeding is not None:
            self._commit_seed()
        self._txn_counter += 1
        if txn_id is None:
            txn_id = f"sqlite-{self._txn_counter}"
        conn = None
        if write:
            conn, self._writer = self._writer, None
        if conn is None:
            conn = self._connect()
        try:
            conn.execute("BEGIN IMMEDIATE" if write else "BEGIN")
        except sqlite3.OperationalError as exc:
            conn.close()
            raise _map_operational(exc) from exc
        txn = SQLiteTransaction(self, txn_id, conn, write=write)
        self._open.append(txn)
        self._open_conns[id(txn)] = conn
        return txn

    def _transaction_finished(self, txn: SQLiteTransaction,
                              conn: sqlite3.Connection | None,
                              committed: bool) -> None:
        if txn in self._open:
            self._open.remove(txn)
        self._open_conns.pop(id(txn), None)
        if conn is not None:
            if txn.write and self._writer is None \
                    and not conn.in_transaction:
                self._writer = conn
            else:
                conn.close()
        if committed:
            self.commits += 1
        else:
            self.aborts += 1

    def open_transactions(self) -> tuple[str, ...]:
        return tuple(txn.txn_id for txn in self._open)

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

    def _key_column_required(self, table: str) -> str:
        column = self.key_column(table)
        if column is None:
            raise _no_primary_key(table)
        return column

    # -- value canonicalization ---------------------------------------------

    @staticmethod
    def _from_sql(schema: TableSchema, raw: tuple) -> dict[str, Any]:
        row: dict[str, Any] = {}
        for column, value in zip(schema.columns, raw):
            if value is not None and column.type is ColumnType.BOOL:
                value = bool(value)
            row[column.name] = value
        return row

    # -- state / lifecycle --------------------------------------------------

    def dump(self) -> dict[str, dict[Any, dict[str, Any]]]:
        """Committed permanent state, canonically ordered by key.

        Read on a fresh snapshot connection, so open transactions'
        uncommitted work is invisible — exactly the memory backend's
        dump of its committed rows.  A staged seed is committed first.
        """
        if self._seeding is not None:
            self._commit_seed()
        state: dict[str, dict[Any, dict[str, Any]]] = {}
        conn = self._connect()
        try:
            for name, schema in self._schemas.items():
                cursor = conn.execute(f'SELECT * FROM "{name}"')
                rows = [self._from_sql(schema, raw)
                        for raw in cursor.fetchall()]
                column = schema.primary_key
                if column is not None:
                    rows.sort(key=lambda row: repr(row[column]))
                    state[name] = {row[column]: row for row in rows}
                else:
                    state[name] = {index: row
                                   for index, row in enumerate(rows, 1)}
        finally:
            conn.close()
        return state

    def crash(self) -> tuple[str, ...]:
        """Simulate a crash: hard-close every connection, the idle
        writer included, without COMMIT.

        SQLite's WAL recovery then does the real work on the next
        connection: committed transactions survive, uncommitted ones
        vanish.  Seeded rows are committed first, so they survive and
        are not among the returned ids of the transactions that were
        lost.
        """
        lost = []
        try:
            if self._seeding is not None:
                self._commit_seed()
        finally:
            for txn in list(self._open):
                conn = self._open_conns.pop(id(txn), None)
                if conn is not None:
                    # a hard close without COMMIT == the process dying.
                    conn.close()
                txn._conn = None
                lost.append(txn.txn_id)
                self.aborts += 1
            self._open.clear()
            if self._writer is not None:
                self._writer.close()
                self._writer = None
        return tuple(lost)

    def close(self) -> None:
        """Release every connection and (for owned temp files) the file."""
        if self._closed:
            return
        try:
            self.crash()
        finally:
            self._closed = True
            if self._owns_file:
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(self.path + suffix)
                    except OSError:
                        pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (f"<SQLiteBackend {self.path!r} "
                f"tables={sorted(self._schemas)} "
                f"commits={self.commits} aborts={self.aborts}>")
