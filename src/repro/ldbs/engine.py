"""The Database facade: strict-2PL ACID transactions over the LDBS.

This is the synchronous engine underneath the GTM: Secure System
Transactions (SSTs) execute here as ordinary transactions.  Multiple
transactions may be *open* and interleaved (the unit tests and the
failure-injection bench do this); a lock request that cannot be granted
immediately raises :class:`~repro.errors.LockConflictError` after the
wait edge has been checked for deadlock — the discrete-event schedulers
in :mod:`repro.schedulers` are the place where waiting is simulated.

Guarantees:

- **Atomicity** — abort (explicit or crash) undoes every effect via the
  WAL (:mod:`repro.ldbs.recovery`).
- **Consistency** — CHECK constraints validate every write and are
  re-validated at commit.
- **Isolation** — strict 2PL: S locks for reads, X locks for writes, all
  held to commit/abort.
- **Durability** — a simulated :meth:`Database.crash` rebuilds committed
  state from the WAL.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NoReturn

from repro.errors import (
    ConstraintViolation,
    DeadlockError,
    LockConflictError,
    TransactionAborted,
    TransactionError,
)
from repro.ldbs.catalog import Catalog
from repro.ldbs.constraints import CheckConstraint, ConstraintSet
from repro.ldbs.deadlock import DeadlockDetector, VictimPolicy
from repro.ldbs.locks import LockManager, LockMode
from repro.ldbs.predicate import ALWAYS, Predicate
from repro.ldbs.recovery import RecoveryManager, RecoveryReport
from repro.ldbs.rows import Row
from repro.ldbs.schema import TableSchema
from repro.ldbs.storage import HeapTable
from repro.ldbs.wal import WriteAheadLog


@dataclass(frozen=True)
class DatabaseConfig:
    """Tunables for the LDBS engine."""

    victim_policy: VictimPolicy = VictimPolicy.YOUNGEST
    #: Validate constraints on every write (True) or only at commit.
    eager_constraints: bool = True


class TxnStatus(enum.Enum):
    """Lifecycle of an LDBS transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A strict-2PL transaction handle.

    Obtained from :meth:`Database.begin`; usable as a context manager
    (commits on clean exit, aborts on exception)::

        with db.begin() as txn:
            txn.update("flight", P("id") == 1,
                       lambda row: {"free": row["free"] - 1})
    """

    def __init__(self, database: "Database", txn_id: str,
                 start_time: float) -> None:
        self._db = database
        self.txn_id = txn_id
        self.start_time = start_time
        self.status = TxnStatus.ACTIVE

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status is TxnStatus.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    # -- queries ---------------------------------------------------------------

    def select(self, table: str,
               predicate: Predicate = ALWAYS) -> list[Row]:
        """Read matching rows under S locks."""
        self._require_active()
        heap = self._db.catalog.table(table)
        result: list[Row] = []
        for row in heap.candidates(predicate):
            self._db._lock(self, (table, row.rid), LockMode.S)
            # re-read after the lock: the row may have changed if the lock
            # was acquired after another txn's release (nowait engine: it
            # cannot, but keep the discipline correct).
            current = heap.get(row.rid) if row.rid in heap else None
            if current is not None and predicate(current):
                result.append(current)
        return result

    def select_one(self, table: str, predicate: Predicate = ALWAYS) -> Row:
        rows = self.select(table, predicate)
        if len(rows) != 1:
            raise TransactionError(
                f"select_one on {table!r} matched {len(rows)} rows")
        return rows[0]

    def get_by_key(self, table: str, key: Any) -> Row:
        """Point read by primary key under an S lock."""
        self._require_active()
        heap = self._db.catalog.table(table)
        row = heap.get_by_key(key)
        self._db._lock(self, (table, row.rid), LockMode.S)
        return heap.get(row.rid)

    # -- mutations ---------------------------------------------------------------

    def insert(self, table: str, values: Mapping[str, Any]) -> Row:
        """Insert a row under an X lock on the new rid.

        The table's constraints judge the row before the heap checks its
        key — SQLite's adapter checks in that order too, so a duplicate
        key that also breaks a constraint is a ConstraintViolation on
        both backends.
        """
        self._require_active()
        db = self._db
        heap = db.catalog.table(table)
        if db.config.eager_constraints and db.constraints.for_table(table):
            db.constraints.validate(table, heap.schema.validate_row(values))
        row = heap.insert(values)
        try:
            db._lock(self, (table, row.rid), LockMode.X)
        except (LockConflictError, DeadlockError):  # pragma: no cover
            heap.remove_if_present(row.rid)  # fresh rid: nobody can hold it
            raise
        db.wal.log_insert(self.txn_id, table, row.rid, row)
        return row

    def update(self, table: str, where: Predicate | int,
               changes: Mapping[str, Any] | Callable[[Row], Mapping[str, Any]],
               ) -> list[Row]:
        """Update matching rows under X locks.

        ``where`` is a predicate or a literal rid.  ``changes`` is either a
        dict of new values or a function from the current row to one.
        Returns the new row versions.
        """
        self._require_active()
        heap = self._db.catalog.table(table)
        return [self._update_row(heap, table, row.rid, changes)
                for row in self._targets(heap, where)]

    def update_by_key(self, table: str, key: Any,
                      changes: Mapping[str, Any]) -> Row | None:
        """Point update by primary key under an X lock, through the key
        index (no predicate, no scan).  Returns the new row version, or
        None when no row has the key."""
        if self.status is not TxnStatus.ACTIVE:
            self._require_active()  # raises
        heap = self._db.catalog.table(table)
        rid = heap.rid_of_key(key)
        if rid is None:
            return None
        return self._update_row(heap, table, rid, changes)

    def delete(self, table: str, where: Predicate | int) -> int:
        """Delete matching rows under X locks; returns the count."""
        self._require_active()
        heap = self._db.catalog.table(table)
        targets = self._targets(heap, where)
        for row in targets:
            self._delete_row(heap, table, row.rid)
        return len(targets)

    def delete_by_key(self, table: str, key: Any) -> int:
        """Point delete by primary key under an X lock; returns the
        count (0 when no row has the key)."""
        self._require_active()
        heap = self._db.catalog.table(table)
        rid = heap.rid_of_key(key)
        if rid is None:
            return 0
        self._delete_row(heap, table, rid)
        return 1

    @staticmethod
    def _targets(heap: HeapTable, where: Predicate | int) -> list[Row]:
        if isinstance(where, int):
            return [heap.get(where)]
        return list(heap.candidates(where))

    def _update_row(self, heap: HeapTable, table: str, rid: int,
                    changes: Mapping[str, Any]
                    | Callable[[Row], Mapping[str, Any]]) -> Row:
        """One row's update, however it was found: X lock, schema and
        eager constraint validation (undone on violation), and a WAL
        record that keeps the two row versions themselves."""
        db = self._db
        # _lock without its frame: this is every written row's lock
        if not db.locks.acquire(self.txn_id, (table, rid), LockMode.X):
            db._refuse(self, (table, rid), LockMode.X)
        if callable(changes):
            changes = changes(heap.get(rid))
        before, after = heap.update(rid, changes)
        if db.config.eager_constraints:
            try:
                db.constraints.validate(table, after)
            except ConstraintViolation:
                heap.restore(before)
                raise
        db.wal.log_update(self.txn_id, table, rid, before, after)
        return after

    def _delete_row(self, heap: HeapTable, table: str, rid: int) -> None:
        self._db._lock(self, (table, rid), LockMode.X)
        self._db.wal.log_delete(self.txn_id, table, rid, heap.delete(rid))

    # -- completion ---------------------------------------------------------------

    def commit(self) -> None:
        """Validate deferred constraints, log COMMIT, release all locks."""
        if self.status is not TxnStatus.ACTIVE:
            self._require_active()  # raises
        db = self._db
        if not db.config.eager_constraints:
            self._validate_written_rows()
        db.wal.log_commit(self.txn_id)
        self.status = TxnStatus.COMMITTED
        db._finish(self)

    def abort(self, reason: str = "") -> None:
        """Undo all effects via the WAL, log ABORT, release all locks."""
        self._require_active()
        self._db.recovery.rollback(self.txn_id)
        self._db.wal.log_abort(self.txn_id)
        self.status = TxnStatus.ABORTED
        self._db._finish(self)

    # -- internals -------------------------------------------------------------------

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionAborted(self.txn_id,
                                     reason=f"status={self.status.value}")

    def _validate_written_rows(self) -> None:
        """Commit-time constraint validation (deferred mode)."""
        seen: set[tuple[str, int]] = set()
        for record in self._db.wal.records_of(self.txn_id):
            if record.table is None or record.rid is None:
                continue
            key = (record.table, record.rid)
            if key in seen:
                continue
            seen.add(key)
            heap = self._db.catalog.table(record.table)
            if record.rid in heap:
                self._db.constraints.validate(record.table,
                                              heap.get(record.rid))

    def __repr__(self) -> str:
        return f"<Transaction {self.txn_id!r} {self.status.value}>"


class Database:
    """The LDBS engine facade."""

    def __init__(self, config: DatabaseConfig | None = None) -> None:
        self.config = config or DatabaseConfig()
        self.catalog = Catalog()
        self.wal = WriteAheadLog()
        self.locks = LockManager()
        self.constraints = ConstraintSet()
        self.recovery = RecoveryManager(self.catalog, self.wal)
        self._txn_counter = itertools.count(1)
        self._open: dict[str, Transaction] = {}
        #: last quiesced checkpoint: table -> row versions.
        self._snapshot: dict[str, tuple[Row, ...]] | None = None
        self._clock = 0.0
        self.detector = DeadlockDetector(
            policy=self.config.victim_policy,
            start_time_of=self._start_time_of,
            lock_count_of=self._lock_count_of,
        )
        self.commits = 0
        self.aborts = 0
        #: lock requests refused (:meth:`_refuse`); until the first,
        #: the wait-for graph has never held anything to forget.
        self.refusals = 0

    # -- schema ---------------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     constraints: Iterable[CheckConstraint] = ()) -> None:
        """Create a table and register its constraints."""
        self.catalog.create_table(schema)
        for constraint in constraints:
            self.add_constraint(constraint)

    def create_index(self, table: str, column: str) -> None:
        """Build a secondary hash index on ``table.column``."""
        self.catalog.table(table).create_index(column)

    def add_constraint(self, constraint: CheckConstraint) -> None:
        if not self.catalog.has_table(constraint.table):
            raise TransactionError(
                f"constraint targets unknown table {constraint.table!r}")
        self.constraints.add(constraint)

    # -- transactions -----------------------------------------------------------

    def begin(self, txn_id: str | None = None) -> Transaction:
        """Start a transaction.  Ids must be unique across the DB lifetime."""
        self._clock += 1.0
        if txn_id is None:
            txn_id = f"ldbs-{next(self._txn_counter)}"
        txn = Transaction(self, txn_id, start_time=self._clock)
        self.wal.log_begin(txn_id)
        self._open[txn_id] = txn
        return txn

    def open_transactions(self) -> tuple[str, ...]:
        return tuple(self._open)

    # -- bulk helpers (autocommit) ------------------------------------------------

    def run(self, work: Callable[[Transaction], Any]) -> Any:
        """Run ``work`` in a fresh transaction with commit/abort handling."""
        with self.begin() as txn:
            return work(txn)

    def seed(self, table: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """Load initial data in one autocommitted transaction."""
        with self.begin() as txn:
            for values in rows:
                txn.insert(table, values)

    # -- crash / recovery ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Take a quiesced checkpoint: snapshot every table, truncate
        the WAL.

        Requires no open transactions (a fuzzy/ARIES checkpoint is out
        of scope for an in-memory engine).  After a checkpoint, recovery
        restores the snapshot and replays only the WAL suffix.  Returns
        the number of rows snapshotted.
        """
        if self._open:
            raise TransactionError(
                f"cannot checkpoint with open transactions: "
                f"{sorted(self._open)}")
        self._snapshot = {table.name: table.rows()
                          for table in self.catalog}
        self.wal.truncate()
        return sum(len(rows) for rows in self._snapshot.values())

    def crash(self) -> RecoveryReport:
        """Simulate a crash: open transactions are lost, then recover.

        Returns the recovery report.  Open transaction handles become
        unusable (their status flips to ABORTED).
        """
        for txn in self._open.values():
            txn.status = TxnStatus.ABORTED
            self.detector.on_finished(txn.txn_id)
        lost = tuple(self._open)
        self._open.clear()
        for txn_id in lost:
            self.locks.release_all(txn_id)
        return self.recovery.recover(snapshot=self._snapshot)

    # -- internals -------------------------------------------------------------------

    def _lock(self, txn: Transaction, resource: Any, mode: LockMode) -> None:
        """Acquire a lock for ``txn`` or raise (:meth:`_refuse`)."""
        if not self.locks.acquire(txn.txn_id, resource, mode):
            self._refuse(txn, resource, mode)

    def _refuse(self, txn: Transaction, resource: Any,
                mode: LockMode) -> NoReturn:
        """``txn``'s request for ``resource`` was queued, not granted.

        The wait edge is recorded in the wait-for graph; a cycle raises
        :class:`DeadlockError` naming the victim, otherwise
        :class:`LockConflictError` is raised (this engine never blocks —
        the simulated schedulers model waiting).
        """
        self.refusals += 1
        blockers = self.locks.blockers_of(txn.txn_id, resource)
        self.locks.cancel_request(txn.txn_id, resource)
        resolution = self.detector.on_wait(txn.txn_id, blockers)
        self.detector.on_stop_waiting(txn.txn_id)
        if resolution is not None:
            raise DeadlockError(resolution.victim, resolution.cycle)
        raise LockConflictError(
            f"{txn.txn_id!r} cannot lock {resource!r} in mode {mode.value}; "
            f"held by {sorted(blockers)}")

    def _finish(self, txn: Transaction) -> None:
        self._open.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)
        if self.refusals:
            self.detector.on_finished(txn.txn_id)
        if txn.status is TxnStatus.COMMITTED:
            self.commits += 1
        else:
            self.aborts += 1

    def _start_time_of(self, txn_id: str) -> float:
        txn = self._open.get(txn_id)
        return txn.start_time if txn else 0.0

    def _lock_count_of(self, txn_id: str) -> int:
        return len(self.locks.resources_held_by(txn_id))

    def __repr__(self) -> str:
        return (f"<Database tables={len(self.catalog)} "
                f"open={len(self._open)} commits={self.commits} "
                f"aborts={self.aborts}>")
