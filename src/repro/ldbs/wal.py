"""Write-ahead log for the LDBS.

A logical-operation WAL in the ARIES spirit, simplified for an in-memory
engine: each record carries an LSN, the transaction id, and — for data
records — the before/after row versions undo and redo put back.  Row
versions are immutable (:mod:`repro.ldbs.rows`), so a record keeps the
very versions the heap held and wrote, not copies of them; any other
mapping handed in is copied into a version of its own (version 0).
The log itself lives in memory since durability here means "survives
a simulated crash", exercised by :mod:`repro.ldbs.recovery` and the
SST failure-injection bench.
"""

from __future__ import annotations

import enum
from functools import partial
from types import MappingProxyType
from typing import Any, Iterator, Mapping, NamedTuple

from repro.errors import WALError
from repro.ldbs.rows import Row


class RecordType(enum.Enum):
    """WAL record kinds."""

    BEGIN = "begin"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


#: The kinds as module names: an ``Enum`` member looked up on its class
#: costs about 0.1 µs, and every SST logs three to five records.
_BEGIN = RecordType.BEGIN
_INSERT = RecordType.INSERT
_UPDATE = RecordType.UPDATE
_DELETE = RecordType.DELETE
_COMMIT = RecordType.COMMIT
_ABORT = RecordType.ABORT

#: What every record but CHECKPOINT carries as ``payload``: one shared,
#: immutable empty mapping instead of a fresh dict per record.
_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class LogRecord(NamedTuple):
    """One WAL entry (immutable).

    ``old`` and ``new`` are the row versions a data record replaced and
    wrote: DELETE has only ``old``, INSERT only ``new``, UPDATE both.
    ``before`` and ``after`` are their read-only images (``None`` where
    there is no version).  ``payload`` carries checkpoint metadata.
    """

    lsn: int
    type: RecordType
    txn_id: str
    table: str | None = None
    rid: int | None = None
    old: Row | None = None
    new: Row | None = None
    payload: Mapping[str, Any] = _NO_PAYLOAD

    @property
    def before(self) -> Mapping[str, Any] | None:
        return None if self.old is None else self.old.image

    @property
    def after(self) -> Mapping[str, Any] | None:
        return None if self.new is None else self.new.image

    def is_data(self) -> bool:
        return self.type in (_INSERT, _UPDATE, _DELETE)


#: ``LogRecord`` from a tuple of all eight fields, built in C: the WAL
#: appends one per statement, and the generated ``__new__`` is a Python
#: frame around this very call.
_record = partial(tuple.__new__, LogRecord)


def _not_active(txn_id: str) -> WALError:
    return WALError(f"transaction {txn_id!r} is not active in the WAL")


class WriteAheadLog:
    """Append-only log with transaction-status tracking.

    A data record takes the row versions themselves (a :class:`Row` is
    kept by reference); a plain mapping is copied into a new version.
    """

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._active: set[str] = set()
        self._finished: set[str] = set()

    # -- appending -----------------------------------------------------------

    def log_begin(self, txn_id: str) -> LogRecord:
        if txn_id in self._active or txn_id in self._finished:
            raise WALError(f"transaction {txn_id!r} already logged BEGIN")
        self._active.add(txn_id)
        records = self._records
        record = _record((len(records) + 1, _BEGIN, txn_id, None, None,
                          None, None, _NO_PAYLOAD))
        records.append(record)
        return record

    def log_insert(self, txn_id: str, table: str, rid: int,
                   after: Mapping[str, Any]) -> LogRecord:
        if txn_id not in self._active:
            raise _not_active(txn_id)
        if type(after) is not Row:
            after = Row(rid, after)
        records = self._records
        record = _record((len(records) + 1, _INSERT, txn_id, table, rid,
                          None, after, _NO_PAYLOAD))
        records.append(record)
        return record

    def log_update(self, txn_id: str, table: str, rid: int,
                   before: Mapping[str, Any],
                   after: Mapping[str, Any]) -> LogRecord:
        if txn_id not in self._active:
            raise _not_active(txn_id)
        if type(before) is not Row:
            before = Row(rid, before)
        if type(after) is not Row:
            after = Row(rid, after)
        records = self._records
        record = _record((len(records) + 1, _UPDATE, txn_id, table, rid,
                          before, after, _NO_PAYLOAD))
        records.append(record)
        return record

    def log_delete(self, txn_id: str, table: str, rid: int,
                   before: Mapping[str, Any]) -> LogRecord:
        if txn_id not in self._active:
            raise _not_active(txn_id)
        if type(before) is not Row:
            before = Row(rid, before)
        records = self._records
        record = _record((len(records) + 1, _DELETE, txn_id, table, rid,
                          before, None, _NO_PAYLOAD))
        records.append(record)
        return record

    def log_commit(self, txn_id: str) -> LogRecord:
        if txn_id not in self._active:
            raise _not_active(txn_id)
        self._active.discard(txn_id)
        self._finished.add(txn_id)
        records = self._records
        record = _record((len(records) + 1, _COMMIT, txn_id, None, None,
                          None, None, _NO_PAYLOAD))
        records.append(record)
        return record

    def log_abort(self, txn_id: str) -> LogRecord:
        if txn_id not in self._active:
            raise _not_active(txn_id)
        self._active.discard(txn_id)
        self._finished.add(txn_id)
        records = self._records
        record = _record((len(records) + 1, _ABORT, txn_id, None, None,
                          None, None, _NO_PAYLOAD))
        records.append(record)
        return record

    def log_checkpoint(self) -> LogRecord:
        records = self._records
        record = LogRecord(
            len(records) + 1, RecordType.CHECKPOINT, txn_id="",
            payload={"active": tuple(sorted(self._active))})
        records.append(record)
        return record

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def records(self) -> tuple[LogRecord, ...]:
        return tuple(self._records)

    def records_of(self, txn_id: str) -> tuple[LogRecord, ...]:
        return tuple(r for r in self._records if r.txn_id == txn_id)

    def committed_transactions(self) -> frozenset[str]:
        return frozenset(r.txn_id for r in self._records
                         if r.type is RecordType.COMMIT)

    def aborted_transactions(self) -> frozenset[str]:
        return frozenset(r.txn_id for r in self._records
                         if r.type is RecordType.ABORT)

    def active_transactions(self) -> frozenset[str]:
        """Transactions with a BEGIN but neither COMMIT nor ABORT (losers)."""
        return frozenset(self._active)

    def truncate(self) -> None:
        """Drop the log (after a checkpoint flush, or between tests).

        The finished-transaction ids go with the records that described
        them — a checkpointed log must not keep one string per commit
        forever — so only a *still active* id is refused a second
        BEGIN afterwards.
        """
        self._records.clear()
        self._finished.clear()

    def __repr__(self) -> str:
        return (f"<WriteAheadLog records={len(self._records)} "
                f"active={len(self._active)}>")
