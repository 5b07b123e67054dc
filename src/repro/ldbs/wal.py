"""Write-ahead log for the LDBS.

A logical-operation WAL in the ARIES spirit, simplified for an in-memory
engine: each record carries an LSN, the transaction id, and — for data
records — before/after images sufficient for undo and redo.  The log
itself lives in memory (optionally mirrored to a list of dicts for
inspection) since durability here means "survives a simulated crash",
exercised by :mod:`repro.ldbs.recovery` and the SST failure-injection
bench.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.errors import WALError


class RecordType(enum.Enum):
    """WAL record kinds."""

    BEGIN = "begin"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


#: What every record but CHECKPOINT carries as ``payload``: one shared,
#: immutable empty mapping instead of a fresh dict per record.
_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One WAL entry.

    ``before`` and ``after`` are full row-value dicts (plus rid) for data
    records; ``None`` otherwise.  ``payload`` carries checkpoint metadata.
    """

    lsn: int
    type: RecordType
    txn_id: str
    table: str | None = None
    rid: int | None = None
    before: Mapping[str, Any] | None = None
    after: Mapping[str, Any] | None = None
    payload: Mapping[str, Any] = field(default_factory=lambda: _NO_PAYLOAD)

    def is_data(self) -> bool:
        return self.type in (RecordType.INSERT, RecordType.UPDATE,
                             RecordType.DELETE)


class WriteAheadLog:
    """Append-only log with transaction-status tracking."""

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._active: set[str] = set()
        self._finished: set[str] = set()

    # -- appending -----------------------------------------------------------

    def _append(self, record: LogRecord) -> LogRecord:
        self._records.append(record)
        return record

    def _next_lsn(self) -> int:
        return len(self._records) + 1

    def log_begin(self, txn_id: str) -> LogRecord:
        if txn_id in self._active or txn_id in self._finished:
            raise WALError(f"transaction {txn_id!r} already logged BEGIN")
        self._active.add(txn_id)
        return self._append(LogRecord(self._next_lsn(), RecordType.BEGIN,
                                      txn_id))

    def _require_active(self, txn_id: str) -> None:
        if txn_id not in self._active:
            raise WALError(f"transaction {txn_id!r} is not active in the WAL")

    def log_insert(self, txn_id: str, table: str, rid: int,
                   after: Mapping[str, Any]) -> LogRecord:
        self._require_active(txn_id)
        return self._append(LogRecord(
            self._next_lsn(), RecordType.INSERT, txn_id, table=table,
            rid=rid, after=dict(after)))

    def log_update(self, txn_id: str, table: str, rid: int,
                   before: Mapping[str, Any],
                   after: Mapping[str, Any]) -> LogRecord:
        self._require_active(txn_id)
        return self._append(LogRecord(
            self._next_lsn(), RecordType.UPDATE, txn_id, table=table,
            rid=rid, before=dict(before), after=dict(after)))

    def log_delete(self, txn_id: str, table: str, rid: int,
                   before: Mapping[str, Any]) -> LogRecord:
        self._require_active(txn_id)
        return self._append(LogRecord(
            self._next_lsn(), RecordType.DELETE, txn_id, table=table,
            rid=rid, before=dict(before)))

    def log_commit(self, txn_id: str) -> LogRecord:
        self._require_active(txn_id)
        self._active.discard(txn_id)
        self._finished.add(txn_id)
        return self._append(LogRecord(self._next_lsn(), RecordType.COMMIT,
                                      txn_id))

    def log_abort(self, txn_id: str) -> LogRecord:
        self._require_active(txn_id)
        self._active.discard(txn_id)
        self._finished.add(txn_id)
        return self._append(LogRecord(self._next_lsn(), RecordType.ABORT,
                                      txn_id))

    def log_checkpoint(self) -> LogRecord:
        return self._append(LogRecord(
            self._next_lsn(), RecordType.CHECKPOINT, txn_id="",
            payload={"active": tuple(sorted(self._active))}))

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
