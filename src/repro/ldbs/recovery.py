"""Crash recovery: replay the WAL into a clean catalog.

A simplified ARIES: an *analysis* pass classifies transactions into
winners (COMMIT logged) and losers (no COMMIT/ABORT), a *redo* pass
re-applies the effects of winners in LSN order, and losers are simply
never redone (undo is implicit because redo starts from the last durable
snapshot — here, an empty or checkpointed catalog).

For the *online* abort path (rollback of a live transaction without a
crash) see :meth:`RecoveryManager.rollback`, which walks that
transaction's records backwards applying inverse operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import RecoveryError
from repro.ldbs.catalog import Catalog
from repro.ldbs.rows import Row
from repro.ldbs.wal import LogRecord, RecordType, WriteAheadLog


@dataclass
class RecoveryReport:
    """What a recovery pass did."""

    winners: tuple[str, ...] = ()
    losers: tuple[str, ...] = ()
    redone: int = 0
    skipped: int = 0
    details: list[str] = field(default_factory=list)


class RecoveryManager:
    """Applies WAL records to a catalog, forwards (redo) or backwards (undo).

    Both directions put back the row version a record logged — rid,
    version and values — not a fresh version 0 of its values.
    """

    def __init__(self, catalog: Catalog, wal: WriteAheadLog) -> None:
        self.catalog = catalog
        self.wal = wal

    # -- crash recovery -------------------------------------------------------

    def recover(self, snapshot: "Mapping[str, tuple[Row, ...]] | None"
                = None) -> RecoveryReport:
        """Rebuild table contents from the WAL after a simulated crash.

        The catalog's *schemas* are assumed to survive (schema operations
        are not logged); all row data is rebuilt: tables are cleared,
        the checkpoint ``snapshot`` (if any) is restored, then every
        data record of a committed transaction is redone in LSN order.
        """
        winners = self.wal.committed_transactions()
        aborted = self.wal.aborted_transactions()
        losers = self.wal.active_transactions()
        report = RecoveryReport(
            winners=tuple(sorted(winners)),
            losers=tuple(sorted(losers | aborted)),
        )
        for table in self.catalog:
            table.clear()
        if snapshot is not None:
            for table_name, rows in snapshot.items():
                table = self.catalog.table(table_name)
                for row in rows:
                    table.restore(row)
                report.details.append(
                    f"restored {len(rows)} rows of {table_name!r} "
                    f"from the checkpoint")
        for record in self.wal:
            if not record.is_data():
                continue
            if record.txn_id in winners:
                self._redo(record)
                report.redone += 1
            else:
                report.skipped += 1
        return report

    def _redo(self, record: LogRecord) -> None:
        table = self.catalog.table(record.table)  # type: ignore[arg-type]
        if record.type is RecordType.INSERT:
            if record.new is None or record.rid is None:
                raise RecoveryError(f"malformed INSERT record {record!r}")
            table.restore(record.new)
        elif record.type is RecordType.UPDATE:
            if record.new is None or record.rid is None:
                raise RecoveryError(f"malformed UPDATE record {record!r}")
            table.restore(record.new)
        elif record.type is RecordType.DELETE:
            if record.rid is None:
                raise RecoveryError(f"malformed DELETE record {record!r}")
            table.remove_if_present(record.rid)

    # -- online rollback ------------------------------------------------------

    def rollback(self, txn_id: str) -> int:
        """Undo the live effects of one transaction (abort path).

        Walks the transaction's data records in reverse LSN order applying
        inverse operations.  Returns the number of records undone.
        """
        undone = 0
        for record in reversed(self.wal.records_of(txn_id)):
            if not record.is_data():
                continue
            self._undo(record)
            undone += 1
        return undone

    def _undo(self, record: LogRecord) -> None:
        table = self.catalog.table(record.table)  # type: ignore[arg-type]
        if record.type is RecordType.INSERT:
            table.remove_if_present(record.rid)  # type: ignore[arg-type]
        elif record.type is RecordType.UPDATE:
            if record.old is None or record.rid is None:
                raise RecoveryError(f"malformed UPDATE record {record!r}")
            table.restore(record.old)
        elif record.type is RecordType.DELETE:
            if record.old is None or record.rid is None:
                raise RecoveryError(f"malformed DELETE record {record!r}")
            table.restore(record.old)
