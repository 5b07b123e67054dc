"""Tests for WAL replay: crash recovery and online rollback."""

from repro.ldbs.catalog import Catalog
from repro.ldbs.engine import Database
from repro.ldbs.recovery import RecoveryManager
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.ldbs.wal import WriteAheadLog


def setup() -> tuple[Catalog, WriteAheadLog, RecoveryManager]:
    catalog = Catalog()
    catalog.create_table(TableSchema(
        "t", (Column("id", ColumnType.INT),
              Column("v", ColumnType.INT, default=0)),
        primary_key="id"))
    wal = WriteAheadLog()
    return catalog, wal, RecoveryManager(catalog, wal)


class TestCrashRecovery:
    def test_committed_insert_survives(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("T1")
        row = table.insert({"id": 1, "v": 10})
        wal.log_insert("T1", "t", row.rid, row.as_dict())
        wal.log_commit("T1")
        table.clear()  # the crash wipes volatile state
        report = recovery.recover()
        assert report.winners == ("T1",)
        assert report.redone == 1
        assert catalog.table("t").get_by_key(1)["v"] == 10

    def test_uncommitted_insert_vanishes(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("T1")
        row = table.insert({"id": 1})
        wal.log_insert("T1", "t", row.rid, row.as_dict())
        # no commit: loser
        report = recovery.recover()
        assert report.losers == ("T1",)
        assert report.skipped == 1
        assert len(catalog.table("t")) == 0

    def test_committed_update_wins_over_stale_heap(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("T1")
        row = table.insert({"id": 1, "v": 1})
        wal.log_insert("T1", "t", row.rid, row.as_dict())
        before, after = table.update(row.rid, {"v": 2})
        wal.log_update("T1", "t", row.rid, before.as_dict(),
                       after.as_dict())
        wal.log_commit("T1")
        report = recovery.recover()
        assert report.redone == 2
        assert catalog.table("t").get_by_key(1)["v"] == 2

    def test_committed_delete_redone(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("T1")
        row = table.insert({"id": 1})
        wal.log_insert("T1", "t", row.rid, row.as_dict())
        wal.log_commit("T1")
        wal.log_begin("T2")
        deleted = table.delete(row.rid)
        wal.log_delete("T2", "t", row.rid, deleted.as_dict())
        wal.log_commit("T2")
        recovery.recover()
        assert len(catalog.table("t")) == 0

    def test_interleaved_winner_and_loser(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("W")
        wal.log_begin("L")
        w_row = table.insert({"id": 1, "v": 1})
        wal.log_insert("W", "t", w_row.rid, w_row.as_dict())
        l_row = table.insert({"id": 2, "v": 2})
        wal.log_insert("L", "t", l_row.rid, l_row.as_dict())
        wal.log_commit("W")
        report = recovery.recover()
        assert report.winners == ("W",)
        assert "L" in report.losers
        table = catalog.table("t")
        assert table.has_key(1)
        assert not table.has_key(2)

    def test_aborted_txn_counts_as_loser(self):
        catalog, wal, recovery = setup()
        wal.log_begin("T1")
        wal.log_abort("T1")
        report = recovery.recover()
        assert report.losers == ("T1",)


class TestOnlineRollback:
    def test_rollback_update_restores_before_image(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("setup")
        row = table.insert({"id": 1, "v": 1})
        wal.log_insert("setup", "t", row.rid, row.as_dict())
        wal.log_commit("setup")
        wal.log_begin("T1")
        before, after = table.update(row.rid, {"v": 99})
        wal.log_update("T1", "t", row.rid, before.as_dict(),
                       after.as_dict())
        undone = recovery.rollback("T1")
        assert undone == 1
        assert table.get_by_key(1)["v"] == 1

    def test_rollback_insert_removes_row(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("T1")
        row = table.insert({"id": 1})
        wal.log_insert("T1", "t", row.rid, row.as_dict())
        recovery.rollback("T1")
        assert len(table) == 0

    def test_rollback_delete_restores_row(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("setup")
        row = table.insert({"id": 1, "v": 7})
        wal.log_insert("setup", "t", row.rid, row.as_dict())
        wal.log_commit("setup")
        wal.log_begin("T1")
        deleted = table.delete(row.rid)
        wal.log_delete("T1", "t", row.rid, deleted.as_dict())
        recovery.rollback("T1")
        assert table.get_by_key(1)["v"] == 7

    def test_rollback_multiple_ops_in_reverse(self):
        catalog, wal, recovery = setup()
        table = catalog.table("t")
        wal.log_begin("T1")
        row = table.insert({"id": 1, "v": 0})
        wal.log_insert("T1", "t", row.rid, row.as_dict())
        for value in (1, 2, 3):
            before, after = table.update(row.rid, {"v": value})
            wal.log_update("T1", "t", row.rid, before.as_dict(),
                           after.as_dict())
        undone = recovery.rollback("T1")
        assert undone == 4
        assert len(table) == 0  # even the insert is gone

    def test_rollback_unknown_txn_is_noop(self):
        _catalog, _wal, recovery = setup()
        assert recovery.rollback("ghost") == 0


class TestRowVersions:
    """Undo and redo put back the row version the WAL logged: rid,
    version and values.  They used to rebuild a version 0 from the
    logged values, so an update committed at v1 came back as v0 after
    a later abort or a crash (``dump()`` carries no version, which is
    why no digest ever showed it)."""

    @staticmethod
    def committed_at_v1() -> Database:
        db = Database()
        db.create_table(TableSchema(
            "t", (Column("id", ColumnType.INT), Column("v", ColumnType.INT)),
            primary_key="id"))
        db.seed("t", [{"id": 1, "v": 1}])
        with db.begin("T1") as txn:
            txn.update_by_key("t", 1, {"v": 2})
        assert db.catalog.table("t").get_by_key(1).version == 1
        return db

    def test_an_aborted_update_puts_back_the_committed_version(self):
        db = self.committed_at_v1()
        committed = db.catalog.table("t").get_by_key(1)
        txn = db.begin("T2")
        assert txn.update_by_key("t", 1, {"v": 3}).version == 2
        txn.abort()
        assert db.catalog.table("t").get_by_key(1) is committed

    def test_an_aborted_delete_puts_back_the_deleted_version(self):
        db = self.committed_at_v1()
        committed = db.catalog.table("t").get_by_key(1)
        txn = db.begin("T2")
        assert txn.delete_by_key("t", 1) == 1
        txn.abort()
        assert db.catalog.table("t").get_by_key(1) is committed

    def test_a_crash_recovers_the_committed_version(self):
        db = self.committed_at_v1()
        loser = db.begin("T2")
        loser.update_by_key("t", 1, {"v": 3})
        db.crash()
        row = db.catalog.table("t").get_by_key(1)
        assert (row.version, dict(row)) == (1, {"id": 1, "v": 2})
        # and the next update numbers on from there
        with db.begin("T3") as txn:
            assert txn.update_by_key("t", 1, {"v": 4}).version == 2
