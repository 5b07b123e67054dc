"""Tests for the write-ahead log."""

import pytest

from repro.errors import WALError
from repro.ldbs.engine import Database
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.ldbs.wal import RecordType, WriteAheadLog


class TestLogging:
    def test_lsns_are_sequential(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        wal.log_insert("T1", "t", 1, {"a": 1})
        wal.log_commit("T1")
        assert [r.lsn for r in wal] == [1, 2, 3]

    def test_begin_twice_raises(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        with pytest.raises(WALError):
            wal.log_begin("T1")

    def test_begin_after_finish_raises(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        wal.log_commit("T1")
        with pytest.raises(WALError):
            wal.log_begin("T1")

    def test_data_record_requires_active_txn(self):
        wal = WriteAheadLog()
        with pytest.raises(WALError):
            wal.log_insert("ghost", "t", 1, {"a": 1})

    def test_commit_requires_active_txn(self):
        with pytest.raises(WALError):
            WriteAheadLog().log_commit("ghost")

    def test_update_keeps_before_and_after_images(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        record = wal.log_update("T1", "t", 1, {"a": 1}, {"a": 2})
        assert record.before == {"a": 1}
        assert record.after == {"a": 2}
        assert record.is_data()

    def test_images_are_copies(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        values = {"a": 1}
        record = wal.log_insert("T1", "t", 1, values)
        values["a"] = 99
        assert record.after == {"a": 1}

    def test_an_update_record_keeps_the_row_versions_themselves(self):
        """No copy per record: the engine's UPDATE record holds the
        version it replaced and the one it wrote, images and all."""
        db = Database()
        db.create_table(TableSchema(
            "t", (Column("id", ColumnType.INT), Column("a", ColumnType.INT)),
            primary_key="id"))
        db.seed("t", [{"id": 1, "a": 1}])
        before = db.catalog.table("t").get_by_key(1)
        with db.begin("T1") as txn:
            after = txn.update_by_key("t", 1, {"a": 2})
            record = db.wal.records()[-1]
        assert record.type is RecordType.UPDATE
        assert record.after is after.image
        assert record.before is before.image
        assert (record.old, record.new) == (before, after)
        assert record.new is after and record.old is before
        # and the images are read-only
        with pytest.raises(TypeError):
            record.after["a"] = 3


class TestStatusTracking:
    def test_committed_and_aborted_sets(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        wal.log_begin("T2")
        wal.log_begin("T3")
        wal.log_commit("T1")
        wal.log_abort("T2")
        assert wal.committed_transactions() == frozenset({"T1"})
        assert wal.aborted_transactions() == frozenset({"T2"})
        assert wal.active_transactions() == frozenset({"T3"})

    def test_records_of_filters_by_txn(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        wal.log_begin("T2")
        wal.log_insert("T1", "t", 1, {"a": 1})
        wal.log_insert("T2", "t", 2, {"a": 2})
        assert [r.rid for r in wal.records_of("T1") if r.is_data()] == [1]

    def test_checkpoint_records_active_set(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        record = wal.log_checkpoint()
        assert record.type is RecordType.CHECKPOINT
        assert record.payload["active"] == ("T1",)

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        wal.truncate()
        assert len(wal) == 0

    def test_truncate_forgets_finished_ids_not_active_ones(self):
        wal = WriteAheadLog()
        wal.log_begin("T1")
        wal.log_commit("T1")
        wal.log_begin("T2")
        wal.log_abort("T2")
        wal.log_begin("T3")  # still active across the truncate
        wal.truncate()
        assert wal._finished == set()  # one string per commit, gone
        assert wal.active_transactions() == {"T3"}
        with pytest.raises(WALError):
            wal.log_begin("T3")
        wal.log_commit("T3")
        wal.log_begin("T1")  # a truncated-away id is not remembered

    def test_records_are_slotted_and_share_the_empty_payload(self):
        wal = WriteAheadLog()
        first = wal.log_begin("T1")
        second = wal.log_insert("T1", "t", 1, {"a": 1})
        assert not hasattr(first, "__dict__")
        assert first.payload is second.payload
        assert dict(first.payload) == {}
        with pytest.raises(TypeError):
            first.payload["k"] = 1
