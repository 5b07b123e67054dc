"""Tests for heap-table storage."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.ldbs.predicate import P
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.ldbs.storage import HeapTable


def make_table(primary_key: str | None = "id") -> HeapTable:
    return HeapTable(TableSchema(
        name="t",
        columns=(Column("id", ColumnType.INT),
                 Column("value", ColumnType.INT, default=0)),
        primary_key=primary_key,
    ))


class TestInsert:
    def test_insert_assigns_increasing_rids(self):
        table = make_table()
        rows = [table.insert({"id": k}) for k in range(3)]
        assert [r.rid for r in rows] == [1, 2, 3]

    def test_insert_validates_schema(self):
        from repro.errors import SchemaError
        with pytest.raises(SchemaError):
            make_table().insert({"id": 1, "ghost": 2})

    def test_duplicate_key_rejected(self):
        table = make_table()
        table.insert({"id": 1})
        with pytest.raises(StorageError):
            table.insert({"id": 1})

    def test_no_key_table_allows_duplicates(self):
        table = make_table(primary_key=None)
        table.insert({"id": 1})
        table.insert({"id": 1})
        assert len(table) == 2


class TestPointAccess:
    def test_get_by_rid(self):
        table = make_table()
        row = table.insert({"id": 5, "value": 7})
        assert table.get(row.rid)["value"] == 7

    def test_get_unknown_rid_raises(self):
        with pytest.raises(StorageError):
            make_table().get(99)

    def test_get_by_key(self):
        table = make_table()
        table.insert({"id": 5, "value": 7})
        assert table.get_by_key(5)["value"] == 7

    def test_get_by_key_without_key_raises(self):
        table = make_table(primary_key=None)
        with pytest.raises(StorageError):
            table.get_by_key(1)

    def test_get_by_unknown_key_raises(self):
        with pytest.raises(StorageError):
            make_table().get_by_key(404)

    def test_has_key(self):
        table = make_table()
        table.insert({"id": 1})
        assert table.has_key(1)
        assert not table.has_key(2)

    def test_contains_by_rid(self):
        table = make_table()
        row = table.insert({"id": 1})
        assert row.rid in table
        assert 999 not in table


class TestUpdateDelete:
    def test_update_returns_before_after(self):
        table = make_table()
        row = table.insert({"id": 1, "value": 10})
        before, after = table.update(row.rid, {"value": 20})
        assert before["value"] == 10
        assert after["value"] == 20
        assert after.version == before.version + 1
        assert table.get(row.rid)["value"] == 20

    def test_update_key_reindexes(self):
        table = make_table()
        row = table.insert({"id": 1})
        table.update(row.rid, {"id": 2})
        assert table.has_key(2)
        assert not table.has_key(1)

    def test_update_to_existing_key_rejected(self):
        table = make_table()
        table.insert({"id": 1})
        row = table.insert({"id": 2})
        with pytest.raises(StorageError):
            table.update(row.rid, {"id": 1})

    def test_delete_returns_deleted_version(self):
        table = make_table()
        row = table.insert({"id": 1, "value": 3})
        deleted = table.delete(row.rid)
        assert deleted["value"] == 3
        assert row.rid not in table
        assert not table.has_key(1)

    def test_delete_unknown_rid_raises(self):
        with pytest.raises(StorageError):
            make_table().delete(1)


class TestScan:
    def test_scan_with_predicate(self):
        table = make_table()
        for key in range(5):
            table.insert({"id": key, "value": key * 10})
        hits = list(table.scan(P("value") >= 30))
        assert sorted(r["id"] for r in hits) == [3, 4]

    def test_scan_default_matches_all(self):
        table = make_table()
        for key in range(3):
            table.insert({"id": key})
        assert len(list(table.scan())) == 3

    def test_scan_tolerates_deletes_during_iteration(self):
        table = make_table()
        rows = [table.insert({"id": k}) for k in range(5)]
        seen = []
        for row in table.scan():
            seen.append(row["id"])
            if row.rid == rows[0].rid:
                table.delete(rows[4].rid)
        assert 0 in seen
        assert len(table) == 4


class TestRestore:
    def test_restore_after_delete(self):
        table = make_table()
        row = table.insert({"id": 1, "value": 5})
        table.delete(row.rid)
        table.restore(row)
        assert table.get(row.rid)["value"] == 5
        assert table.has_key(1)

    def test_restore_keeps_rid_allocation_ahead(self):
        table = make_table()
        row = table.insert({"id": 1})
        table.delete(row.rid)
        table.restore(row)
        fresh = table.insert({"id": 2})
        assert fresh.rid > row.rid

    def test_restore_of_an_undone_rekey_forgets_the_new_key(self):
        """Found by tests/ldbs/test_keyed_path_properties.py: undoing an
        update that changed the primary key left the new key in the key
        index, pointing at a row that no longer carries it."""
        table = make_table()
        row = table.insert({"id": 1, "value": 5})
        before, _after = table.update(row.rid, {"id": 3})
        table.restore(before)
        assert table.has_key(1) and not table.has_key(3)
        assert list(table.candidates(P("id") == 3)) == []
        table.insert({"id": 3})  # and the key is free again

    def test_remove_if_present_idempotent(self):
        table = make_table()
        row = table.insert({"id": 1})
        table.remove_if_present(row.rid)
        table.remove_if_present(row.rid)  # no error
        assert len(table) == 0

    def test_clear(self):
        table = make_table()
        table.insert({"id": 1})
        table.clear()
        assert len(table) == 0
        assert not table.has_key(1)


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=30, unique=True))
    def test_insert_then_get_roundtrip(self, keys):
        table = make_table()
        for key in keys:
            table.insert({"id": key, "value": key * 2})
        for key in keys:
            assert table.get_by_key(key)["value"] == key * 2
        assert len(table) == len(keys)

    @given(st.lists(st.tuples(st.integers(0, 10), st.booleans()),
                    min_size=1, max_size=40))
    def test_delete_restore_is_identity(self, operations):
        table = make_table(primary_key=None)
        live: dict[int, object] = {}
        for value, do_delete in operations:
            if do_delete and live:
                rid = next(iter(live))
                row = table.delete(rid)
                table.restore(row)  # immediately restore: net no-op
            else:
                row = table.insert({"id": value})
                live[row.rid] = row
        assert len(table) == len(live)
