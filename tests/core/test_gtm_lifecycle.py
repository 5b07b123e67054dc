"""Tests for whole-object INSERT/DELETE lifecycle in the GTM.

Table I makes INSERT and DELETE "compatible with no classes": they take
exclusive grants.  A registered *shell* (``exists=False``) only accepts
an INSERT; a committed DELETE tombstones the object; SSTs translate
both into real LDBS row operations.
"""

import pytest

from repro.errors import ProtocolError, GTMError
from repro.core.gtm import GlobalTransactionManager, GrantOutcome
from repro.core.objects import ObjectBinding
from repro.core.opclass import (
    add,
    read,
    subtract,
)
from repro.core.sst import SSTExecutor
from repro.core.states import TransactionState
from repro.ldbs.backend import MemoryBackend
from repro.ldbs.schema import Column, ColumnType, TableSchema
from tests.core.invocations import delete_object, insert_object

_S = TransactionState


def make_gtm():
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=100)
    return gtm


class TestInsert:
    def test_insert_on_shell_then_commit_materializes(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=None, exists=False)
        gtm.begin("A")
        assert gtm.invoke("A", "X", insert_object()) == \
            GrantOutcome.GRANTED
        gtm.apply("A", "X", insert_object({"value": 42}))
        gtm.request_commit("A")
        obj = gtm.object("X")
        assert obj.exists
        assert obj.permanent_value() == 42

    def test_insert_on_existing_object_rejected(self):
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(ProtocolError):
            gtm.invoke("A", "X", insert_object())

    def test_operations_on_shell_rejected(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=None, exists=False)
        gtm.begin("A")
        with pytest.raises(ProtocolError):
            gtm.invoke("A", "X", add(1))
        with pytest.raises(ProtocolError):
            gtm.invoke("A", "X", read())

    def test_insert_blocks_everything_until_commit(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=None, exists=False)
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", insert_object())
        # B cannot read the uncommitted object (it doesn't exist yet)
        with pytest.raises(ProtocolError):
            gtm.invoke("B", "X", read())
        gtm.apply("A", "X", insert_object({"value": 1}))
        gtm.request_commit("A")
        assert gtm.invoke("B", "X", read()) == GrantOutcome.GRANTED

    def test_insert_values_validate_members(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=None, exists=False)
        gtm.begin("A")
        gtm.invoke("A", "X", insert_object())
        with pytest.raises(GTMError):
            gtm.apply("A", "X", insert_object({"ghost": 1}))

    def test_aborted_insert_leaves_shell(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=None, exists=False)
        gtm.begin("A")
        gtm.invoke("A", "X", insert_object())
        gtm.apply("A", "X", insert_object({"value": 5}))
        gtm.abort("A")
        assert not gtm.object("X").exists


class TestDelete:
    def test_delete_tombstones_object(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", delete_object())
        gtm.request_commit("A")
        obj = gtm.object("X")
        assert not obj.exists
        assert obj.permanent["value"] is None

    def test_delete_queues_behind_reader(self):
        gtm = make_gtm()
        gtm.begin("R")
        gtm.begin("D")
        gtm.invoke("R", "X", read())
        assert gtm.invoke("D", "X", delete_object()) == \
            GrantOutcome.QUEUED

    def test_reader_queues_behind_delete(self):
        gtm = make_gtm()
        gtm.begin("D")
        gtm.begin("R")
        gtm.invoke("D", "X", delete_object())
        assert gtm.invoke("R", "X", read()) == GrantOutcome.QUEUED

    def test_operations_after_committed_delete_rejected(self):
        gtm = make_gtm()
        gtm.begin("D")
        gtm.invoke("D", "X", delete_object())
        gtm.request_commit("D")
        gtm.begin("B")
        with pytest.raises(ProtocolError):
            gtm.invoke("B", "X", subtract(1))

    def test_reinsert_after_delete(self):
        gtm = make_gtm()
        gtm.begin("D")
        gtm.invoke("D", "X", delete_object())
        gtm.request_commit("D")
        gtm.begin("I")
        gtm.invoke("I", "X", insert_object())
        gtm.apply("I", "X", insert_object({"value": 7}))
        gtm.request_commit("I")
        assert gtm.object("X").exists
        assert gtm.object("X").permanent_value() == 7

    def test_waiter_behind_committed_delete_sees_nonexistence(self):
        """A waiter granted after a DELETE commits operates on a ghost;
        the grant machinery must not resurrect it silently."""
        gtm = make_gtm()
        gtm.begin("D")
        gtm.begin("W")
        gtm.invoke("D", "X", delete_object())
        gtm.invoke("W", "X", subtract(1))   # queued behind the delete
        gtm.request_commit("D")
        # W was granted at unlock, but the object is now a tombstone;
        # its commit writes a value onto a non-existent object, which
        # re-materializes it (last-writer semantics, like SQL UPSERT
        # through our SST).  The important invariant: no crash, and the
        # states reconcile.
        assert gtm.object("X").is_pending("W")


class TestSSTLifecycle:
    def make_bound(self, with_row=True):
        db = MemoryBackend()
        db.create_table(TableSchema(
            "flight", (Column("id", ColumnType.INT),
                       Column("free", ColumnType.INT)),
            primary_key="id"))
        if with_row:
            db.seed("flight", [{"id": 1, "free": 10}])
        gtm = GlobalTransactionManager(sst_executor=SSTExecutor(db))
        gtm.create_object("X", value=10 if with_row else None,
                          binding=ObjectBinding.cell("flight", 1, "free"),
                          exists=with_row)
        return gtm, db

    def test_committed_delete_removes_ldbs_row(self):
        gtm, db = self.make_bound()
        gtm.begin("D")
        gtm.invoke("D", "X", delete_object())
        gtm.request_commit("D")
        assert db.dump()["flight"] == {}

    def test_committed_insert_creates_ldbs_row(self):
        gtm, db = self.make_bound(with_row=False)
        gtm.begin("I")
        gtm.invoke("I", "X", insert_object())
        gtm.apply("I", "X", insert_object({"value": 3}))
        gtm.request_commit("I")
        assert db.dump()["flight"][1]["free"] == 3
