"""Tests for managed-object bookkeeping and transaction state records."""

import pytest

from repro.errors import GTMError
from repro.core.objects import (
    ManagedObject,
    ObjectBinding,
    WaitEntry,
)
from repro.core.opclass import add
from repro.core.transaction import GTMTransaction


class TestObjectBinding:
    def test_cell_binds_value_member(self):
        binding = ObjectBinding.cell("flight", 1, "free")
        assert binding.column_for("value") == "free"

    def test_unknown_member_raises(self):
        binding = ObjectBinding.cell("flight", 1, "free")
        with pytest.raises(GTMError):
            binding.column_for("ghost")

    def test_structured_binding(self):
        binding = ObjectBinding("flight", 1,
                                {"quantity": "free", "price": "price"})
        assert binding.column_for("quantity") == "free"
        assert binding.column_for("price") == "price"


class TestManagedObject:
    def test_atomic_object_has_value_member(self):
        obj = ManagedObject("X", value=100)
        assert obj.permanent_value() == 100
        assert obj.members() == ("value",)

    def test_structured_object(self):
        obj = ManagedObject("X", members={"quantity": 5, "price": 10.0})
        assert obj.permanent_value("price") == 10.0

    def test_members_and_value_mutually_exclusive(self):
        with pytest.raises(GTMError):
            ManagedObject("X", members={"a": 1}, value=2)

    def test_unknown_member_raises(self):
        with pytest.raises(GTMError):
            ManagedObject("X", value=1).permanent_value("ghost")

    def test_waiting_queue_helpers(self):
        obj = ManagedObject("X", value=0)
        obj.push_waiting(WaitEntry("A", add(1), arrival=1.0))
        obj.push_waiting(WaitEntry("B", add(2), arrival=2.0))
        assert obj.is_waiting("A")
        assert obj.waiting_entry("A").arrival == 1.0
        obj.remove_waiting("A")
        assert not obj.is_waiting("A")
        assert obj.waiting_entry("A") is None

    def test_committed_after_filters_by_tc(self):
        obj = ManagedObject("X", value=0)
        obj.mark_sleeping("S")          # a record needs a reader
        obj.record_commit("A", {"value": add(1)}, now=1.0)
        obj.record_commit("B", {"value": add(1)}, now=5.0)
        assert [r.txn_id for r in obj.committed_after(2.0)] == ["B"]
        assert [r.txn_id for r in obj.committed_after(5.0)] == []

    def test_snapshot_for(self):
        obj = ManagedObject("X", value=100)
        obj.snapshot_for("A")
        assert obj.read_value("A") == 100
        obj.permanent["value"] = 200
        assert obj.read_value("A") == 100  # snapshot, not reference

    def test_clear_txn_removes_all_roles(self):
        obj = ManagedObject("X", value=0)
        obj.grant_pending("B", add(1))
        obj.snapshot_for("B")
        obj.stage_commit("B")           # makes the X_new map A writes to
        obj.grant_pending("A", add(1))
        obj.snapshot_for("A")
        obj.new["A"] = {"value": 1}
        obj.mark_sleeping("A")
        obj.clear_txn("A")
        assert not obj.is_pending("A")
        assert "A" not in obj.sleeping
        assert "A" not in obj.read
        assert "A" not in obj.new
        obj.verify_summary()            # A's pending grant was not effective

    def test_invariants_ok_on_fresh_object(self):
        ManagedObject("X", value=0).check_invariants()

    def test_pending_and_waiting_is_legal(self):
        """A transaction may hold one member while queued for another."""
        obj = ManagedObject("X", value=0)
        obj.grant_pending("A", add(1))
        obj.snapshot_for("A")
        obj.push_waiting(WaitEntry("A", add(1), arrival=0.0))
        obj.check_invariants()  # no error

    def test_invariant_detects_pending_and_committing(self):
        obj = ManagedObject("X", value=0)
        obj.grant_pending("A", add(1))
        obj.snapshot_for("A")
        obj.stage_commit("A")
        obj.grant_pending("A", add(1))
        with pytest.raises(GTMError):
            obj.check_invariants()

    def test_invariant_detects_pending_without_snapshot(self):
        obj = ManagedObject("X", value=0)
        obj.grant_pending("A", add(1))
        with pytest.raises(GTMError):
            obj.check_invariants()

    def test_invariant_detects_stray_sleeper(self):
        obj = ManagedObject("X", value=0)
        obj.mark_sleeping("A")
        with pytest.raises(GTMError):
            obj.check_invariants()


class TestGTMTransaction:
    def test_temp_values_per_object_member(self):
        txn = GTMTransaction("T")
        txn.set_temp("X", "value", 5)
        txn.set_temp("Y", "price", 7)
        assert txn.temp_value("X") == 5
        assert txn.temp_value("Y", "price") == 7

    def test_clear_temp_scoped_to_object(self):
        txn = GTMTransaction("T")
        txn.set_temp("X", "value", 5)
        txn.set_temp("Y", "value", 7)
        txn.clear_temp("X")
        with pytest.raises(KeyError):
            txn.temp_value("X")
        assert txn.temp_value("Y") == 7

    def test_record_wait_tracks_involvement(self):
        txn = GTMTransaction("T")
        txn.record_wait("X", now=3.0)
        assert txn.t_wait == {"X": 3.0}
        assert "X" in txn.involved

    def test_clear_wait_single_and_all(self):
        txn = GTMTransaction("T")
        txn.record_wait("X", 1.0)
        txn.record_wait("Y", 2.0)
        txn.clear_wait("X")
        assert txn.t_wait == {"Y": 2.0}
        txn.clear_wait()
        assert txn.t_wait == {}

    def test_state_history_exposed(self):
        txn = GTMTransaction("T")
        from repro.core.states import TransactionState
        txn.transition(TransactionState.WAITING)
        assert txn.state_history[-1] is TransactionState.WAITING
