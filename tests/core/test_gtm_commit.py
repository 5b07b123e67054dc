"""Tests for Algorithms 3 and 4: ⟨commit, X, A⟩ and ⟨commit, A⟩."""

import pytest

from repro.errors import ProtocolError
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign, multiply, read, subtract
from repro.core.sst import SSTExecutor
from repro.core.states import TransactionState
from repro.ldbs.backend import create_backend

_S = TransactionState


def make_gtm(value: float = 100) -> GlobalTransactionManager:
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=value)
    return gtm


def granted_txn(gtm, txn_id, invocation, amount_applied=True):
    gtm.begin(txn_id)
    gtm.invoke(txn_id, "X", invocation)
    if amount_applied:
        gtm.apply(txn_id, "X", invocation)
    return gtm.transaction(txn_id)


class TestLocalCommit:
    def test_stages_reconciled_value(self):
        gtm = make_gtm(100)
        granted_txn(gtm, "A", add(4))
        assert gtm.local_commit("A", "X")
        obj = gtm.object("X")
        assert obj.new["A"] == {"value": 104}       # X_new^A = rho(...)
        assert "A" in obj.committing                # X_committing ∪ (A, op)
        assert not obj.is_pending("A")              # X_pending -= (A, op)

    def test_transitions_to_committing(self):
        gtm = make_gtm()
        granted_txn(gtm, "A", add(1))
        gtm.local_commit("A", "X")
        assert gtm.transaction("A").state is _S.COMMITTING

    def test_requires_pending_grant(self):
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(ProtocolError):
            gtm.local_commit("A", "X")

    def test_second_committer_deferred(self):
        """Algorithm 3: at most one transaction in X_committing."""
        gtm = make_gtm(100)
        granted_txn(gtm, "A", add(1))
        granted_txn(gtm, "B", add(2))
        assert gtm.local_commit("A", "X")
        assert not gtm.local_commit("B", "X")       # deferred
        obj = gtm.object("X")
        assert "B" not in obj.committing
        assert obj.is_pending("B")                  # still pending
        assert gtm.transaction("B").state is _S.COMMITTING

    def test_deferred_commit_replays_after_global_commit(self):
        gtm = make_gtm(100)
        granted_txn(gtm, "A", add(1))
        granted_txn(gtm, "B", add(2))
        gtm.local_commit("A", "X")
        gtm.local_commit("B", "X")      # deferred
        gtm.global_commit("A")          # pumps the deferred queue
        obj = gtm.object("X")
        assert "B" in obj.committing
        # B reconciled against the *new* permanent 101: 102+101-100 = 103
        assert obj.new["B"] == {"value": 103}

    def test_read_commit_stages_empty_write(self):
        gtm = make_gtm()
        granted_txn(gtm, "R", read(), amount_applied=False)
        gtm.local_commit("R", "X")
        assert gtm.object("X").new["R"] == {}


class TestGlobalCommit:
    def test_applies_permanent_value(self):
        gtm = make_gtm(100)
        granted_txn(gtm, "A", add(4))
        gtm.local_commit("A", "X")
        gtm.global_commit("A")
        assert gtm.object("X").permanent_value() == 104
        assert gtm.transaction("A").state is _S.COMMITTED

    def test_records_commit_time(self):
        """X_committed exists for Algorithm 9: a commit is recorded
        (with X_tc) while somebody sleeps on X, and only then."""
        gtm = make_gtm()
        granted_txn(gtm, "S", add(1))
        gtm.sleep("S")
        granted_txn(gtm, "A", add(1))
        gtm.local_commit("A", "X")
        gtm.global_commit("A")
        records = gtm.object("X").committed
        assert len(records) == 1
        assert records[0].txn_id == "A"
        assert records[0].commit_time > 0           # X_tc
        assert gtm.awake("S")
        assert gtm.object("X").committed == ()      # last sleeper left

        granted_txn(gtm, "B", add(1))
        gtm.local_commit("B", "X")
        gtm.global_commit("B")
        assert gtm.object("X").committed == ()      # nobody to read it

    def test_clears_transaction_residue(self):
        gtm = make_gtm()
        granted_txn(gtm, "A", add(1))
        gtm.local_commit("A", "X")
        gtm.global_commit("A")
        txn = gtm.transaction("A")
        assert txn.t_wait == {}
        assert txn.t_sleep is None
        assert txn.temp == {}
        obj = gtm.object("X")
        assert "A" not in obj.committing
        assert "A" not in obj.new
        assert "A" not in obj.read

    def test_requires_committing_state(self):
        gtm = make_gtm()
        granted_txn(gtm, "A", add(1))
        with pytest.raises(ProtocolError):
            gtm.global_commit("A")

    def test_requires_all_objects_staged(self):
        gtm = make_gtm()
        gtm.create_object("Y", value=5)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("A", "Y", add(1))
        gtm.local_commit("A", "X")  # Y not staged
        with pytest.raises(ProtocolError):
            gtm.global_commit("A")

    def test_table2_full_trace_values(self):
        """The paper's Table II: 100 -> 104 -> 106."""
        gtm = make_gtm(100)
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("B", "X", add(2))
        gtm.apply("A", "X", add(1))
        gtm.apply("B", "X", add(2))
        gtm.apply("A", "X", add(3))
        gtm.local_commit("A", "X")
        gtm.global_commit("A")
        assert gtm.object("X").permanent_value() == 104
        gtm.local_commit("B", "X")
        gtm.global_commit("B")
        assert gtm.object("X").permanent_value() == 106

    def test_multiplicative_reconciliation_end_to_end(self):
        gtm = make_gtm(10)
        granted_txn(gtm, "A", multiply(2))
        granted_txn(gtm, "B", multiply(3))
        gtm.request_commit("A")
        gtm.pump_commits()
        gtm.request_commit("B")
        gtm.pump_commits()
        assert gtm.object("X").permanent_value() == 60

    def test_unlock_fires_after_commit(self):
        gtm = make_gtm()
        granted_txn(gtm, "A", assign(1))
        gtm.begin("B")
        gtm.invoke("B", "X", assign(2))     # queued behind A
        gtm.request_commit("A")
        txn_b = gtm.transaction("B")
        assert txn_b.state is _S.ACTIVE     # granted by ⟨unlock, X⟩
        assert gtm.object("X").is_pending("B")


class TestRequestCommitDriver:
    def test_single_object_roundtrip(self):
        gtm = make_gtm(100)
        granted_txn(gtm, "A", subtract(1))
        gtm.request_commit("A")
        assert gtm.object("X").permanent_value() == 99

    def test_multi_object_roundtrip(self):
        gtm = make_gtm(100)
        gtm.create_object("Y", value=50)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("A", "Y", add(2))
        gtm.apply("A", "X", add(1))
        gtm.apply("A", "Y", add(2))
        gtm.request_commit("A")
        assert gtm.object("X").permanent_value() == 101
        assert gtm.object("Y").permanent_value() == 52

    def test_deferred_then_pump_completes(self):
        gtm = make_gtm(100)
        granted_txn(gtm, "A", add(1))
        granted_txn(gtm, "B", add(2))
        gtm.local_commit("A", "X")
        assert gtm.request_commit("B") is None   # deferred behind A
        gtm.global_commit("A")
        completed = gtm.pump_commits()
        assert completed == ["B"]
        assert gtm.object("X").permanent_value() == 103

    def test_commit_while_waiting_rejected(self):
        """Constraint (iii): cannot commit while waiting."""
        gtm = make_gtm()
        granted_txn(gtm, "A", assign(1))
        gtm.begin("B")
        gtm.invoke("B", "X", assign(2))
        with pytest.raises(ProtocolError):
            gtm.request_commit("B")

    def test_invoke_after_commit_rejected(self):
        """Constraint (iii): no operations after commit."""
        gtm = make_gtm()
        granted_txn(gtm, "A", add(1))
        gtm.request_commit("A")
        with pytest.raises(ProtocolError):
            gtm.invoke("A", "X", add(1))

    def test_many_concurrent_committers_serialize_correctly(self):
        gtm = make_gtm(0)
        count = 25
        for index in range(count):
            granted_txn(gtm, f"T{index}", add(1))
        for index in range(count):
            gtm.request_commit(f"T{index}")
            gtm.pump_commits()
        assert gtm.object("X").permanent_value() == count

    def test_pump_commits_iterative_on_long_chain(self):
        """A long deferred chain must not recurse (stack safety)."""
        gtm = make_gtm(0)
        count = 150
        for index in range(count):
            granted_txn(gtm, f"T{index:03d}", add(1))
        for index in range(count):
            gtm.request_commit(f"T{index:03d}")
        gtm.pump_commits()
        assert gtm.object("X").permanent_value() == count


class TestEmptyCommit:
    """Benchmark finding F4: ⟨commit⟩ on a transaction that invoked
    nothing commits trivially."""

    @pytest.fixture
    def gtm(self):
        gtm = GlobalTransactionManager(
            sst_executor=SSTExecutor(create_backend("memory")))
        gtm.create_object("X", value=100)
        return gtm

    def test_commits_without_an_sst(self, gtm):
        gtm.begin("A")
        assert gtm.request_commit("A") is None      # no SST ran
        assert gtm.transaction("A").state is _S.COMMITTED
        assert gtm.sst_reports == []
        assert list(gtm.history.commit_order) == ["A"]
        assert gtm.object("X").permanent == {"value": 100}
        gtm.check_invariants()

    def test_a_waiting_transaction_is_still_refused(self, gtm):
        granted_txn(gtm, "H", assign(1))
        gtm.begin("W")
        assert gtm.invoke("W", "X", assign(2)) == "queued"
        assert gtm.transaction("W").t_wait
        assert not gtm.object("X").is_pending("W")  # nothing granted
        with pytest.raises(ProtocolError, match="is waiting"):
            gtm.request_commit("W")                 # constraint (iii)
        assert gtm.transaction("W").state is _S.WAITING
