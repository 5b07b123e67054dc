"""Tests for Algorithms 1 and 2: ⟨begin, A⟩ and ⟨op, X, A⟩."""

import pytest

from repro.errors import GTMError, ProtocolError
from repro.core.compatibility import READ_WRITE
from repro.core.gtm import GlobalTransactionManager, GrantOutcome, GTMConfig
from repro.core.opclass import add, assign, multiply, read, subtract
from repro.core.states import TransactionState

_S = TransactionState


def make_gtm(value: float = 100) -> GlobalTransactionManager:
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=value)
    return gtm


class TestBegin:
    """Algorithm 1: postcondition A_state = Active."""

    def test_begin_creates_active_transaction(self):
        gtm = make_gtm()
        txn = gtm.begin("A")
        assert txn.state is _S.ACTIVE

    def test_duplicate_begin_rejected(self):
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(ProtocolError):
            gtm.begin("A")

    def test_begin_records_time(self):
        gtm = make_gtm()
        txn = gtm.begin("A")
        assert txn.begin_time > 0


class TestCompatibleInvocation:
    """Algorithm 2, compatible branch."""

    def test_grant_on_free_object(self):
        gtm = make_gtm()
        gtm.begin("A")
        assert gtm.invoke("A", "X", add(1)) == GrantOutcome.GRANTED

    def test_grant_snapshots_read_and_temp(self):
        gtm = make_gtm(value=100)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        obj = gtm.object("X")
        assert obj.read_value("A") == 100          # X_read^A = X_permanent
        assert gtm.read_virtual("A", "X") == 100   # A_temp^X = X_permanent

    def test_grant_adds_to_pending(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        assert gtm.object("X").is_pending("A")

    def test_compatible_classes_share_object(self):
        gtm = make_gtm()
        for name in ("A", "B", "C"):
            gtm.begin(name)
        assert gtm.invoke("A", "X", add(1)) == GrantOutcome.GRANTED
        assert gtm.invoke("B", "X", subtract(2)) == GrantOutcome.GRANTED
        assert gtm.invoke("C", "X", read()) == GrantOutcome.GRANTED
        assert len(gtm.object("X").pending) == 3

    def test_reader_does_not_block_writer(self):
        gtm = make_gtm()
        gtm.begin("R")
        gtm.begin("W")
        gtm.invoke("R", "X", read())
        assert gtm.invoke("W", "X", assign(5)) == GrantOutcome.GRANTED

    def test_repeat_identical_invoke_is_idempotent(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        assert gtm.invoke("A", "X", add(1)) == GrantOutcome.GRANTED
        assert len(gtm.object("X").pending) == 1

    def test_unknown_object_raises(self):
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(GTMError):
            gtm.invoke("A", "ghost", add(1))

    def test_every_object_lookup_names_the_unknown_object(self):
        # ``GTM.object`` reads the lock table's dict itself; the error
        # is still the lock table's, word for word
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(GTMError) as by_table:
            gtm.lock_table.get("ghost")
        for call in (lambda: gtm.object("ghost"),
                     lambda: gtm.invoke("A", "ghost", add(1)),
                     lambda: gtm.apply("A", "ghost", add(1)),
                     lambda: gtm.local_commit("A", "ghost")):
            with pytest.raises(GTMError) as by_facade:
                call()
            assert type(by_facade.value) is GTMError
            assert str(by_facade.value) == str(by_table.value) == \
                "unknown object 'ghost'"
            assert by_facade.value.__suppress_context__

    def test_a_commit_names_an_involved_object_the_table_lost(self):
        # the commit path subscripts the lock table's dict itself; an
        # involved object cannot go missing (the table drops none), and
        # were one missing, every commit-time lookup would still name it
        gtm = make_gtm()
        gtm.begin("A")
        assert gtm.invoke("A", "X", add(1)) == GrantOutcome.GRANTED
        gtm.apply("A", "X", add(1))
        gtm.local_commit("A", "X")
        assert gtm.transaction("A").state is _S.COMMITTING
        del gtm.lock_table.objects["X"]
        for call in (lambda: gtm.commit_ready("A"),
                     lambda: gtm.pump_commits(),
                     lambda: gtm.request_commit("A"),
                     lambda: gtm.global_commit("A"),
                     lambda: gtm.abort("A")):
            with pytest.raises(GTMError) as lost:
                call()
            assert type(lost.value) is GTMError
            assert str(lost.value) == "unknown object 'X'"
            assert lost.value.__suppress_context__

    def test_unknown_member_raises(self):
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(GTMError):
            gtm.invoke("A", "X", add(1, member="ghost"))

    def test_multi_object_grants(self):
        gtm = make_gtm()
        gtm.create_object("Y", value=50)
        gtm.begin("A")
        assert gtm.invoke("A", "X", add(1)) == GrantOutcome.GRANTED
        assert gtm.invoke("A", "Y", add(1)) == GrantOutcome.GRANTED
        assert gtm.transaction("A").involved == {"X", "Y"}


class TestIncompatibleInvocation:
    """Algorithm 2, not-compatible branch."""

    def test_conflicting_class_queues(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", add(1))
        assert gtm.invoke("B", "X", assign(0)) == GrantOutcome.QUEUED

    def test_waiter_state_and_bookkeeping(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("B", "X", assign(0))
        txn = gtm.transaction("B")
        obj = gtm.object("X")
        assert txn.state is _S.WAITING          # A_state = Waiting
        assert "X" in txn.t_wait                # A_t_wait recorded
        assert obj.is_waiting("B")              # X_waiting ∪ (A, op)
        assert ("X", "value") not in txn.temp   # A_temp^X = ⊥

    def test_assign_blocks_assign(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        assert gtm.invoke("B", "X", assign(2)) == GrantOutcome.QUEUED

    def test_addsub_blocks_muldiv(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", add(1))
        assert gtm.invoke("B", "X", multiply(2)) == GrantOutcome.QUEUED

    def test_waiting_transaction_cannot_invoke_elsewhere(self):
        gtm = make_gtm()
        gtm.create_object("Y", value=1)
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))  # B now waits
        with pytest.raises(ProtocolError):
            gtm.invoke("B", "Y", add(1))

    def test_different_class_reinvoke_rejected(self):
        """Constraint (i): one class per object component."""
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        with pytest.raises(ProtocolError):
            gtm.invoke("A", "X", assign(5))

    def test_sleeping_holder_does_not_block(self):
        """Conflict checks exclude X_sleeping (Algorithm 2)."""
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", add(1))
        gtm.sleep("A")
        assert gtm.invoke("B", "X", assign(0)) == GrantOutcome.GRANTED

    def test_committing_holder_blocks(self):
        """Conflict checks include X_committing (Algorithm 2)."""
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", add(1))
        gtm.local_commit("A", "X")     # A in X_committing, not pending
        assert gtm.invoke("B", "X", assign(0)) == GrantOutcome.QUEUED


class TestReadUpgrade:
    """Under the read/write matrix a READ is a shared lock and a later
    update of the same member its upgrade (Section II's first
    strategy); under Table I the two commute and the second invocation
    is refused, one invocation per member."""

    @staticmethod
    def rw_gtm() -> GlobalTransactionManager:
        gtm = GlobalTransactionManager(GTMConfig(matrix=READ_WRITE))
        gtm.create_object("X", value=100)
        return gtm

    def test_lone_reader_upgrades_at_once(self):
        gtm = self.rw_gtm()
        gtm.begin("A")
        assert gtm.invoke("A", "X", read()) == GrantOutcome.GRANTED
        assert gtm.invoke("A", "X", subtract(1)) == GrantOutcome.GRANTED
        assert gtm.object("X").pending["A"] == {"value": subtract(1)}
        gtm.apply("A", "X", subtract(1))
        gtm.request_commit("A")
        assert gtm.object("X").permanent_value() == 99
        gtm.check_invariants()

    def test_two_readers_deadlock_on_the_upgrade(self):
        gtm = self.rw_gtm()
        for name in ("A", "B"):
            gtm.begin(name)
            assert gtm.invoke(name, "X", read()) == GrantOutcome.GRANTED
        assert gtm.invoke("A", "X", subtract(1)) == GrantOutcome.QUEUED
        # B's upgrade closes A -> B -> A; B, the youngest, is the victim
        assert gtm.invoke("B", "X", subtract(1)) == GrantOutcome.ABORTED
        assert gtm.deadlocks_detected == 1
        assert gtm.transaction("A").state is _S.ACTIVE
        assert gtm.object("X").pending == {"A": {"value": subtract(1)}}

    def test_table_one_still_refuses_a_second_invocation(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", read())
        with pytest.raises(ProtocolError, match="at most one"):
            gtm.invoke("A", "X", subtract(1))


class TestApply:
    def test_apply_updates_virtual_value_only(self):
        gtm = make_gtm(value=100)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        assert gtm.apply("A", "X", add(1)) == 101
        assert gtm.object("X").permanent_value() == 100

    def test_apply_accumulates(self):
        gtm = make_gtm(value=100)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.apply("A", "X", add(1))
        gtm.apply("A", "X", add(3))
        assert gtm.read_virtual("A", "X") == 104

    def test_read_apply_allowed_under_any_grant(self):
        gtm = make_gtm(value=100)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        assert gtm.apply("A", "X", read()) == 100

    def test_apply_outside_granted_class_rejected(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        with pytest.raises(ProtocolError):
            gtm.apply("A", "X", assign(7))

    def test_apply_without_grant_rejected(self):
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(ProtocolError):
            gtm.apply("A", "X", add(1))

    def test_apply_while_waiting_rejected(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))
        with pytest.raises(ProtocolError):
            gtm.apply("B", "X", assign(2))
