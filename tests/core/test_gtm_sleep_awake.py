"""Tests for Algorithms 7-10: sleep and awake, local and global."""

import pytest

from repro.errors import ProtocolError
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign, read, subtract
from repro.core.states import TransactionState

_S = TransactionState


def make_gtm(value: float = 100) -> GlobalTransactionManager:
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=value)
    return gtm


class TestSleep:
    """Algorithms 7 and 8."""

    def test_sleep_from_active(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.sleep("A")
        txn = gtm.transaction("A")
        assert txn.state is _S.SLEEPING
        assert txn.t_sleep is not None                 # A_t_sleep set
        assert "A" in gtm.object("X").sleeping         # Algorithm 7

    def test_sleep_from_waiting(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))   # B waits
        gtm.sleep("B")
        assert gtm.transaction("B").state is _S.SLEEPING
        assert "B" in gtm.object("X").sleeping

    def test_sleep_requires_active_or_waiting(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.local_commit("A", "X")
        with pytest.raises(ProtocolError):
            gtm.sleep("A")

    def test_sleeping_holder_lets_waiters_in(self):
        """Sleep fires ⟨unlock, X⟩ for the effective lock set."""
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("B", "X", assign(0))   # waits behind A
        gtm.sleep("A")                    # A stops blocking
        assert gtm.transaction("B").state is _S.ACTIVE
        assert gtm.object("X").is_pending("B")


class TestAwakeNoConflict:
    """Algorithm 9 (no-conflict cases) and Algorithm 10."""

    def test_pending_sleeper_resumes_with_virtual_data(self):
        gtm = make_gtm(100)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.apply("A", "X", add(1))
        gtm.sleep("A")
        assert gtm.awake("A")
        txn = gtm.transaction("A")
        assert txn.state is _S.ACTIVE
        assert txn.t_sleep is None
        assert gtm.read_virtual("A", "X") == 101   # kept its work

    def test_compatible_commit_during_sleep_is_harmless(self):
        gtm = make_gtm(100)
        gtm.begin("A")
        gtm.invoke("A", "X", subtract(1))
        gtm.apply("A", "X", subtract(1))
        gtm.sleep("A")
        gtm.begin("B")
        gtm.invoke("B", "X", subtract(2))
        gtm.apply("B", "X", subtract(2))
        gtm.request_commit("B")
        assert gtm.awake("A")
        gtm.request_commit("A")
        assert gtm.object("X").permanent_value() == 97

    def test_waiting_sleeper_granted_on_awake(self):
        """Algorithm 9 case 1: the awakening waiter is granted directly.

        The blocker must have *aborted* (not committed): a conflicting
        commit during the sleep triggers the abort case instead.
        """
        gtm = make_gtm(100)
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))   # B waits
        gtm.sleep("B")
        gtm.abort("A")                    # blocker goes away without commit
        assert gtm.object("X").is_waiting("B")   # θ skipped the sleeper
        assert gtm.awake("B")
        obj = gtm.object("X")
        assert obj.is_pending("B")
        assert obj.read_value("B") == 100  # fresh snapshot at grant
        assert gtm.transaction("B").state is _S.ACTIVE

    def test_waiting_sleeper_aborted_by_conflicting_commit(self):
        """A conflicting commit during the sleep kills even a waiter
        (the committed-after-t_sleep clause of Algorithm 9)."""
        gtm = make_gtm(100)
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))   # B waits
        gtm.sleep("B")
        gtm.apply("A", "X", assign(1))
        gtm.request_commit("A")           # conflicting commit during sleep
        assert not gtm.awake("B")
        assert gtm.transaction("B").state is _S.ABORTED

    def test_awake_requires_sleeping(self):
        gtm = make_gtm()
        gtm.begin("A")
        with pytest.raises(ProtocolError):
            gtm.awake("A")

    def test_sleep_awake_cycle_repeatable(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        for _ in range(3):
            gtm.sleep("A")
            assert gtm.awake("A")
        assert gtm.transaction("A").state is _S.ACTIVE


class TestAwakeConflict:
    """Algorithm 9, third case: conflicts during sleeping-time."""

    def test_incompatible_pending_aborts_sleeper(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", subtract(1))
        gtm.sleep("A")
        gtm.invoke("B", "X", assign(0))   # granted: A sleeping
        assert not gtm.awake("A")
        txn = gtm.transaction("A")
        assert txn.state is _S.ABORTED
        assert txn.t_sleep is None
        obj = gtm.object("X")
        assert not obj.is_pending("A")
        assert "A" not in obj.sleeping

    def test_incompatible_committed_after_sleep_aborts(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", subtract(1))
        gtm.sleep("A")
        gtm.invoke("B", "X", assign(0))
        gtm.apply("B", "X", assign(0))
        gtm.request_commit("B")           # B fully committed during sleep
        assert not gtm.awake("A")
        assert gtm.transaction("A").state is _S.ABORTED

    def test_compatible_committed_after_sleep_survives(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", subtract(1))
        gtm.sleep("A")
        gtm.invoke("B", "X", subtract(2))
        gtm.apply("B", "X", subtract(2))
        gtm.request_commit("B")
        assert gtm.awake("A")

    def test_incompatible_commit_before_sleep_does_not_abort(self):
        """Only X_tc > A_t_sleep counts (Algorithm 9)."""
        gtm = make_gtm()
        gtm.begin("B")
        gtm.invoke("B", "X", assign(7))
        gtm.apply("B", "X", assign(7))
        gtm.request_commit("B")           # commits BEFORE A sleeps
        gtm.begin("A")
        gtm.invoke("A", "X", subtract(1))
        gtm.sleep("A")
        assert gtm.awake("A")

    def test_waiting_sleeper_aborted_by_conflicting_pending(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.begin("C")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))   # B waits behind A
        gtm.sleep("B")
        gtm.apply("A", "X", assign(1))
        gtm.request_commit("A")
        gtm.invoke("C", "X", assign(3))   # C granted at unlock
        assert not gtm.awake("B")         # conflicting C pending
        assert gtm.transaction("B").state is _S.ABORTED
        assert not gtm.object("X").is_waiting("B")

    def test_read_sleeper_never_aborted(self):
        """Reads are compatible with everything in the matrix except
        insert/delete, so a sleeping reader survives updates."""
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", read())
        gtm.sleep("A")
        gtm.invoke("B", "X", assign(0))
        gtm.apply("B", "X", assign(0))
        gtm.request_commit("B")
        assert gtm.awake("A")

    def test_abort_on_awake_unblocks_commit_path(self):
        """After the sleeper dies, its objects fire ⟨unlock⟩."""
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.begin("C")
        gtm.invoke("A", "X", subtract(1))
        gtm.sleep("A")
        gtm.invoke("B", "X", assign(5))
        gtm.invoke("C", "X", assign(6))   # queued behind B
        gtm.apply("B", "X", assign(5))
        gtm.request_commit("B")
        assert not gtm.awake("A")
        # C was granted when B committed (A's sleep doesn't block)
        assert gtm.object("X").is_pending("C")
