"""Tests for the commit pipeline: Eq. (1)/(2) reconciliation of
interleaved compatible holders, deferral, and commit drivers."""

import pytest

from repro.errors import ProtocolError, ReconciliationError
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign, multiply, subtract
from repro.core.states import TransactionState

_S = TransactionState


def make_gtm(value=100):
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=value)
    return gtm


class TestAdditiveReconciliation:
    """Eq. (1): x_permanent + (a_temp - x_read) per committer."""

    def test_interleaved_add_and_subtract_holders(self):
        gtm = make_gtm(100)
        for name in ("adder", "subber"):
            gtm.begin(name)
        gtm.invoke("adder", "X", add(30))
        gtm.invoke("subber", "X", subtract(12))
        gtm.apply("adder", "X", add(30))
        gtm.apply("subber", "X", subtract(12))
        # both saw x_read = 100; commits fold the deltas in sequence
        gtm.request_commit("adder")        # 100 + 30 = 130
        gtm.request_commit("subber")       # 130 - 12 = 118
        gtm.pump_commits()
        assert gtm.object("X").permanent_value() == 118

    def test_reverse_commit_order_same_result(self):
        gtm = make_gtm(100)
        for name in ("adder", "subber"):
            gtm.begin(name)
        gtm.invoke("adder", "X", add(30))
        gtm.invoke("subber", "X", subtract(12))
        gtm.apply("adder", "X", add(30))
        gtm.apply("subber", "X", subtract(12))
        gtm.request_commit("subber")
        gtm.request_commit("adder")
        gtm.pump_commits()
        assert gtm.object("X").permanent_value() == 118


class TestMultiplicativeReconciliation:
    """Eq. (2): x_permanent * (a_temp / x_read) per committer."""

    def test_interleaved_multiply_and_divide_holders(self):
        gtm = make_gtm(100)
        for name in ("doubler", "halver"):
            gtm.begin(name)
        gtm.invoke("doubler", "X", multiply(2))
        gtm.invoke("halver", "X", multiply(0.5))
        gtm.apply("doubler", "X", multiply(2))
        gtm.apply("halver", "X", multiply(0.5))
        gtm.request_commit("doubler")      # 100 * 2 = 200
        gtm.request_commit("halver")       # 200 * 0.5 = 100
        gtm.pump_commits()
        assert gtm.object("X").permanent_value() == pytest.approx(100)

    def test_three_way_multiplicative_composition(self):
        gtm = make_gtm(10)
        factors = {"a": 2, "b": 3, "c": 0.5}
        for name, factor in factors.items():
            gtm.begin(name)
            gtm.invoke(name, "X", multiply(factor))
            gtm.apply(name, "X", multiply(factor))
        for name in factors:
            gtm.request_commit(name)
            gtm.pump_commits()
        assert gtm.object("X").permanent_value() == pytest.approx(30)


class TestDeferredCommits:
    def test_second_committer_defers_and_pumps(self):
        gtm = make_gtm(100)
        for name in ("A", "B"):
            gtm.begin(name)
        gtm.invoke("A", "X", add(1))
        gtm.invoke("B", "X", add(2))
        gtm.apply("A", "X", add(1))
        gtm.apply("B", "X", add(2))
        assert gtm.local_commit("A", "X") is True
        assert gtm.local_commit("B", "X") is False   # deferred behind A
        assert gtm.transaction("B").state is _S.COMMITTING
        gtm.global_commit("A")
        # A's departure replayed B's deferred ⟨commit, X, B⟩
        assert gtm.commit_ready("B")
        assert gtm.pump_commits() == ["B"]
        assert gtm.object("X").permanent_value() == 103

    def test_abort_cancels_deferred_request(self):
        gtm = make_gtm(100)
        for name in ("A", "B"):
            gtm.begin(name)
        gtm.invoke("A", "X", add(1))
        gtm.invoke("B", "X", add(2))
        gtm.apply("A", "X", add(1))
        gtm.apply("B", "X", add(2))
        gtm.local_commit("A", "X")
        gtm.local_commit("B", "X")          # deferred
        gtm.abort("B")
        gtm.global_commit("A")
        assert gtm.pump_commits() == []
        assert gtm.object("X").permanent_value() == 101


class TestDriverPreconditions:
    def test_request_commit_while_waiting_rejected(self):
        gtm = make_gtm()
        for name in ("A", "B"):
            gtm.begin(name)
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))     # B waits
        with pytest.raises(ProtocolError):
            gtm.request_commit("B")

    def test_global_commit_requires_all_objects_staged(self):
        gtm = make_gtm()
        gtm.create_object("Y", value=5)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("A", "Y", add(1))
        gtm.apply("A", "X", add(1))
        gtm.apply("A", "Y", add(1))
        gtm.local_commit("A", "X")          # Y not staged yet
        with pytest.raises(ProtocolError):
            gtm.global_commit("A")


class TestFailedReconciliation:
    """A reconcile that raises aborts its transaction: it used to leave
    it Committing, holding X_committing, and every later committer on X
    queued behind it for ever."""

    def test_the_committer_aborts_and_frees_the_object(self):
        gtm = make_gtm(0)
        gtm.begin("A")
        gtm.invoke("A", "X", multiply(2))
        gtm.apply("A", "X", multiply(2))
        with pytest.raises(ReconciliationError):
            gtm.request_commit("A")   # Eq. (2) is undefined at X_read = 0
        assert gtm.transaction("A").state is _S.ABORTED
        assert not gtm.object("X").committing
        gtm.begin("B")
        gtm.invoke("B", "X", add(3))
        gtm.apply("B", "X", add(3))
        gtm.request_commit("B")
        assert gtm.transaction("B").state is _S.COMMITTED
        assert gtm.object("X").permanent_value() == 3
        gtm.check_invariants()

    def test_a_deferred_failure_does_not_sink_the_committer_it_queued_behind(
            self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", members={"zero": 0, "five": 5})
        for name, member, factor in (("A", "five", 2), ("B", "zero", 3)):
            gtm.begin(name)
            gtm.invoke(name, "X", multiply(factor, member=member))
            gtm.apply(name, "X", multiply(factor, member=member))
        assert gtm.local_commit("A", "X") is True
        assert gtm.local_commit("B", "X") is False   # deferred behind A
        gtm.global_commit("A")     # replays B's commit, whose Eq. (2) fails
        assert gtm.transaction("A").state is _S.COMMITTED
        assert gtm.transaction("B").state is _S.ABORTED
        assert gtm.object("X").permanent == {"zero": 0, "five": 10}
        assert not gtm.object("X").committing
        gtm.check_invariants()
