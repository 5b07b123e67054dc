"""Tests for per-data-member invocations within one transaction.

The paper permits "at most one pending invocation of a single object
data member at any time" — i.e. a transaction may hold several members
of a structured object at once, as long as its own operations are
mutually compatible (constraint i).
"""

import pytest

from repro.check.oracle import check_episode, record_gtm
from repro.errors import ProtocolError
from repro.core.gtm import GlobalTransactionManager, GTMConfig, GrantOutcome
from repro.core.compatibility import LogicalDependence
from repro.core.opclass import add, assign, read, subtract
from repro.core.states import TransactionState

_S = TransactionState


def make_gtm(**kwargs):
    gtm = GlobalTransactionManager(
        config=GTMConfig(**kwargs) if kwargs else None)
    gtm.create_object("product", members={"quantity": 50, "price": 10.0})
    return gtm


class TestMultiMemberGrants:
    def test_one_transaction_two_members(self):
        gtm = make_gtm()
        gtm.begin("T")
        assert gtm.invoke("T", "product",
                          subtract(1, member="quantity")) == \
            GrantOutcome.GRANTED
        assert gtm.invoke("T", "product",
                          assign(12.0, member="price")) == \
            GrantOutcome.GRANTED
        assert len(gtm.object("product").pending["T"]) == 2

    def test_both_members_commit_together(self):
        gtm = make_gtm()
        gtm.begin("T")
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        gtm.invoke("T", "product", assign(12.0, member="price"))
        gtm.apply("T", "product", subtract(1, member="quantity"))
        gtm.apply("T", "product", assign(12.0, member="price"))
        gtm.request_commit("T")
        obj = gtm.object("product")
        assert obj.permanent_value("quantity") == 49
        assert obj.permanent_value("price") == 12.0

    def test_own_incompatible_members_rejected(self):
        """Constraint i: the transaction's own ops must commute."""
        gtm = make_gtm(dependence=LogicalDependence.of(
            {"quantity", "price"}))
        gtm.begin("T")
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        with pytest.raises(ProtocolError):
            gtm.invoke("T", "product", assign(12.0, member="price"))

    def test_same_member_different_class_rejected(self):
        gtm = make_gtm()
        gtm.begin("T")
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        with pytest.raises(ProtocolError):
            gtm.invoke("T", "product", assign(0, member="quantity"))

    def test_same_member_same_invocation_idempotent(self):
        gtm = make_gtm()
        gtm.begin("T")
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        assert gtm.invoke("T", "product",
                          subtract(1, member="quantity")) == \
            GrantOutcome.GRANTED
        assert len(gtm.object("product").pending["T"]) == 1

    def test_snapshot_taken_once_per_object(self):
        """The second member grant keeps the first grant's snapshot."""
        gtm = make_gtm()
        gtm.begin("T")
        gtm.begin("other")
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        # a concurrent compatible subtraction commits, changing quantity
        gtm.invoke("other", "product", subtract(5, member="quantity"))
        gtm.apply("other", "product", subtract(5, member="quantity"))
        gtm.request_commit("other")
        # T now also takes price: the read snapshot must still be the
        # original image (quantity 50), not a mixed-generation one
        gtm.invoke("T", "product", assign(9.0, member="price"))
        assert gtm.object("product").read_value("T", "quantity") == 50
        gtm.apply("T", "product", subtract(1, member="quantity"))
        gtm.apply("T", "product", assign(9.0, member="price"))
        gtm.request_commit("T")
        # reconciliation folds both deltas: 50 - 5 - 1
        assert gtm.object("product").permanent_value("quantity") == 44


class TestHoldAndWait:
    def test_holding_one_member_while_waiting_for_another(self):
        gtm = make_gtm()
        gtm.begin("T")
        gtm.begin("pricer")
        gtm.invoke("pricer", "product", assign(11.0, member="price"))
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        # price is held by pricer: T waits while keeping quantity
        assert gtm.invoke("T", "product",
                          assign(12.0, member="price")) == \
            GrantOutcome.QUEUED
        obj = gtm.object("product")
        assert obj.is_pending("T")       # still holds quantity
        assert obj.is_waiting("T")       # queued for price
        assert gtm.transaction("T").state is _S.WAITING

    def test_waiter_granted_when_member_frees(self):
        gtm = make_gtm()
        gtm.begin("T")
        gtm.begin("pricer")
        gtm.invoke("pricer", "product", assign(11.0, member="price"))
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        gtm.invoke("T", "product", assign(12.0, member="price"))
        gtm.apply("pricer", "product", assign(11.0, member="price"))
        gtm.request_commit("pricer")
        # pricer committed: T's price wait resolves even though T's own
        # quantity op is still pending on the object
        txn = gtm.transaction("T")
        assert txn.state is _S.ACTIVE
        assert len(gtm.object("product").pending["T"]) == 2
        gtm.apply("T", "product", subtract(1, member="quantity"))
        gtm.apply("T", "product", assign(12.0, member="price"))
        gtm.request_commit("T")
        obj = gtm.object("product")
        assert obj.permanent_value("price") == 12.0
        assert obj.permanent_value("quantity") == 49

    def test_multimember_schedule_serializable(self):
        gtm = make_gtm()
        gtm.begin("T")
        gtm.begin("other")
        gtm.invoke("T", "product", subtract(1, member="quantity"))
        gtm.invoke("T", "product", add(1.0, member="price"))
        gtm.invoke("other", "product", subtract(2, member="quantity"))
        gtm.apply("T", "product", subtract(1, member="quantity"))
        gtm.apply("T", "product", add(1.0, member="price"))
        gtm.apply("other", "product", subtract(2, member="quantity"))
        gtm.request_commit("other")
        gtm.request_commit("T")
        gtm.pump_commits()
        report = check_episode(record_gtm(gtm))
        assert report.serializable, report.mismatches

    def test_reader_spans_members_freely(self):
        gtm = make_gtm()
        gtm.begin("R")
        gtm.invoke("R", "product", read(member="quantity"))
        # READ of any member is allowed under any grant
        assert gtm.apply("R", "product", read(member="price")) == 10.0
        gtm.request_commit("R")
        assert gtm.transaction("R").state is _S.COMMITTED
