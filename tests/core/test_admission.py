"""Tests for the admission layer: LockTable and grant/wait/unlock order."""

import pytest

from repro.errors import GTMError
from repro.core.admission import LockTable
from repro.core.gtm import GlobalTransactionManager, GrantOutcome
from repro.core.objects import ManagedObject
from repro.core.opclass import add, assign, subtract
from repro.core.states import TransactionState

_S = TransactionState


class TestLockTable:
    def test_register_and_get(self):
        table = LockTable()
        obj = table.register(ManagedObject("X", value=1))
        assert table.get("X") is obj
        assert "X" in table
        assert len(table) == 1
        assert table.values() == (obj,)

    def test_duplicate_registration_rejected(self):
        table = LockTable()
        table.register(ManagedObject("X", value=1))
        with pytest.raises(GTMError):
            table.register(ManagedObject("X", value=2))

    def test_unknown_object_raises(self):
        with pytest.raises(GTMError):
            LockTable().get("missing")

    def test_iteration_follows_registration_order(self):
        """Not name order: what keeps reports and final-value dumps
        byte-stable."""
        names = ["obj-7", "obj-30", "obj-1", "obj-12", "obj-4"]
        gtm = GlobalTransactionManager()
        for name in names:
            gtm.create_object(name, value=0)
        assert [obj.name for obj in gtm.lock_table.values()] == names
        assert list(gtm.objects) == names


def make_gtm():
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=100)
    return gtm


class TestGrantWaitUnlockOrdering:
    def test_incompatible_waiters_granted_in_fifo_order(self):
        gtm = make_gtm()
        for name in ("A", "B", "C"):
            gtm.begin(name)
        assert gtm.invoke("A", "X", assign(1)) == GrantOutcome.GRANTED
        assert gtm.invoke("B", "X", assign(2)) == GrantOutcome.QUEUED
        assert gtm.invoke("C", "X", assign(3)) == GrantOutcome.QUEUED
        gtm.apply("A", "X", assign(1))
        gtm.request_commit("A")
        # B (first in the queue) got the unlock grant; C still waits
        assert gtm.object("X").is_pending("B")
        assert gtm.transaction("C").state is _S.WAITING
        gtm.apply("B", "X", assign(2))
        gtm.request_commit("B")
        assert gtm.object("X").is_pending("C")

    def test_fresh_compatible_invocation_overtakes_by_default(self):
        """FIFO fast path: a compatible fresh invocation is granted even
        with an incompatible waiter queued (LockDenyPolicy bounds this)."""
        gtm = make_gtm()
        for name in ("A", "B", "C"):
            gtm.begin(name)
        gtm.invoke("A", "X", add(1))          # additive holder
        assert gtm.invoke("B", "X", assign(9)) == GrantOutcome.QUEUED
        assert gtm.invoke("C", "X", add(2)) == GrantOutcome.GRANTED

    def test_lock_deny_policy_queues_fresh_compatible(self):
        from repro.core.gtm import GTMConfig
        from repro.core.starvation import LockDenyPolicy

        gtm = GlobalTransactionManager(config=GTMConfig(
            grant_policy=LockDenyPolicy(max_incompatible_waiters=1)))
        gtm.create_object("X", value=100)
        for name in ("A", "B", "C"):
            gtm.begin(name)
        gtm.invoke("A", "X", add(1))
        assert gtm.invoke("B", "X", assign(9)) == GrantOutcome.QUEUED
        # the fresh add would overtake B forever; the deny policy queues it
        assert gtm.invoke("C", "X", add(2)) == GrantOutcome.QUEUED
        assert gtm.transaction("C").state is _S.WAITING

    def test_compatible_batch_granted_together(self):
        gtm = make_gtm()
        for name in ("A", "B", "C"):
            gtm.begin(name)
        gtm.invoke("A", "X", assign(5))
        assert gtm.invoke("B", "X", add(1)) == GrantOutcome.QUEUED
        assert gtm.invoke("C", "X", add(2)) == GrantOutcome.QUEUED
        gtm.apply("A", "X", assign(5))
        gtm.request_commit("A")
        # one ⟨unlock, X⟩ admits the whole compatible prefix
        assert gtm.object("X").is_pending("B")
        assert gtm.object("X").is_pending("C")

    def test_unlock_event_reports_granted_batch(self):
        from repro.core.events import GTMObserver

        class UnlockRecorder(GTMObserver):
            def __init__(self):
                self.batches = []

            def on_unlock(self, obj, granted, now):
                self.batches.append((obj.name, granted))

        recorder = UnlockRecorder()
        gtm = GlobalTransactionManager(observer=recorder)
        gtm.create_object("X", value=100)
        for name in ("A", "B"):
            gtm.begin(name)
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", subtract(1))
        gtm.apply("A", "X", assign(1))
        gtm.request_commit("A")
        assert ("X", ("B",)) in recorder.batches


class TestLateGrantSnapshot:
    """Regression: a member granted after the first whole-object snapshot
    must be re-snapshotted at grant time, or an assign silently rolls
    back concurrently committed updates (a lost update)."""

    def test_pump_granted_member_sees_committed_value(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("product", members={"quantity": 1000,
                                              "price": 10.0})
        gtm.begin("T0")
        gtm.begin("T1")
        # T0 holds an additive grant on quantity.
        gtm.invoke("T0", "product", add(1, member="quantity"))
        # T1 snapshots the object for price, then queues on quantity.
        gtm.invoke("T1", "product", assign(12.0, member="price"))
        assert gtm.invoke("T1", "product",
                          assign(500, member="quantity")) == \
            GrantOutcome.QUEUED
        # T0 commits: quantity 1000 -> 1001; the pump then grants T1.
        gtm.apply("T0", "product", add(1, member="quantity"))
        gtm.request_commit("T0")
        assert gtm.object("product").is_pending("T1")
        # T1's freshly granted member must see the committed 1001, not
        # the stale 1000 from its first (price-time) snapshot.
        assert gtm.read_virtual("T1", "product", "quantity") == 1001
        obj = gtm.object("product")
        assert obj.read_value("T1", "quantity") == 1001

    def test_held_member_snapshot_not_refreshed(self):
        """The already-held member keeps its original consistent image."""
        gtm = GlobalTransactionManager()
        gtm.create_object("product", members={"quantity": 100,
                                              "price": 5.0})
        gtm.begin("T0")
        gtm.invoke("T0", "product", add(7, member="quantity"))
        gtm.apply("T0", "product", add(7, member="quantity"))
        # re-invoking the identical grant is idempotent and must not
        # clobber the virtual value already accumulated
        assert gtm.invoke("T0", "product",
                          add(7, member="quantity")) == GrantOutcome.GRANTED
        assert gtm.read_virtual("T0", "product", "quantity") == 107
