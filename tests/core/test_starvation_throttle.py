"""Tests for the Section VII extensions: grant policies and throttling."""

import pytest

from repro.core.conflicts import ConflictChecker
from repro.core.gtm import GlobalTransactionManager, GTMConfig, GrantOutcome
from repro.core.objects import ManagedObject, WaitEntry
from repro.core.opclass import add, assign, read, subtract
from repro.core.starvation import (
    FifoGrantPolicy,
    LockDenyPolicy,
    PriorityAgingPolicy,
)
from repro.core.states import TransactionState
from repro.core.throttle import NoThrottle, ValueThrottle

_S = TransactionState


def entry(txn_id, invocation, arrival=0.0):
    return WaitEntry(txn_id, invocation, arrival)


class TestFifoGrantPolicy:
    def test_grants_compatible_prefix(self):
        policy = FifoGrantPolicy()
        obj = ManagedObject("X", value=0)
        chosen = policy.select(
            obj,
            [entry("A", add(1)), entry("B", subtract(1)),
             entry("C", assign(0)), entry("D", add(2))],
            ConflictChecker(), now=0.0)
        assert [e.txn_id for e in chosen] == ["A", "B"]

    def test_single_incompatible_head_granted_alone(self):
        policy = FifoGrantPolicy()
        obj = ManagedObject("X", value=0)
        chosen = policy.select(
            obj, [entry("A", assign(0)), entry("B", assign(1))],
            ConflictChecker(), now=0.0)
        assert [e.txn_id for e in chosen] == ["A"]

    def test_never_denies_fresh(self):
        policy = FifoGrantPolicy()
        obj = ManagedObject("X", value=0)
        assert not policy.deny_fresh_invocation(obj, add(1),
                                                ConflictChecker(), now=0.0)

    def test_head_blocked_by_holder_grants_nothing(self):
        """Head-of-queue semantics: the head is NOT unconditionally
        granted — a conflicting holder blocks it (and, FIFO, everything
        behind it).  Pins the behaviour the docstring used to contradict."""
        policy = FifoGrantPolicy()
        obj = ManagedObject("X", value=0)
        obj.grant_pending("A", add(5))
        chosen = policy.select(
            obj, [entry("B", assign(1)), entry("C", add(1))],
            ConflictChecker(), now=0.0)
        assert chosen == []

    def test_head_own_holder_entry_ignored(self):
        """A waiter's own held ops must not block its grant (a txn may
        hold one member while queued for another)."""
        policy = FifoGrantPolicy()
        obj = ManagedObject("X", value=0)
        obj.grant_pending("B", add(5))
        chosen = policy.select(
            obj, [entry("B", assign(1))],
            ConflictChecker(), now=0.0)
        assert [e.txn_id for e in chosen] == ["B"]

    def test_unblocked_head_granted_with_compatible_holders(self):
        policy = FifoGrantPolicy()
        obj = ManagedObject("X", value=0)
        obj.grant_pending("A", add(3))
        chosen = policy.select(
            obj, [entry("B", add(1)), entry("C", subtract(2)),
                  entry("D", assign(9))],
            ConflictChecker(), now=0.0)
        assert [e.txn_id for e in chosen] == ["B", "C"]


class TestLockDenyPolicy:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            LockDenyPolicy(max_incompatible_waiters=0)

    def test_denies_past_threshold(self):
        policy = LockDenyPolicy(max_incompatible_waiters=2)
        obj = ManagedObject("X", value=0)
        obj.push_waiting(entry("W1", assign(0)))
        checker = ConflictChecker()
        assert not policy.deny_fresh_invocation(obj, add(1), checker, 0.0)
        obj.push_waiting(entry("W2", assign(1)))
        assert policy.deny_fresh_invocation(obj, add(1), checker, 0.0)

    def test_sleeping_waiters_do_not_count(self):
        policy = LockDenyPolicy(max_incompatible_waiters=1)
        obj = ManagedObject("X", value=0)
        obj.push_waiting(entry("W1", assign(0)))
        obj.mark_sleeping("W1")
        assert not policy.deny_fresh_invocation(obj, add(1),
                                                ConflictChecker(), 0.0)

    def test_compatible_waiters_do_not_count(self):
        policy = LockDenyPolicy(max_incompatible_waiters=1)
        obj = ManagedObject("X", value=0)
        obj.push_waiting(entry("W1", add(5)))
        assert not policy.deny_fresh_invocation(obj, add(1),
                                                ConflictChecker(), 0.0)

    def test_gtm_integration_bounds_overtaking(self):
        """With deny(1), the next compatible arrival queues behind the
        starving assignment instead of overtaking it."""
        gtm = GlobalTransactionManager(config=GTMConfig(
            grant_policy=LockDenyPolicy(max_incompatible_waiters=1)))
        gtm.create_object("X", value=100)
        gtm.begin("S1")
        gtm.invoke("S1", "X", subtract(1))
        gtm.begin("V")
        gtm.invoke("V", "X", assign(0))      # waits behind S1
        gtm.begin("S2")
        # denied the fast path even though compatible with S1
        assert gtm.invoke("S2", "X", subtract(1)) == GrantOutcome.QUEUED
        gtm.apply("S1", "X", subtract(1))
        gtm.request_commit("S1")
        # unlock: V is the queue head and gets the object
        assert gtm.object("X").is_pending("V")


class TestPriorityAgingPolicy:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            PriorityAgingPolicy(aging_rate=-1)
        with pytest.raises(ValueError):
            PriorityAgingPolicy(deny_threshold=-1)

    def test_select_orders_by_effective_priority(self):
        policy = PriorityAgingPolicy(aging_rate=1.0)
        obj = ManagedObject("X", value=0)
        old = entry("OLD", assign(0), arrival=0.0)
        young = entry("YOUNG", assign(1), arrival=9.0)
        chosen = policy.select(obj, [young, old], ConflictChecker(),
                               now=10.0)
        assert chosen[0].txn_id == "OLD"

    def test_base_priority_wins_over_small_age(self):
        policy = PriorityAgingPolicy(
            aging_rate=0.1,
            priority_of=lambda t: 100 if t == "VIP" else 0)
        obj = ManagedObject("X", value=0)
        chosen = policy.select(
            obj,
            [entry("OLD", assign(0), 0.0), entry("VIP", assign(1), 9.0)],
            ConflictChecker(), now=10.0)
        assert chosen[0].txn_id == "VIP"

    def test_denies_once_waiter_aged_past_threshold(self):
        policy = PriorityAgingPolicy(aging_rate=2.0, deny_threshold=10.0)
        obj = ManagedObject("X", value=0)
        obj.push_waiting(entry("W", assign(0), arrival=0.0))
        checker = ConflictChecker()
        assert not policy.deny_fresh_invocation(obj, add(1), checker,
                                                now=4.0)   # 8 < 10
        assert policy.deny_fresh_invocation(obj, add(1), checker,
                                            now=5.0)       # 10 >= 10

    def test_reordered_head_still_blocked_by_holder(self):
        """Head-of-queue semantics after aging reorder: the aged head is
        still subject to the holder conflict check — priority never
        overrides Table I."""
        policy = PriorityAgingPolicy(aging_rate=1.0)
        obj = ManagedObject("X", value=0)
        obj.grant_pending("H", add(5))
        chosen = policy.select(
            obj,
            [entry("YOUNG", add(1), arrival=9.0),
             entry("OLD", assign(0), arrival=0.0)],
            ConflictChecker(), now=10.0)
        # OLD outranks YOUNG but conflicts with holder H; FIFO-style
        # no-overtake then blocks YOUNG behind it too.
        assert chosen == []

    def test_reordered_head_granted_when_unblocked(self):
        policy = PriorityAgingPolicy(aging_rate=1.0)
        obj = ManagedObject("X", value=0)
        chosen = policy.select(
            obj,
            [entry("YOUNG", add(1), arrival=9.0),
             entry("OLD", assign(0), arrival=0.0)],
            ConflictChecker(), now=10.0)
        assert [e.txn_id for e in chosen] == ["OLD"]


class TestValueThrottle:
    def test_admits_up_to_stock(self):
        throttle = ValueThrottle()
        obj = ManagedObject("X", value=2)
        obj.grant_pending("A", subtract(1))
        assert throttle.admits(obj, subtract(1))   # 1 active < 2
        obj.grant_pending("B", subtract(1))
        assert not throttle.admits(obj, subtract(1))
        assert throttle.denials == 1

    def test_reads_and_increments_always_admitted(self):
        throttle = ValueThrottle()
        obj = ManagedObject("X", value=0)
        assert throttle.admits(obj, read())
        assert throttle.admits(obj, add(5))
        assert throttle.admits(obj, assign(1))

    def test_sleeping_decrementers_not_counted(self):
        throttle = ValueThrottle()
        obj = ManagedObject("X", value=1)
        obj.grant_pending("A", subtract(1))
        obj.mark_sleeping("A")
        assert throttle.admits(obj, subtract(1))

    def test_zero_stock_admits_nothing(self):
        throttle = ValueThrottle()
        obj = ManagedObject("X", value=0)
        assert not throttle.admits(obj, subtract(1))

    def test_custom_limit_fn(self):
        throttle = ValueThrottle(limit_fn=lambda value: 1)
        obj = ManagedObject("X", value=1000)
        obj.grant_pending("A", subtract(1))
        assert not throttle.admits(obj, subtract(1))

    def test_no_throttle_admits_everything(self):
        obj = ManagedObject("X", value=0)
        assert NoThrottle().admits(obj, subtract(1))

    def test_gtm_integration_queues_excess_buyers(self):
        gtm = GlobalTransactionManager(config=GTMConfig(
            throttle=ValueThrottle()))
        gtm.create_object("X", value=2)
        outcomes = []
        for index in range(4):
            name = f"B{index}"
            gtm.begin(name)
            outcomes.append(gtm.invoke(name, "X", subtract(1)))
        assert outcomes == [GrantOutcome.GRANTED, GrantOutcome.GRANTED,
                            GrantOutcome.QUEUED, GrantOutcome.QUEUED]
