"""Tests for GTM-level deadlock detection (Section VII, wait-for graph)."""

import pytest

from repro.core.deadlock import DeadlockPolicing, VictimPolicy
from repro.core.gtm import GlobalTransactionManager, GrantOutcome
from repro.core.opclass import assign, multiply, subtract
from repro.core.states import TransactionState
from repro.errors import GTMError

_S = TransactionState


def make_gtm() -> GlobalTransactionManager:
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=100)
    gtm.create_object("Y", value=100)
    return gtm


def build_cycle(gtm) -> str:
    """A holds X and waits on Y; B holds Y and requests X."""
    gtm.begin("A")
    gtm.begin("B")
    assert gtm.invoke("A", "X", assign(1)) == GrantOutcome.GRANTED
    assert gtm.invoke("B", "Y", assign(2)) == GrantOutcome.GRANTED
    assert gtm.invoke("A", "Y", assign(1)) == GrantOutcome.QUEUED
    return gtm.invoke("B", "X", assign(2))  # closes the cycle


class TestDetection:
    def test_cycle_aborts_youngest_requester(self):
        gtm = make_gtm()
        outcome = build_cycle(gtm)
        # B is the youngest (began second) => B is the victim
        assert outcome == GrantOutcome.ABORTED
        assert gtm.transaction("B").state is _S.ABORTED
        assert gtm.deadlocks_detected == 1

    def test_survivor_granted_after_victim_dies(self):
        gtm = make_gtm()
        build_cycle(gtm)
        # B's abort released Y: A must hold its grant now
        assert gtm.object("Y").is_pending("A")
        assert gtm.transaction("A").state is _S.ACTIVE

    def test_survivor_commits_cleanly(self):
        gtm = make_gtm()
        build_cycle(gtm)
        gtm.apply("A", "X", assign(1))
        gtm.apply("A", "Y", assign(1))
        gtm.request_commit("A")
        gtm.pump_commits()
        assert gtm.object("X").permanent_value() == 1
        assert gtm.object("Y").permanent_value() == 1

    def test_oldest_victim_policy_kills_holder(self, monkeypatch):
        monkeypatch.setattr(DeadlockPolicing, "victim_policy",
                            VictimPolicy.OLDEST)
        gtm = make_gtm()
        outcome = build_cycle(gtm)
        # A (oldest) dies; the requester B gets its grant on X
        assert gtm.transaction("A").state is _S.ABORTED
        assert outcome == GrantOutcome.GRANTED
        assert gtm.object("X").is_pending("B")

    def test_no_false_positive_on_plain_wait(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        assert gtm.invoke("B", "X", assign(2)) == GrantOutcome.QUEUED
        assert gtm.deadlocks_detected == 0

    def test_compatible_classes_never_deadlock(self):
        """Subtractions share grants: the crossing pattern is harmless."""
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        assert gtm.invoke("A", "X", subtract(1)) == GrantOutcome.GRANTED
        assert gtm.invoke("B", "Y", subtract(1)) == GrantOutcome.GRANTED
        assert gtm.invoke("A", "Y", subtract(1)) == GrantOutcome.GRANTED
        assert gtm.invoke("B", "X", subtract(1)) == GrantOutcome.GRANTED
        assert gtm.deadlocks_detected == 0

    def test_three_way_cycle_detected(self):
        gtm = make_gtm()
        gtm.create_object("Z", value=100)
        for name in ("A", "B", "C"):
            gtm.begin(name)
        gtm.invoke("A", "X", multiply(2))
        gtm.invoke("B", "Y", multiply(2))
        gtm.invoke("C", "Z", multiply(2))
        assert gtm.invoke("A", "Y", assign(1)) == GrantOutcome.QUEUED
        assert gtm.invoke("B", "Z", assign(1)) == GrantOutcome.QUEUED
        outcome = gtm.invoke("C", "X", assign(1))
        assert gtm.deadlocks_detected == 1
        aborted = [n for n in ("A", "B", "C")
                   if gtm.transaction(n).state is _S.ABORTED]
        assert len(aborted) == 1

    def test_edges_cleared_after_commit_no_stale_cycle(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "X", assign(2))     # B waits on A
        gtm.apply("A", "X", assign(1))
        gtm.request_commit("A")             # B granted, edge cleared
        gtm.begin("C")
        gtm.invoke("C", "X", assign(3))     # waits on B: no stale cycle
        assert gtm.deadlocks_detected == 0


class TestWaitForInvariant:
    """A transaction holds outgoing wait-for edges only while it waits
    (or sleeps in a wait).  A grant on the request path drops none —
    its requester is Active — so ``check_invariants`` holds every other
    transaction to having none."""

    def test_an_active_transaction_with_an_edge_is_reported(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        assert gtm.invoke("A", "X", assign(1)) == GrantOutcome.GRANTED
        gtm.check_invariants()
        gtm.deadlocks.graph.add_waits("A", ["B"])  # planted
        with pytest.raises(GTMError, match="'A' is active but waits on"):
            gtm.check_invariants()

    def test_a_waiters_edges_are_not_reported_and_go_with_its_grant(self):
        gtm = make_gtm()
        gtm.begin("A")
        gtm.begin("B")
        assert gtm.invoke("B", "Y", assign(2)) == GrantOutcome.GRANTED
        assert gtm.invoke("A", "Y", assign(1)) == GrantOutcome.QUEUED
        graph = gtm.deadlocks.graph
        assert graph.waits_of("A") == {"B"}
        gtm.check_invariants()  # A waits: its edge is legitimate
        gtm.request_commit("B")  # the pump grants A and drops the edge
        assert gtm.transaction("A").state is _S.ACTIVE
        assert not graph.waits_of("A")
        gtm.check_invariants()


class TestSchedulerIntegration:
    def test_crossing_multi_object_transactions_resolve(self):
        from repro.mobile.session import SessionPlan
        from repro.schedulers import GTMScheduler
        from repro.workload.spec import (
            TransactionProfile,
            TransactionStep,
            Workload,
        )
        profiles = [
            TransactionProfile(
                "AB", 0.0,
                (TransactionStep("X", assign(1), 0.5),
                 TransactionStep("Y", assign(1), 0.5)),
                SessionPlan(4.0)),
            TransactionProfile(
                "BA", 0.5,
                (TransactionStep("Y", assign(2), 0.5),
                 TransactionStep("X", assign(2), 0.5)),
                SessionPlan(4.0)),
        ]
        workload = Workload(profiles,
                            initial_values={"X": 0.0, "Y": 0.0})
        result = GTMScheduler().run(workload)
        outcomes = {t.txn_id: t.outcome.value
                    for t in result.collector.timelines.values()}
        assert sorted(outcomes.values()) == ["aborted", "committed"]
        # the survivor's assignments landed on both objects
        assert result.final_values["X"] == result.final_values["Y"]
