"""Deadlock policing as the GTM wires it: the admission controller's
guard around the victim the wait-for graph names, and one component per
manager (Section VII)."""

from repro.core.deadlock import DeadlockPolicing
from repro.core.gtm import GlobalTransactionManager, GTMConfig, GrantOutcome
from repro.core.opclass import assign
from repro.core.states import TransactionState

_S = TransactionState


def make_gtm() -> GlobalTransactionManager:
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=100)
    gtm.create_object("Y", value=100)
    return gtm


class TestCommitterProtection:
    """The admission controller's own guard, whatever the victim rule
    says: a transaction that is already Committing is never aborted as
    a victim — it holds ``X_committing`` and finishes by itself.

    A committer is on no cycle of the live graph (it waits for nothing),
    so each test plants its edge to the requester and makes the victim
    rule name the blocker."""

    @staticmethod
    def _name_the_blocker(monkeypatch):
        monkeypatch.setattr(DeadlockPolicing, "victim",
                            lambda policing, cycle: "young")

    def test_committing_blocker_is_never_the_victim(self, monkeypatch):
        self._name_the_blocker(monkeypatch)
        gtm = make_gtm()
        gtm.begin("old")
        gtm.begin("young")
        gtm.invoke("young", "X", assign(2))
        gtm.apply("young", "X", assign(2))
        gtm.local_commit("young", "X")      # young is now Committing
        gtm.deadlocks.graph.add_waits("young", ["old"])  # planted
        assert gtm.invoke("old", "X", assign(1)) == GrantOutcome.QUEUED
        assert gtm.transaction("young").state is _S.COMMITTING

    def test_active_blocker_named_by_the_policy_is_aborted(self,
                                                           monkeypatch):
        self._name_the_blocker(monkeypatch)
        gtm = make_gtm()
        gtm.begin("old")
        gtm.begin("young")
        gtm.invoke("young", "X", assign(2))
        gtm.deadlocks.graph.add_waits("young", ["old"])  # planted
        assert gtm.invoke("old", "X", assign(1)) == GrantOutcome.GRANTED
        assert gtm.transaction("young").state is _S.ABORTED


class TestBuildPolicy:
    def test_default_is_a_fresh_wait_for_graph_per_manager(self):
        """The component is stateful: two managers built from one
        config never share it.  No config field reaches it
        (``tests/core/test_one_kernel.py`` pins ``GTMConfig``'s
        fields)."""
        config = GTMConfig()
        first = GlobalTransactionManager(config=config)
        second = GlobalTransactionManager(config=config)
        assert isinstance(first.deadlocks, DeadlockPolicing)
        assert first.deadlocks is not second.deadlocks
        assert first.deadlocks.graph is not second.deadlocks.graph
