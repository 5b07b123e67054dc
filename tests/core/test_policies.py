"""Tests for the pluggable deadlock policies (Section VII policing)."""

from repro.core.gtm import GlobalTransactionManager, GTMConfig, GrantOutcome
from repro.core.policies import NoDeadlockPolicy, WaitForGraphPolicy
from repro.ldbs.deadlock import DeadlockResolution
from repro.core.opclass import assign
from repro.core.states import TransactionState

_S = TransactionState


def make_gtm(policy) -> GlobalTransactionManager:
    gtm = GlobalTransactionManager(
        config=GTMConfig(deadlock_policy=policy))
    gtm.create_object("X", value=100)
    gtm.create_object("Y", value=100)
    return gtm


def build_cycle(gtm) -> str:
    """A (older) holds X, waits on Y; B (younger) holds Y, requests X."""
    gtm.begin("A")
    gtm.begin("B")
    assert gtm.invoke("A", "X", assign(1)) == GrantOutcome.GRANTED
    assert gtm.invoke("B", "Y", assign(2)) == GrantOutcome.GRANTED
    gtm.invoke("A", "Y", assign(1))
    return gtm.invoke("B", "X", assign(2))


class TestCommitterProtection:
    """The admission controller's own guard, whatever the policy says:
    a transaction that is already Committing is never aborted as a
    victim — it holds ``X_committing`` and finishes by itself."""

    class NameTheBlocker(NoDeadlockPolicy):
        def on_wait(self, waiter, blockers):
            return DeadlockResolution(victim=blockers[0],
                                      cycle=(waiter, blockers[0]))

    def test_committing_blocker_is_never_the_victim(self):
        gtm = make_gtm(self.NameTheBlocker())
        gtm.begin("old")
        gtm.begin("young")
        gtm.invoke("young", "X", assign(2))
        gtm.apply("young", "X", assign(2))
        gtm.local_commit("young", "X")      # young is now Committing
        assert gtm.invoke("old", "X", assign(1)) == GrantOutcome.QUEUED
        assert gtm.transaction("young").state is _S.COMMITTING

    def test_active_blocker_named_by_the_policy_is_aborted(self):
        gtm = make_gtm(self.NameTheBlocker())
        gtm.begin("old")
        gtm.begin("young")
        gtm.invoke("young", "X", assign(2))
        assert gtm.invoke("old", "X", assign(1)) == GrantOutcome.GRANTED
        assert gtm.transaction("young").state is _S.ABORTED


class TestNoPolicy:
    def test_cycle_left_standing(self):
        gtm = make_gtm(NoDeadlockPolicy())
        outcome = build_cycle(gtm)
        assert outcome == GrantOutcome.QUEUED
        assert gtm.transaction("A").state is _S.WAITING
        assert gtm.transaction("B").state is _S.WAITING
        assert gtm.deadlocks_detected == 0


class TestBuildPolicy:
    def test_default_is_a_fresh_wait_for_graph_per_manager(self):
        """Policies are stateful: the ``None`` default must never hand
        two managers the same instance."""
        config = GTMConfig()
        assert config.deadlock_policy is None
        first = GlobalTransactionManager(config=config)
        second = GlobalTransactionManager(config=config)
        assert isinstance(first.deadlock_policy, WaitForGraphPolicy)
        assert first.deadlock_policy is not second.deadlock_policy

    def test_explicit_policy_is_the_only_knob(self):
        policy = NoDeadlockPolicy()
        gtm = GlobalTransactionManager(
            config=GTMConfig(deadlock_policy=policy))
        assert gtm.deadlock_policy is policy
        fields = GTMConfig.__dataclass_fields__
        assert "deadlock_detection" not in fields
        assert "victim_policy" not in fields
