"""Observers that act on a hook at the instant it is delivered.

The bus delivers each hook when it is emitted, inside the facade call
that caused it.  :class:`repro.service.core.GTMService` relies on that
from ``on_grant``: a grant the ⟨unlock, X⟩ pump hands to a queued
operation is applied there and then (``gtm.apply``), in the middle of
whichever cascade — another transaction's commit, abort or ⟨sleep⟩ —
freed the object.  These tests drive that re-entry through the bare
kernel and pin what the observer sees and computes at that instant.
"""

from repro.check.oracle import check_episode, record_gtm
from repro.core.gtm import GlobalTransactionManager, GTMObserver, GrantOutcome
from repro.core.opclass import add, assign
from repro.core.states import TransactionState
from repro.errors import ProtocolError

_S = TransactionState


class ApplyOnGrant(GTMObserver):
    """What ``GTMService._on_grant_hook`` does: apply a late grant at
    once, and report a refusal instead of raising into the bus."""

    def __init__(self) -> None:
        self.gtm: GlobalTransactionManager | None = None
        #: transactions whose grants this observer completes (those
        #: that queued; a synchronous grant is applied by its caller).
        self.queued: set[str] = set()
        #: (txn, state at the hook, t_wait at the hook, applied value
        #: or the refusal).
        self.seen: list[tuple] = []

    def on_grant(self, txn, obj, invocation, now):
        if txn.txn_id not in self.queued:
            return
        try:
            outcome = self.gtm.apply(txn.txn_id, obj.name, invocation)
        except ProtocolError as exc:
            outcome = exc
        self.seen.append((txn.txn_id, txn.state, dict(txn.t_wait),
                          outcome))


class Kernel:
    """A manager whose every facade call is followed by the invariant
    sweep, with an :class:`ApplyOnGrant` observer attached."""

    def __init__(self, **objects) -> None:
        self.observer = ApplyOnGrant()
        self.gtm = GlobalTransactionManager(observer=self.observer)
        self.observer.gtm = self.gtm
        for name, value in objects.items():
            self.gtm.create_object(name, value=value)

    def __getattr__(self, name):
        method = getattr(self.gtm, name)

        def checked(*args, **kwargs):
            result = method(*args, **kwargs)
            self.gtm.check_invariants()
            return result
        return checked

    def queue(self, txn_id, object_name, invocation) -> None:
        self.observer.queued.add(txn_id)
        assert self.invoke(txn_id, object_name, invocation) \
            == GrantOutcome.QUEUED

    def assert_clean(self) -> None:
        assert self.gtm.bus.errors == []
        assert check_episode(record_gtm(self.gtm)).serializable


class TestApplyFromOnGrant:
    def test_grant_inside_another_transactions_commit(self):
        k = Kernel(X=100)
        k.begin("A")
        k.begin("B")
        k.invoke("A", "X", assign(7))
        k.apply("A", "X", assign(7))
        k.queue("B", "X", add(5))
        k.request_commit("A")
        # B was granted and applied inside A's ⟨commit, A⟩, on a
        # snapshot taken after A's value became X_permanent.
        assert k.observer.seen == [("B", _S.ACTIVE, {}, 12)]
        k.request_commit("B")
        assert k.gtm.object("X").permanent_value() == 12
        k.assert_clean()

    def test_grant_inside_a_commit_that_spans_two_objects(self):
        k = Kernel(X=100, Y=200)
        for txn_id in ("A", "B", "C"):
            k.begin(txn_id)
        k.invoke("A", "X", assign(1))
        k.invoke("A", "Y", assign(2))
        k.apply("A", "X", assign(1))
        k.apply("A", "Y", assign(2))
        k.queue("B", "X", add(10))
        k.queue("C", "Y", add(20))
        k.request_commit("A")
        # both objects were already permanent when the first pump ran
        assert k.observer.seen == [("B", _S.ACTIVE, {}, 11),
                                   ("C", _S.ACTIVE, {}, 22)]
        k.request_commit("B")
        k.request_commit("C")
        assert k.gtm.object("X").permanent_value() == 11
        assert k.gtm.object("Y").permanent_value() == 22
        k.assert_clean()

    def test_grant_inside_another_transactions_abort(self):
        k = Kernel(X=100)
        k.begin("A")
        k.begin("B")
        k.invoke("A", "X", assign(7))
        k.apply("A", "X", assign(7))
        k.queue("B", "X", add(5))
        k.abort("A")
        assert k.observer.seen == [("B", _S.ACTIVE, {}, 105)]
        k.request_commit("B")
        assert k.gtm.object("X").permanent_value() == 105
        k.assert_clean()

    def test_grant_inside_a_deadlock_victims_abort(self):
        """The abort cascade nested in a third facade call: B's invoke
        closes a cycle, B (youngest) is the victim, and A is granted —
        and applies — inside B's ``invoke``."""
        k = Kernel(X=100, Y=200)
        k.begin("A")
        k.begin("B")
        k.invoke("A", "X", assign(1))
        k.invoke("B", "Y", assign(2))
        k.queue("A", "Y", add(5))
        assert k.invoke("B", "X", add(6)) == GrantOutcome.ABORTED
        assert k.observer.seen == [("A", _S.ACTIVE, {}, 205)]
        k.apply("A", "X", assign(1))
        k.request_commit("A")
        assert k.gtm.object("Y").permanent_value() == 205
        k.assert_clean()

    def test_grant_inside_another_transactions_sleep(self):
        k = Kernel(X=100)
        k.begin("A")
        k.begin("B")
        k.invoke("A", "X", assign(7))
        k.queue("B", "X", add(5))
        k.sleep("A")     # a sleeper blocks nobody: the pump grants B
        assert k.observer.seen == [("B", _S.ACTIVE, {}, 105)]
        k.request_commit("B")
        assert not k.awake("A")    # Algorithm 9: B committed meanwhile
        assert k.gtm.object("X").permanent_value() == 105
        k.assert_clean()

    def test_regrant_inside_the_sleepers_own_awake(self):
        """The one grant an ⟨awake⟩ produces is the sleeper's own
        queue-jump regrant (Algorithm 9 case 1), announced before
        Algorithm 10 makes it Active — so ``apply`` is refused there,
        the observer reports it as the service does, and the survivor
        applies on its fresh snapshot once ``awake`` has returned."""
        k = Kernel(X=100)
        k.begin("A")
        k.begin("B")
        k.invoke("A", "X", assign(7))
        k.queue("B", "X", add(5))
        k.sleep("B")
        k.abort("A")               # the blocker leaves without a commit
        assert k.observer.seen == []   # θ skips the sleeping waiter
        assert k.awake("B")
        (txn_id, state, t_wait, refusal), = k.observer.seen
        assert (txn_id, state) == ("B", _S.SLEEPING)
        assert isinstance(refusal, ProtocolError)
        assert k.apply("B", "X", add(5)) == 105
        k.request_commit("B")
        assert k.gtm.object("X").permanent_value() == 105
        k.assert_clean()


class TestGrantObserverSeesTheWaitState:
    """Grant observers tell a queue-jump regrant from a pump grant by
    ``txn.t_wait`` *as it stands when the hook runs*: still populated
    for the regrant (the wait interval stays open until ⟨awake, A⟩),
    already cleared for the pump grant."""

    def test_regrant_has_t_wait_populated_and_pump_grant_empty(self):
        k = Kernel(X=100)
        for txn_id in ("A", "B", "C"):
            k.begin(txn_id)
        k.invoke("A", "X", assign(7))
        k.queue("B", "X", add(5))      # B: regranted on awake
        k.queue("C", "X", assign(9))   # C: granted by the pump
        k.sleep("B")
        k.abort("A")     # the pump skips sleeping B and grants C
        (txn_id, _, pump_t_wait, _), = k.observer.seen
        assert txn_id == "C"
        assert pump_t_wait == {}
        k.abort("C")
        assert k.awake("B")
        txn_id, _, regrant_t_wait, _ = k.observer.seen[-1]
        assert txn_id == "B"
        assert set(regrant_t_wait) == {"X"}
        assert k.gtm.transaction("B").t_wait == {}   # cleared by ⟨awake⟩
        assert k.gtm.bus.errors == []
