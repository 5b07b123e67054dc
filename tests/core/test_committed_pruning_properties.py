"""Property: pruning ``X_committed`` never changes an Algorithm 9 verdict.

``X_committed`` keeps a commit record only while some transaction
sleeps on X.  Random interleavings of invoke / commit / sleep / awake /
abort on one object are replayed against the kernel; the test keeps
the *unpruned* history itself, from the commit notifications, and at
every ⟨awake⟩ the predicate must answer the same on both lists.  The clock is the test's
and often stands still, so ``X_tc == A_t_sleep`` ties are exercised.
"""

from hypothesis import given, settings, strategies as st

from repro.core.events import GTMObserver
from repro.core.gtm import GlobalTransactionManager
from repro.core.objects import CommitRecord
from repro.core.opclass import add, assign, multiply, read
from repro.core.states import TransactionState

_S = TransactionState

N_TXNS = 6
OPS = {"read": read(), "add": add(1), "assign": assign(7),
       "mul": multiply(2)}

#: Each step: (txn index, action, advance the clock first?).
steps = st.lists(
    st.tuples(st.integers(0, N_TXNS - 1),
              st.sampled_from([*OPS, "sleep", "awake", "commit", "abort"]),
              st.booleans()),
    min_size=1, max_size=80)


class History(GTMObserver):
    """Every commit on X, never pruned: the reference ``X_committed``."""

    def __init__(self) -> None:
        self.records: list[CommitRecord] = []

    def on_global_commit(self, txn, now) -> None:
        ops = tuple(txn.operations.get("X", {}).values())
        if ops:
            self.records.append(CommitRecord(txn.txn_id, ops, now))


class Driver:
    def __init__(self) -> None:
        self.time = 1.0
        self.history = History()
        self.gtm = GlobalTransactionManager(clock=lambda: self.time,
                                            observer=self.history)
        self.sleep_manager = self.gtm.sleep_manager
        self.gtm.create_object("X", value=1)
        self.names = [f"T{index}" for index in range(N_TXNS)]
        for name in self.names:
            self.gtm.begin(name)

    def check_awake(self, name: str) -> None:
        """Algorithm 9's predicate on the pruned and the full list."""
        txn = self.gtm.transaction(name)
        obj = self.gtm.object("X")
        pruned = obj.committed
        verdict = self.sleep_manager.conflicts(txn, obj)
        obj.committed = self.history.records
        try:
            reference = self.sleep_manager.conflicts(txn, obj)
        finally:
            obj.committed = pruned
        assert verdict == reference, (
            f"{name} slept at {txn.t_sleep}: pruned list "
            f"{pruned} says {verdict}, full history "
            f"{self.history.records} says {reference}")

    def step(self, index: int, action: str, advance: bool) -> None:
        if advance:
            self.time += 1.0
        name = self.names[index]
        txn = self.gtm.transaction(name)
        if action in OPS:
            if txn.is_in(_S.ACTIVE) and "X" not in txn.operations:
                self.gtm.invoke(name, "X", OPS[action])
        elif action == "sleep":
            if txn.is_in(_S.ACTIVE, _S.WAITING):
                self.gtm.sleep(name)
        elif action == "awake":
            if txn.is_in(_S.SLEEPING):
                self.check_awake(name)
                self.gtm.awake(name)
        elif action == "commit":
            if txn.is_in(_S.ACTIVE) and txn.involved and not txn.t_wait:
                self.gtm.request_commit(name)
                self.gtm.pump_commits()
        elif action == "abort":
            if txn.is_in(_S.ACTIVE, _S.WAITING, _S.SLEEPING):
                self.gtm.abort(name)
        self.gtm.check_invariants()
        obj = self.gtm.object("X")
        # the pruning rule itself: nothing is kept for nobody.
        assert obj.sleeping or not obj.committed


@settings(max_examples=150, deadline=None)
@given(steps)
def test_pruned_history_gives_the_same_awake_verdicts(actions):
    driver = Driver()
    for index, action, advance in actions:
        driver.step(index, action, advance)
    for name in driver.names:               # wake whoever still sleeps
        if driver.gtm.transaction(name).is_in(_S.SLEEPING):
            driver.check_awake(name)
            driver.gtm.awake(name)
    obj = driver.gtm.object("X")
    assert not obj.sleeping and not obj.committed


def test_the_interleavings_do_reach_conflicting_awakes():
    """Guard against a vacuous property: a hand-written schedule in
    which the verdict is *conflict* only because of a commit record."""
    driver = Driver()
    gtm = driver.gtm
    gtm.invoke("T0", "X", add(1))
    gtm.sleep("T0")
    driver.time += 1.0
    gtm.invoke("T1", "X", assign(7))        # overtakes the sleeper
    gtm.request_commit("T1")
    assert [r.txn_id for r in gtm.object("X").committed] == ["T1"]
    assert not gtm.object("X").holder_ops(exclude="T0")
    driver.check_awake("T0")
    assert gtm.awake("T0") is False
    assert gtm.object("X").committed == ()
