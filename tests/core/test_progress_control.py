"""Control legs for the progress properties in ``check_invariants``.

``GlobalTransactionManager.check_invariants`` checks two of the paper's
concurrency promises after every facade call: P1, θ leaves no grantable
waiter waiting (Algorithm 11), and P2, no Waiting transaction waits on a
Sleeping one (Algorithm 7).  A check that never fails proves nothing, so
each is run here against a kernel broken on purpose, and must catch it:

- deleting the pump at the end of ``SleepManager.sleep`` ("a sleeping
  holder no longer blocks: waiters may proceed now") leaves the waiters
  behind a new sleeper queued.  Every final-state oracle passes it;
  P1 fails it at once in a hand-written schedule, and the random
  schedules of ``test_gtm_properties.py`` find it through P1 (a
  grantable waiter) or P2 (a blocked one whose edges still name the
  sleeper, since the pump's re-police sweep went too);
- counting sleeping holders among a waiter's blockers gives it a
  wait-for edge to a sleeper, which P2 fails.
"""

import pytest
from hypothesis import given, settings

from repro.core.admission import AdmissionController
from repro.core.gtm import GlobalTransactionManager, GrantOutcome, GTMConfig
from repro.core.opclass import assign, subtract
from repro.core.sleep_manager import SleepManager
from repro.core.throttle import ValueThrottle
from repro.errors import GTMError
from tests.core.test_gtm_properties import Driver, steps

_sleep = SleepManager.sleep


def _sleep_without_pump(self, txn, involved, now):
    """``SleepManager.sleep`` less its closing ⟨unlock, X⟩ pumps."""
    pump, self._pump_unlock = self._pump_unlock, lambda obj: ()
    try:
        _sleep(self, txn, involved, now)
    finally:
        self._pump_unlock = pump


def _holders_with_sleepers(self, obj, invocation):
    """``_conflicting_holders`` that forgets to skip X_sleeping."""
    conflicts = self.checker.conflicts_with_any
    return [holder for held in (obj.pending, obj.committing)
            for holder, ops in held.items()
            if conflicts(invocation, ops.values())]


def _holder_then_waiter():
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=0)
    for name in ("T0", "T1", "T2"):
        gtm.begin(name)
    assert gtm.invoke("T0", "X", assign(1)) == GrantOutcome.GRANTED
    assert gtm.invoke("T1", "X", assign(2)) == GrantOutcome.QUEUED
    gtm.check_invariants()
    return gtm


def test_the_intact_kernel_grants_the_waiter_behind_a_new_sleeper():
    gtm = _holder_then_waiter()
    gtm.sleep("T0")
    gtm.check_invariants()
    assert gtm.object("X").is_pending("T1")


def test_p1_catches_a_sleep_without_its_pump(monkeypatch):
    monkeypatch.setattr(SleepManager, "sleep", _sleep_without_pump)
    gtm = _holder_then_waiter()
    gtm.sleep("T0")
    with pytest.raises(GTMError,
                       match=r"P1: \['T1'\] grantable on 'X' but left "
                             r"waiting"):
        gtm.check_invariants()


def test_p1_leaves_a_throttled_waiter_alone():
    """θ picks the second buyer of the last ticket, but the throttle
    holds it back: not a violation, and the check counts no denial."""
    throttle = ValueThrottle()
    gtm = GlobalTransactionManager(config=GTMConfig(throttle=throttle))
    gtm.create_object("X", value=1)
    gtm.begin("A")
    gtm.begin("B")
    assert gtm.invoke("A", "X", subtract(1)) == GrantOutcome.GRANTED
    assert gtm.invoke("B", "X", subtract(1)) == GrantOutcome.QUEUED
    assert throttle.denials == 1
    gtm.check_invariants()
    assert throttle.denials == 1


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          report_multiple_bugs=False)
@given(steps)
def _random_schedules(actions):
    driver = Driver()
    for index, action, obj_index, amount in actions:
        driver.step(index, action, obj_index, amount)


def test_the_random_schedules_catch_it_too(monkeypatch):
    _random_schedules()                     # the intact kernel is clean
    monkeypatch.setattr(SleepManager, "sleep", _sleep_without_pump)
    with pytest.raises(GTMError, match=r"P[12]: "):
        _random_schedules()


def test_p2_catches_a_wait_for_edge_to_a_sleeper(monkeypatch):
    def schedule():
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=0)
        for name in ("T0", "T1", "T2"):
            gtm.begin(name)
        gtm.invoke("T0", "X", assign(1))
        gtm.sleep("T0")                     # T0 holds X, asleep
        gtm.invoke("T2", "X", assign(2))    # overtakes the sleeper
        assert gtm.invoke("T1", "X", assign(3)) == GrantOutcome.QUEUED
        return gtm

    schedule().check_invariants()           # T1 waits on T2 alone
    monkeypatch.setattr(AdmissionController, "_conflicting_holders",
                        _holders_with_sleepers)
    with pytest.raises(GTMError,
                       match=r"P2: Waiting 'T1' has wait-for edges to "
                             r"Sleeping \['T0'\]"):
        schedule().check_invariants()
