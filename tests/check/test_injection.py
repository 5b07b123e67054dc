"""Fault injection: the oracle must catch a re-introduced known bug.

The injected fault reverts the late-grant snapshot fix in
``AdmissionController.grant``: a member granted *after* the
transaction's first whole-object snapshot keeps the stale snapshot
instead of refreshing it to the grant-time permanent value.  The lost
update is only final-state-observable through an UPDATE_ASSIGN that is
granted but never applied (``apply_op=False``): its identity
reconciliation writes the stale snapshot back verbatim, silently
rolling the member back past concurrent committed work.  (Applied
ADDSUB/MULDIV ops cancel the stale snapshot inside Eq. (1)/(2), which
is exactly why the directed tests of PR 1 plus this oracle are both
needed.)
"""

import pytest

from repro.check.fuzzer import FuzzConfig
from repro.check.runner import run_campaign, run_episode
from repro.core.admission import AdmissionController

#: Fuzz mix tilted toward the bug's trigger: multi-member objects, lots
#: of assignments, frequent granted-but-unapplied steps.
INJECTION_CONFIG = FuzzConfig(
    scheduler="gtm",
    max_objects=2,
    max_members=3,
    max_txns=5,
    p_multi_member=0.9,
    p_assign=0.45,
    p_skip_apply=0.35,
    p_outage=0.1,
    p_wait_timeout=0.0,
)


def _buggy_grant(self, txn, obj, invocation, now):
    """grant() as it was before the late-grant snapshot fix."""
    obj.grant_pending(txn.txn_id, invocation)
    if txn.txn_id not in obj.read:
        obj.snapshot_for(txn.txn_id)
        for member, value in obj.permanent.items():
            txn.set_temp(obj.name, member, value)
    # BUG (reverted fix): no snapshot refresh for a member granted after
    # the first whole-object snapshot.
    txn.operations.setdefault(obj.name, {})[invocation.member] = invocation
    txn.involved.add(obj.name)
    self.bus.on_grant(txn, obj, invocation, now)


@pytest.fixture
def inject_stale_snapshot_bug(monkeypatch):
    monkeypatch.setattr(AdmissionController, "grant", _buggy_grant)


def test_oracle_catches_reverted_snapshot_fix_within_200_episodes(
        inject_stale_snapshot_bug):
    report = run_campaign(INJECTION_CONFIG, seed=42, episodes=200,
                          max_failures=1, shrink_failures=True)
    assert not report.ok, \
        "the oracle missed the injected lost-update bug in 200 episodes"
    failure = report.failures[0]
    # the lost update is a value-level divergence, caught by the oracle
    # (possibly alongside invariant fallout), not a crash
    assert failure.crash is None
    assert failure.oracle is not None and not failure.oracle.serializable
    # the shrinker minimized it and emitted a pastable regression test
    assert report.shrunk is not None
    assert len(report.shrunk.txns) <= len(failure.spec.txns)
    assert "def test_shrunk_episode" in report.regression_test
    assert repr(report.shrunk) in report.regression_test
    # the minimized episode still fails under the injected bug ...
    assert not run_episode(report.shrunk).ok


def test_fixed_code_passes_the_same_campaign():
    """Control: the identical campaign is clean without the injection."""
    report = run_campaign(INJECTION_CONFIG, seed=42, episodes=200,
                          max_failures=1, shrink_failures=False)
    assert report.ok, report.failures[0].summary() if report.failures \
        else None
