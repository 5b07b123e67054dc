"""Folding the operation log loses nothing the oracle needs.

Every fuzz episode runs twice with the same spec: once with the fold
threshold patched down to two retained commits, folded two at a time
(so every episode with three or more commits folds), and once with
folding out of reach.  The log is write-only while a GTM runs, so both
runs schedule alike and only their logs differ.  Required of each pair:

- the commit-order witness gives the same verdict with the same
  mismatches, and the replay ends in the same state;
- an episode the unfolded oracle rejects is rejected folded too — the
  fallback search can only lose freedom (it may not reorder a folded
  transaction), so folding may make the oracle stricter, never more
  lenient.

The fault-injection control leg — the reverted late-grant snapshot
(``tests/check/test_injection.py``) — is included so that the rejection
half is not vacuous.
"""

import pytest

from repro.check.fuzzer import FuzzConfig, episode_workload, \
    generate_episode
from repro.check.oracle import check_episode, record_gtm, \
    replay_mismatches
from repro.check.runner import build_scheduler
from repro.core import history
from repro.core.admission import AdmissionController
from repro.core.history import serial_replay
from tests.check.test_injection import INJECTION_CONFIG, _buggy_grant

EPISODES = 60


def _kernel_run(config, seed):
    def run(index):
        spec = generate_episode(config, seed, index)
        scheduler = build_scheduler(spec)
        scheduler.run(episode_workload(spec))
        return scheduler.last_gtm
    return run


def _stale_snapshot(monkeypatch):
    monkeypatch.setattr(AdmissionController, "grant", _buggy_grant)


#: leg -> (episode runner, the fault a control leg injects, or None)
LEGS = {
    "intact": (_kernel_run(FuzzConfig(scheduler="gtm", max_txns=8), 25),
               None),
    "stale-snapshot": (_kernel_run(INJECTION_CONFIG, 42), _stale_snapshot),
}


def _run(run, index, fold_after):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(history, "FOLD_AFTER", fold_after)
        patch.setattr(history, "FOLD_BATCH", 2)
        return run(index)


@pytest.mark.parametrize("leg", LEGS)
def test_a_folded_log_keeps_the_verdict(leg, monkeypatch):
    run, fault = LEGS[leg]
    if fault is not None:
        fault(monkeypatch)
    folds = rejected = 0
    for index in range(EPISODES):
        whole = record_gtm(_run(run, index, fold_after=10**9))
        folded = record_gtm(_run(run, index, fold_after=2))
        assert whole.log.folded == 0
        assert whole.final == folded.final
        folds += folded.log.folded > 0
        assert folded.log.committed == whole.log.committed
        assert (replay_mismatches(folded)
                == replay_mismatches(whole)), index
        whole_state = serial_replay(whole.log)
        folded_state = serial_replay(folded.log)
        assert folded_state.values == whole_state.values, index
        assert folded_state.exists == whole_state.exists, index
        whole_report = check_episode(whole)
        folded_report = check_episode(folded)
        assert folded_report.committed == whole_report.committed
        if not whole_report.serializable:
            rejected += 1
            assert not folded_report.serializable, (
                f"{leg} episode {index}: folding made the oracle accept "
                f"what the whole log rejects")
    assert folds > EPISODES // 2
    if fault is not None:
        assert rejected > 0, f"the {leg} control leg was never caught"
    else:
        assert rejected == 0
