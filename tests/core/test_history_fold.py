"""The operation log stays bounded: aborts drop, old commits fold.

An aborted transaction's operations never happened, so both terminal
abort exits — ⟨abort, A⟩ and Algorithm 9's ``sleep-conflict`` verdict —
drop them at once.  Committed transactions past ``FOLD_AFTER`` are
folded, oldest first and in commit order, into the baseline the replay
starts from; a folded log replays to the very state the whole log does.
"""

import pytest

from repro.check.oracle import check_episode, record_gtm
from repro.core import history
from repro.core.gtm import GlobalTransactionManager
from repro.core.history import OperationLog, serial_replay
from repro.core.opclass import (
    add,
    assign,
    multiply,
    subtract,
)
from repro.core.states import TransactionState
from tests.core.invocations import delete_object, insert_object

_S = TransactionState


@pytest.fixture
def fold_small(monkeypatch):
    """Fold past four retained commits, two at a time."""
    monkeypatch.setattr(history, "FOLD_AFTER", 4)
    monkeypatch.setattr(history, "FOLD_BATCH", 2)


def _scripted_log() -> OperationLog:
    """Eleven committed transactions over every whole-object and member
    class, one transaction that never finishes, in a fixed order; each
    pair a fold takes at once does not commute, so a fold out of commit
    order shows."""
    log = OperationLog()
    log.record_object("X", {"value": 10}, exists=True)
    log.record_object("Y", {"value": 3}, exists=True)
    steps = [
        ("T0", "X", add(5)), ("T1", "X", multiply(3)),
        ("T2", "Y", add(1)), ("T3", "Y", multiply(2)),
        ("T4", "X", subtract(4)), ("T5", "X", multiply(0.5)),
        ("T6", "Y", delete_object()),
        ("T7", "Y", insert_object({"value": 1})),
        ("T8", "X", assign(2)), ("T9", "X", add(9)), ("T10", "Y", assign(6)),
    ]
    for txn_id, name, invocation in steps:
        log.record_apply(txn_id, name, invocation)
        log.record_apply("OPEN", name, add(100))
        log.record_commit(txn_id)
    return log


class TestFolding:
    def test_a_folded_log_replays_to_the_unfolded_state(self, fold_small):
        folded = _scripted_log()
        assert folded.folded == 8
        assert folded.commit_order == ["T8", "T9", "T10"]
        assert folded.committed == 11
        # the folded transactions' operations are gone with them
        assert set(folded.ops) == {"T8", "T9", "T10", "OPEN"}
        with pytest.MonkeyPatch.context() as unpatched:
            unpatched.setattr(history, "FOLD_AFTER", 10**9)
            whole = _scripted_log()
        assert whole.folded == 0
        assert serial_replay(folded).values == serial_replay(whole).values
        assert serial_replay(folded).exists == serial_replay(whole).exists

    def test_the_baseline_is_the_prefix_replay(self, fold_small):
        folded = _scripted_log()
        with pytest.MonkeyPatch.context() as unpatched:
            unpatched.setattr(history, "FOLD_AFTER", 10**9)
            whole = _scripted_log()
        prefix = serial_replay(whole, whole.commit_order[:folded.folded])
        assert folded.initial == prefix.values
        assert folded.initial_exists == prefix.exists

    def test_retained_commits_stay_at_or_under_the_threshold(
            self, fold_small):
        log = OperationLog()
        log.record_object("X", {"value": 0}, exists=True)
        longest = 0
        for index in range(50):
            log.record_apply(f"T{index}", "X", add(1))
            log.record_commit(f"T{index}")
            longest = max(longest, len(log.commit_order))
        assert longest == history.FOLD_AFTER
        assert log.committed == 50
        assert log.initial["X"]["value"] + len(log.commit_order) == 50

    def test_a_gtm_counts_what_it_folded(self, fold_small):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=0)
        for index in range(9):
            txn_id = f"T{index}"
            gtm.begin(txn_id)
            gtm.invoke(txn_id, "X", add(index))
            gtm.apply(txn_id, "X", add(index))
            gtm.request_commit(txn_id)
        assert gtm.history.folded == 6
        report = check_episode(record_gtm(gtm))
        assert report.serializable and report.committed == 9

    def test_the_threshold_sits_above_every_episode(self):
        """Section VI-B's rounds of 1000 transactions are the largest
        episode anything builds: nothing a campaign commits folds."""
        assert history.FOLD_AFTER > 1000
        assert 0 < history.FOLD_BATCH < history.FOLD_AFTER


class TestAbortExitsDropOperations:
    def _gtm(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=100)
        return gtm

    def test_global_abort(self):
        gtm = self._gtm()
        gtm.begin("A")
        gtm.invoke("A", "X", add(3))
        gtm.apply("A", "X", add(3))
        gtm.apply("A", "X", add(4))
        assert len(gtm.history.ops_of("A")) == 2
        gtm.abort("A")
        assert gtm.transaction("A").state is _S.ABORTED
        assert gtm.history.ops == {}

    def test_sleep_conflict(self):
        """Algorithm 9: a conflicting commit while A slept aborts A on
        ⟨awake⟩ — through the sleep manager, not ⟨abort, A⟩."""
        gtm = self._gtm()
        gtm.begin("S")
        gtm.invoke("S", "X", subtract(10))
        gtm.apply("S", "X", subtract(10))
        gtm.sleep("S")
        gtm.begin("A")
        gtm.invoke("A", "X", assign(7))
        gtm.apply("A", "X", assign(7))
        gtm.request_commit("A")
        assert not gtm.awake("S")
        assert gtm.transaction("S").state is _S.ABORTED
        assert set(gtm.history.ops) == {"A"}
        assert gtm.history.commit_order == ["A"]
