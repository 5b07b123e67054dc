"""Never-blocking MVCC reads: the lock-free path and its promotion.

Direct exercises of the MVCC manager's READ fast path: reads are
granted without entering the wait queue even against an incompatible
holder, all of a transaction's reads observe one pinned cut of history,
readers that outlive the version ring abort (snapshot-too-old), a
reader promoting its snapshot into a write is certified against the
commit order (abort when stale, grant when current), and pure readers
commit without publishing a version.
"""

import pytest

from repro.core.gtm import GrantOutcome, GTMConfig
from repro.core.mvcc import build_transaction_manager
from repro.core.opclass import add, assign, delete_object, read
from repro.errors import GTMError
from repro.ldbs.versions import RING_CAPACITY


def _mvcc():
    return build_transaction_manager(GTMConfig(mvcc_reads=True))


def _commit_update(gtm, txn_id, name, invocation):
    gtm.begin(txn_id)
    assert gtm.invoke(txn_id, name, invocation) == GrantOutcome.GRANTED
    gtm.apply(txn_id, name, invocation)
    gtm.request_commit(txn_id)
    assert gtm.transaction(txn_id).state.value == "committed"


def test_read_never_enters_the_wait_queue():
    """Table I queues READ behind a structural holder; the MVCC path
    serves it from the version ring instead."""
    locking = build_transaction_manager()
    for gtm in (locking, _mvcc()):
        gtm.create_object("x", value=7)
        gtm.begin("w")
        assert gtm.invoke("w", "x", delete_object()) \
            == GrantOutcome.GRANTED
        gtm.begin("r")
        outcome = gtm.invoke("r", "x", read())
    assert locking.transaction("r").state.value == "waiting"
    assert outcome == GrantOutcome.GRANTED  # the MVCC run
    assert gtm.certifier.reads_served == 1


def test_reads_observe_one_pinned_cut():
    """A commit between two reads is invisible: both are served from
    the csn pinned at the first read."""
    gtm = _mvcc()
    gtm.create_object("x", value=10)
    gtm.begin("r")
    gtm.invoke("r", "x", read())
    assert gtm.apply("r", "x", read()) == 10
    _commit_update(gtm, "w", "x", add(5))
    assert gtm.object("x").permanent == {"value": 15}
    assert gtm.invoke("r", "x", read()) == GrantOutcome.GRANTED
    assert gtm.apply("r", "x", read()) == 10  # the pinned image
    gtm.request_commit("r")
    assert gtm.transaction("r").state.value == "committed"


def test_reader_outliving_the_ring_aborts_snapshot_too_old():
    gtm = _mvcc()
    gtm.create_object("x", value=1)
    gtm.begin("r")
    assert gtm.invoke("r", "x", read()) == GrantOutcome.GRANTED
    for index in range(RING_CAPACITY - 1):
        _commit_update(gtm, f"w{index}", "x", add(1))
    assert gtm.invoke("r", "x", read()) == GrantOutcome.GRANTED
    _commit_update(gtm, "last", "x", add(1))  # evicts the pinned csn 0
    assert gtm.invoke("r", "x", read()) == GrantOutcome.ABORTED
    assert gtm.transaction("r").state.value == "aborted"


def test_stale_snapshot_promotion_is_certified_and_aborted():
    """A lock-free reader writing its read object after another commit
    superseded the pin would contradict the commit order — the
    certifier rejects the promotion and the manager aborts."""
    gtm = _mvcc()
    gtm.create_object("x", value=1)
    gtm.begin("r")
    gtm.invoke("r", "x", read())
    _commit_update(gtm, "w", "x", add(10))
    assert gtm.invoke("r", "x", add(100)) == GrantOutcome.ABORTED
    assert gtm.transaction("r").state.value == "aborted"
    assert gtm.certifier.promotions_checked == 1
    assert gtm.certifier.promotions_rejected == 1
    assert gtm.object("x").permanent == {"value": 11}
    gtm.check_invariants()


def test_current_snapshot_promotion_is_granted_and_commits():
    gtm = _mvcc()
    gtm.create_object("x", value=1)
    gtm.begin("r")
    gtm.invoke("r", "x", read())
    assert gtm.invoke("r", "x", add(100)) == GrantOutcome.GRANTED
    gtm.apply("r", "x", add(100))
    gtm.request_commit("r")
    assert gtm.transaction("r").state.value == "committed"
    assert gtm.object("x").permanent == {"value": 101}
    assert gtm.certifier.promotions_checked == 1
    assert gtm.certifier.promotions_rejected == 0
    gtm.check_invariants()


def test_read_your_writes_uses_the_virtual_copy():
    """A granted holder reads its own uncommitted virtual value, not
    the pinned image; a pure lock-free reader falls back to the image
    its reads were served from."""
    gtm = _mvcc()
    gtm.create_object("x", value=1)
    gtm.begin("t")
    gtm.invoke("t", "x", assign(42))
    gtm.apply("t", "x", assign(42))
    assert gtm.read_virtual("t", "x") == 42
    gtm.begin("r")
    gtm.invoke("r", "x", read())
    assert gtm.read_virtual("r", "x") == 1  # served snapshot fallback
    gtm.request_commit("t")
    assert gtm.object("x").permanent == {"value": 42}


def test_pure_readers_commit_without_externalizing():
    """A pure lock-free reader takes its place in the commit order and
    publishes nothing."""
    gtm = _mvcc()
    gtm.create_object("x", value=5)
    gtm.begin("r")
    gtm.invoke("r", "x", read())
    gtm.request_commit("r")
    assert gtm.transaction("r").state.value == "committed"
    assert gtm.certifier.csn == len(gtm.history.commit_order) == 1
    assert gtm.certifier.object_csn == {}
    assert [version.csn for version in gtm.versions.ring("x")] == [0]
    assert gtm.certifier.served_version("r", "x") is None  # forgotten


def test_unknown_member_read_is_rejected():
    gtm = _mvcc()
    gtm.create_object("x", value=1)
    gtm.begin("r")
    with pytest.raises(GTMError):
        gtm.invoke("r", "x", read(member="nope"))
