"""What isolation the system gives, pinned on ROADMAP item 1's schedule.

What every checker verifies is **final-state serializability with the
commit order as witness** (paper Section V): replaying the committed
transactions' updates serially, in commit order, reproduces the
permanent state.  Table I makes READ compatible with every update
class, so a write that *depends on a READ of another object* is not
protected — and the oracle, which compares states and not the values
reads returned, cannot see it.  The schedule below is the textbook write
skew: no serial order lets both reads return 1, both transactions
commit, and every check is clean.  This is documented behaviour; the
reads-from check that would see it is ROADMAP item 2.
"""

from repro.check.oracle import check_episode, record_gtm
from repro.core.gtm import GlobalTransactionManager, GrantOutcome
from repro.core.opclass import assign, read
from repro.core.states import TransactionState


def test_write_skew_commits_and_every_checker_passes():
    gtm = GlobalTransactionManager()
    gtm.create_object("x", value=1)
    gtm.create_object("y", value=1)
    gtm.begin("T1")
    gtm.begin("T2")
    served = {}
    for txn_id, name in (("T1", "x"), ("T2", "y")):
        assert gtm.invoke(txn_id, name, read()) == GrantOutcome.GRANTED
        served[txn_id] = gtm.apply(txn_id, name, read())
    assert served == {"T1": 1, "T2": 1}
    # each writes the object the *other* one read: the READ lock does
    # not stop the assignment (Table I)
    for txn_id, name in (("T1", "y"), ("T2", "x")):
        assert gtm.invoke(txn_id, name, assign(0)) == GrantOutcome.GRANTED
        gtm.apply(txn_id, name, assign(0))
    for txn_id in ("T1", "T2"):
        gtm.request_commit(txn_id)
    gtm.pump_commits()
    assert [gtm.transaction(txn_id).state for txn_id in ("T1", "T2")] \
        == [TransactionState.COMMITTED] * 2
    assert (gtm.objects["x"].permanent_value(),
            gtm.objects["y"].permanent_value()) == (0, 0)
    gtm.check_invariants()
    assert check_episode(record_gtm(gtm)).serializable is True
