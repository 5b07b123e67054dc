"""What a snapshot is: every lock-free read of a transaction resolves
against one position in the one commit order.

A transaction's first lock-free READ pins the commit sequence number —
the number of commits externalized so far — and every later one, on any
object, is served the state right after that many commits.  The named
regression is the two-object skew that per-partition csns produced; the
property replays the commit-order witness up to each reader's pin and
compares every served value with it.
"""

from hypothesis import given, settings, strategies as st

from repro.core.gtm import GrantOutcome
from repro.core.history import check_serializable, serial_replay
from repro.core.mvcc import MVCCTransactionManager
from repro.core.opclass import add, read
from repro.core.states import TransactionState

_S = TransactionState


def test_two_reads_straddling_a_commit_see_one_cut():
    """T1 reads ``flight``, T2 books both and commits, T1 reads
    ``hotel``: T1 must see neither booking.  (The names are two that the
    deleted crc32 router put in different partitions at two shards,
    where the second read was pinned afresh and returned 1.)"""
    gtm = MVCCTransactionManager()
    gtm.create_object("flight", value=0)
    gtm.create_object("hotel", value=0)
    gtm.begin("T1")
    assert gtm.invoke("T1", "flight", read()) == GrantOutcome.GRANTED
    seen = [gtm.apply("T1", "flight", read())]
    gtm.begin("T2")
    for name in ("flight", "hotel"):
        assert gtm.invoke("T2", name, add(1)) == GrantOutcome.GRANTED
        gtm.apply("T2", name, add(1))
    gtm.request_commit("T2")
    assert gtm.invoke("T1", "hotel", read()) == GrantOutcome.GRANTED
    seen.append(gtm.apply("T1", "hotel", read()))
    gtm.request_commit("T1")
    assert seen == [0, 0]
    assert list(gtm.history.commit_order) == ["T2", "T1"]
    gtm.check_invariants()


OBJECTS = ("a", "b", "c")
READERS = 2

_reader = st.integers(0, READERS - 1)
_object = st.sampled_from(OBJECTS)
_write = st.tuples(st.just("write"),
                   st.sets(_object, min_size=1), st.integers(1, 9))
_read = st.tuples(st.just("read"), _reader, _object)
#: Mostly writes and reads, so that pins fall behind the head of the
#: commit order before a reader ends.
steps = st.lists(
    st.one_of(
        _write, _write, _write, _read, _read, _read, _read,
        st.tuples(st.just("promote"), _reader, _object),
        st.tuples(st.just("sleep-or-awake"), _reader),
        st.tuples(st.just("commit"), _reader)),
    min_size=20, max_size=80)


class Interleaving:
    """Writers that commit at once, readers that linger."""

    def __init__(self) -> None:
        self.gtm = MVCCTransactionManager()
        for name in OBJECTS:
            self.gtm.create_object(name, value=0)
        self.begun = 0
        self.readers = [self.begin("r") for _ in range(READERS)]
        #: (pin, object, value) of every lock-free read served.
        self.served: list[tuple[int, str, int]] = []

    def begin(self, prefix: str) -> str:
        self.begun += 1
        txn_id = f"{prefix}{self.begun}"
        self.gtm.begin(txn_id)
        return txn_id

    def reader(self, slot: int) -> str:
        """The slot's transaction, begun afresh if the last one ended."""
        if self.gtm.transaction(self.readers[slot]).state.terminal:
            self.readers[slot] = self.begin("r")
        return self.readers[slot]

    def write(self, names, amount) -> None:
        txn_id = self.begin("w")
        for name in sorted(names):
            assert self.gtm.invoke(txn_id, name, add(amount)) \
                == GrantOutcome.GRANTED
            self.gtm.apply(txn_id, name, add(amount))
        self.gtm.request_commit(txn_id)
        assert self.gtm.transaction(txn_id).is_in(_S.COMMITTED)

    def read(self, slot: int, name: str) -> None:
        txn_id = self.reader(slot)
        if not self.gtm.transaction(txn_id).is_in(_S.ACTIVE) \
                or self.gtm.object(name).is_pending(txn_id):
            return  # asleep, or reading its own write: not lock-free
        if self.gtm.invoke(txn_id, name, read()) == GrantOutcome.ABORTED:
            return  # the pin fell off the ring
        self.served.append((self.gtm.certifier.pins[txn_id], name,
                            self.gtm.apply(txn_id, name, read())))

    def promote(self, slot: int, name: str) -> None:
        """A first write on an object the reader was served."""
        txn_id = self.reader(slot)
        snapshot = self.gtm.certifier.served_version(txn_id, name)
        if snapshot is None or self.gtm.object(name).is_pending(txn_id) \
                or not self.gtm.transaction(txn_id).is_in(_S.ACTIVE):
            return
        # every write adds a positive amount: equal values, no commit
        current = self.gtm.object(name).permanent == snapshot.values
        outcome = self.gtm.invoke(txn_id, name, add(100))
        assert outcome == (GrantOutcome.GRANTED if current
                           else GrantOutcome.ABORTED)
        if current:
            assert self.gtm.apply(txn_id, name, add(100)) \
                == snapshot.values["value"] + 100

    def sleep_or_awake(self, slot: int) -> None:
        txn = self.gtm.transaction(self.reader(slot))
        if txn.is_in(_S.SLEEPING):
            self.gtm.awake(txn.txn_id)
        else:
            self.gtm.sleep(txn.txn_id)

    def commit(self, slot: int) -> None:
        txn_id = self.reader(slot)
        if self.gtm.transaction(txn_id).is_in(_S.ACTIVE):
            self.gtm.request_commit(txn_id)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_every_served_value_is_the_state_at_the_pin(actions):
    run = Interleaving()
    for action, *arguments in actions:
        getattr(run, action.replace("-", "_"))(*arguments)
        run.gtm.check_invariants()
    history = run.gtm.history
    assert run.gtm.certifier.csn == len(history.commit_order)
    cuts = {pin: serial_replay(history, history.commit_order[:pin]).values
            for pin in {pin for pin, _, _ in run.served}}
    for pin, name, value in run.served:
        assert value == cuts[pin][name]["value"], (pin, name)
    assert check_serializable(run.gtm).serializable
