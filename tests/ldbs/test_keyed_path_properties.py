"""The keyed write path is the predicate path, and SQLite agrees.

``Transaction.update_by_key`` / ``delete_by_key`` find their row
through the heap's primary-key index; ``update`` / ``delete`` with
``P(pk) == key`` find it through a predicate.  Everything after the
row is found is one code path, and this file holds the two to that:
random sequences of insert / update / re-key / delete / commit / abort
/ ``crash()`` run on twin in-memory databases, one per path, must
leave identical rows and row versions, an identical WAL record stream,
identical locks while a transaction is open and none after it
finished, and identical recovery.

The same sequences through the backend seam, SQLite against memory:
identical answers from every call — a refusal is the same exception
class on both — and an identical ``dump()`` after every finish, on a
table without a constraint (where SQLite no longer reads the row before
it updates it) and on one with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConstraintViolation, StorageError
from repro.ldbs.backend import create_backend
from repro.ldbs.constraints import NonNegative
from repro.ldbs.engine import Database
from repro.ldbs.predicate import P
from repro.ldbs.schema import Column, ColumnType, TableSchema

SCHEMA = TableSchema("obj",
                     (Column("id", ColumnType.INT),
                      Column("value", ColumnType.FLOAT, nullable=True)),
                     primary_key="id")
SEED_ROWS = [{"id": 1, "value": 1.0}, {"id": 2, "value": 2.0}]

_keys = st.integers(1, 4)
_values = st.sampled_from([None, -1.0, 0.0, 1.5, 3.0])
actions = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _keys, _values),
        st.tuples(st.just("update"), _keys, _values),
        st.tuples(st.just("rekey"), _keys, _keys),
        st.tuples(st.just("delete"), _keys),
        st.tuples(st.sampled_from(["commit", "abort", "crash"]))),
    min_size=1, max_size=30)


def _answer(call):
    """What a write answered: its result, or the error it was refused
    with (both leave the transaction open and usable)."""
    try:
        return call()
    except (StorageError, ConstraintViolation) as exc:
        return type(exc).__name__


class _Engine:
    """One in-memory database, written through one of the two paths."""

    def __init__(self, keyed, constrained):
        self.keyed = keyed
        self.db = Database()
        self.db.create_table(SCHEMA, constraints=(
            [NonNegative("obj", "value")] if constrained else []))
        self.db.seed("obj", SEED_ROWS)
        self.txn = None
        self.begun = 0

    def _open(self):
        if self.txn is None:
            self.begun += 1
            self.txn = self.db.begin(f"T{self.begun}")
        return self.txn

    def step(self, action):
        verb, *args = action
        if verb == "insert":
            key, value = args
            return _answer(lambda: self._open().insert(
                "obj", {"id": key, "value": value}).rid)
        if verb in ("update", "rekey"):
            key, new = args
            changes = {"value": new} if verb == "update" else {"id": new}
            if self.keyed:
                return _answer(lambda: int(self._open().update_by_key(
                    "obj", key, changes) is not None))
            return _answer(lambda: len(self._open().update(
                "obj", P("id") == key, changes)))
        if verb == "delete":
            (key,) = args
            if self.keyed:
                return _answer(
                    lambda: self._open().delete_by_key("obj", key))
            return _answer(
                lambda: self._open().delete("obj", P("id") == key))
        txn, self.txn = self.txn, None
        if verb == "crash":
            return self.db.crash()
        if txn is not None:
            txn.commit() if verb == "commit" else txn.abort()
        assert not self.db.locks._resources  # nothing outlives a finish
        return None

    def state(self):
        locks = self.db.locks
        held = () if self.txn is None else tuple(sorted(
            (resource, locks.mode_held(self.txn.txn_id, resource))
            for resource in locks.resources_held_by(self.txn.txn_id)))
        return {
            "rows": self.db.catalog.table("obj").rows(),
            "wal": [(r.lsn, r.type, r.txn_id, r.table, r.rid, r.before,
                     r.after) for r in self.db.wal],
            "held": held,
        }


@pytest.mark.parametrize("constrained", [False, True],
                         ids=["unconstrained", "constrained"])
@settings(max_examples=150, deadline=None)
@given(actions=actions)
def test_keyed_and_predicate_paths_are_one_engine(constrained, actions):
    keyed = _Engine(keyed=True, constrained=constrained)
    predicate = _Engine(keyed=False, constrained=constrained)
    for action in actions:
        assert keyed.step(action) == predicate.step(action), action
        assert keyed.state() == predicate.state(), action
    # and what is left recovers the same way
    keyed.txn = predicate.txn = None
    assert keyed.db.crash() == predicate.db.crash()
    assert keyed.state() == predicate.state()


class _Seam:
    """One backend, written through ``BackendTransaction``."""

    def __init__(self, name, constrained):
        self.backend = create_backend(name)
        self.backend.create_table(SCHEMA, constraints=(
            [NonNegative("obj", "value")] if constrained else []))
        self.backend.seed("obj", SEED_ROWS)
        self.txn = None
        self.begun = 0

    def _open(self):
        if self.txn is None:
            self.begun += 1
            self.txn = self.backend.begin(f"T{self.begun}", write=True)
        return self.txn

    def step(self, action):
        verb, *args = action
        if verb == "insert":
            key, value = args
            # a duplicate key that also breaks the constraint is refused
            # for the constraint on both: each checks it before the key
            return _answer(lambda: self._open().insert(
                "obj", {"id": key, "value": value}))
        if verb in ("update", "rekey"):
            key, new = args
            changes = {"value": new} if verb == "update" else {"id": new}
            return _answer(
                lambda: self._open().update_by_key("obj", key, changes))
        if verb == "delete":
            (key,) = args
            return _answer(lambda: self._open().delete_by_key("obj", key))
        txn, self.txn = self.txn, None
        if verb == "crash":
            self.backend.crash()
        elif txn is not None:
            txn.commit() if verb == "commit" else txn.abort()
        return self.backend.dump()


@pytest.mark.parametrize("constrained", [False, True],
                         ids=["unconstrained", "constrained"])
@settings(max_examples=60, deadline=None)
@given(actions=actions)
def test_sqlite_answers_what_memory_answers(constrained, actions):
    memory = _Seam("memory", constrained)
    sqlite = _Seam("sqlite", constrained)
    try:
        for action in actions:
            assert sqlite.step(action) == memory.step(action), action
        assert sqlite.step(("abort",)) == memory.step(("abort",))
    finally:
        memory.backend.close()
        sqlite.backend.close()
