"""SQLite answers what the memory backend answers.

Random sequences of insert / update / re-key / delete / commit / abort
/ ``crash()`` run through the backend seam, SQLite against memory:
identical answers from every call — a refusal is the same exception
class on both — and an identical ``dump()`` after every finish, on a
table without a constraint (where SQLite does not read the row before
it updates it) and on one with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConstraintViolation, StorageError
from repro.ldbs.backend import create_backend
from repro.ldbs.constraints import NonNegative
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
        lost = None
        if verb == "crash":
            lost = self.backend.crash()
        elif txn is not None:
            txn.commit() if verb == "commit" else txn.abort()
        return lost, self.backend.dump()


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
