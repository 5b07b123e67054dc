"""Backend conformance: the guarantees both LDBS backends share.

Every test in :class:`TestConformance` runs against the in-memory
dict-of-rows backend AND the SQLite WAL backend through the narrow
:class:`~repro.ldbs.backend.BackendTransaction` dialect — atomicity,
abort semantics, crash recovery, one writer at a time (the loser
refused at begin with :class:`~repro.errors.BackendConflictError`),
readers that read committed state behind an open writer,
read-your-own-writes upsert probes, and canonical ``dump()`` parity.
SQLite-specific behaviour (a reader keeping its snapshot while the
writer commits, one statement per keyed update, the long-lived writer
connection and what ``crash()``/``close()``/a failed COMMIT do to it)
lives in :class:`TestSQLiteSpecific`.
"""

import os
import sqlite3

import pytest

from repro.errors import (
    BackendConflictError,
    BackendError,
    ConstraintViolation,
    SchemaError,
    StorageError,
    TransactionAborted,
)
from repro.ldbs.backend import (
    LDBSBackend,
    backend_names,
    create_backend,
)
from repro.ldbs.constraints import CheckConstraint, NonNegative
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.ldbs.sqlite_backend import SQLiteBackend

BACKENDS = backend_names()


def make_backend(name: str) -> LDBSBackend:
    backend = create_backend(name)
    backend.create_table(
        TableSchema("obj",
                    (Column("id", ColumnType.INT),
                     Column("value", ColumnType.FLOAT, nullable=True),
                     Column("label", ColumnType.TEXT, nullable=True),
                     Column("flag", ColumnType.BOOL, nullable=True)),
                    primary_key="id"),
        constraints=[NonNegative("obj", "value")])
    backend.seed("obj", [{"id": 1, "value": 10.0, "label": "a",
                          "flag": True}])
    return backend


@pytest.fixture(params=BACKENDS)
def backend(request):
    built = make_backend(request.param)
    yield built
    built.close()


class TestConformance:
    def test_registry_and_catalog(self, backend):
        assert isinstance(backend, LDBSBackend)
        assert backend.name in BACKENDS
        assert backend.table_names() == ("obj",)
        assert backend.key_column("obj") == "id"

    def test_commit_persists(self, backend):
        with backend.begin("T1", write=True) as txn:
            assert txn.update_by_key("obj", 1, {"value": 3.0}) == 1
        assert backend.dump()["obj"][1]["value"] == 3.0

    def test_abort_rolls_back(self, backend):
        txn = backend.begin("T1", write=True)
        txn.update_by_key("obj", 1, {"value": 3.0})
        txn.insert("obj", {"id": 2, "value": 1.0})
        txn.abort()
        assert backend.dump()["obj"] == {
            1: {"id": 1, "value": 10.0, "label": "a", "flag": True}}

    def test_context_manager_exception_aborts(self, backend):
        with pytest.raises(RuntimeError):
            with backend.begin("T1", write=True) as txn:
                txn.update_by_key("obj", 1, {"value": 3.0})
                raise RuntimeError("client bug")
        assert backend.dump()["obj"][1]["value"] == 10.0

    def test_read_your_own_writes_has_key(self, backend):
        with backend.begin("T1", write=True) as txn:
            assert not txn.has_key("obj", 7)
            txn.insert("obj", {"id": 7, "value": 0.0})
            # the probe answers through the open transaction
            assert txn.has_key("obj", 7)
            assert txn.get_row("obj", 7)["value"] == 0.0
            txn.abort()
        with backend.begin("T2") as probe:
            assert not probe.has_key("obj", 7)

    def test_update_then_read_back(self, backend):
        with backend.begin("T1", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 4.5, "label": "b"})
            row = txn.get_row("obj", 1)
            assert row["value"] == 4.5
            assert row["label"] == "b"
            txn.abort()

    def test_update_of_a_missing_key_touches_nothing(self, backend):
        # "no such row" is a count of 0, not an error: the SST's upsert
        # probes with the update itself
        before = backend.dump()
        with backend.begin("T1", write=True) as txn:
            assert txn.update_by_key("obj", 99, {"value": 1.0}) == 0
            assert txn.delete_by_key("obj", 99) == 0
            assert not txn.has_key("obj", 99)
        assert backend.dump() == before

    def test_upsert_inside_one_transaction_sees_its_own_insert(
            self, backend):
        with backend.begin("T1", write=True) as txn:
            assert txn.update_by_key("obj", 7, {"value": 1.0}) == 0
            txn.insert("obj", {"id": 7, "value": 1.0})
            # the second write to the same key finds the first
            assert txn.update_by_key("obj", 7, {"label": "new"}) == 1
            assert txn.get_row("obj", 7) == {
                "id": 7, "value": 1.0, "label": "new", "flag": None}
        assert backend.dump()["obj"][7] == {
            "id": 7, "value": 1.0, "label": "new", "flag": None}

    def test_delete_by_key(self, backend):
        with backend.begin("T1", write=True) as txn:
            assert txn.delete_by_key("obj", 1) == 1
            assert not txn.has_key("obj", 1)
        assert backend.dump()["obj"] == {}

    def test_missing_row_raises_storage_error(self, backend):
        with backend.begin("T1") as txn:
            with pytest.raises(StorageError):
                txn.get_row("obj", 99)
            txn.abort()

    def test_duplicate_insert_raises_storage_error(self, backend):
        with backend.begin("T1", write=True) as txn:
            with pytest.raises(StorageError):
                txn.insert("obj", {"id": 1, "value": 0.0})
            txn.abort()

    def test_duplicate_key_breaking_a_constraint_is_the_constraint(
            self, backend):
        # both check the row's constraints before its key (the memory
        # engine used to check the key first: a StorageError there)
        with backend.begin("T1", write=True) as txn:
            with pytest.raises(ConstraintViolation):
                txn.insert("obj", {"id": 1, "value": -1.0})
            txn.abort()
        assert backend.dump()["obj"][1]["value"] == 10.0

    def test_constraint_violation_maps_identically(self, backend):
        # Python-side CheckConstraints run on both backends, so the
        # SST executor sees the same ConstraintViolation either way.
        with backend.begin("T1", write=True) as txn:
            with pytest.raises(ConstraintViolation):
                txn.update_by_key("obj", 1, {"value": -1.0})
            txn.abort()

    def test_write_write_conflict_is_lock_error(self, backend):
        """Two serialized writers on one row: the loser is refused at
        begin with a BackendConflictError, in the LockError taxonomy,
        on every backend — the SST retry loop classifies it as
        transient."""
        holder = backend.begin("W1", write=True)
        holder.update_by_key("obj", 1, {"value": 1.0})
        with pytest.raises(BackendConflictError):
            backend.begin("W2", write=True)
        holder.commit()
        assert backend.dump()["obj"][1]["value"] == 1.0

    def test_dump_shows_committed_state_only(self, backend):
        """``dump()`` is the committed state: an open writer's update
        and insert are not in it until it commits."""
        writer = backend.begin("W", write=True)
        writer.update_by_key("obj", 1, {"value": 99.0})
        writer.insert("obj", {"id": 2, "value": 1.0})
        assert backend.dump()["obj"] == {
            1: {"id": 1, "value": 10.0, "label": "a", "flag": True}}
        writer.commit()
        assert sorted(backend.dump()["obj"]) == [1, 2]

    def test_reader_behind_an_open_writer_reads_committed_state(
            self, backend):
        """The read path reads instead of refusing: committed values,
        not the writer's, and the reader finishes — a crash then loses
        only the writer."""
        writer = backend.begin("W", write=True)
        writer.update_by_key("obj", 1, {"value": 99.0})
        writer.insert("obj", {"id": 2, "value": 1.0})
        with backend.begin("R") as reader:
            assert reader.get_row("obj", 1)["value"] == 10.0
            assert not reader.has_key("obj", 2)
        assert backend.crash() == ("W",)
        assert backend.dump()["obj"][1]["value"] == 10.0

    def test_crash_recovers_committed_state_only(self, backend):
        with backend.begin("T1", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 5.0})
        open_txn = backend.begin("T2", write=True)
        open_txn.insert("obj", {"id": 2, "value": 0.0})
        assert backend.crash() == ("T2",)
        # the open transaction's work is gone, the commit survived
        assert backend.dump()["obj"] == {
            1: {"id": 1, "value": 5.0, "label": "a", "flag": True}}
        # and the backend is usable again after recovery
        with backend.begin("T3", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 6.0})
        assert backend.dump()["obj"][1]["value"] == 6.0

    def test_bool_and_null_round_trip(self, backend):
        with backend.begin("T1", write=True) as txn:
            txn.insert("obj", {"id": 2, "value": None, "label": None,
                               "flag": False})
        row = backend.dump()["obj"][2]
        assert row == {"id": 2, "value": None, "label": None,
                       "flag": False}
        assert row["flag"] is False  # BOOL survives the INTEGER column

    @pytest.mark.parametrize("verb", [
        lambda backend: backend.begin("T1"),
        lambda backend: backend.begin("T1", write=True),
        lambda backend: backend.seed("obj", [{"id": 2, "value": 1.0}]),
        lambda backend: backend.dump(),
    ], ids=["begin-read", "begin-write", "seed", "dump"])
    def test_a_closed_backend_refuses_work(self, backend, verb):
        """One close contract: the closed backend has let go of its rows
        (SQLite removed its file), so it serves none of them."""
        open_txn = backend.begin("T0", write=True)
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            verb(backend)
        # the transaction open at close was lost with its connection
        with pytest.raises(TransactionAborted):
            open_txn.get_row("obj", 1)
        backend.close()  # closing twice is harmless


def _fail_once(monkeypatch, failing: str, message: str) -> list:
    """Make every connection ``_connect`` returns a proxy whose next
    ``failing`` statement, once the returned list is armed (appended
    to), raises ``sqlite3.OperationalError(message)`` instead of
    running."""
    armed = []

    class FailingOnce:
        def __init__(self, conn):
            self._conn = conn

        def execute(self, sql, *params):
            if armed and sql == failing:
                armed.clear()
                raise sqlite3.OperationalError(message)
            return self._conn.execute(sql, *params)

        def __getattr__(self, name):
            return getattr(self._conn, name)

    connect = SQLiteBackend._connect
    monkeypatch.setattr(SQLiteBackend, "_connect",
                        lambda backend: FailingOnce(connect(backend)))
    return armed


class TestSeedContract:
    """``seed`` writes rows and nothing else (docs/BACKENDS.md §1):
    memory stores them at the call, SQLite INSERTs them at the call and
    commits them with the next ``begin``, ``dump``, ``create_table``,
    ``crash`` or ``close``.  Every refusal still comes from ``seed``
    itself.  The fixture's own seed of row 1 is still staged on SQLite
    when each test starts."""

    @pytest.mark.parametrize("reader", [
        lambda backend: backend.begin("R").get_row("obj", 2),
        lambda backend: backend.begin("W", write=True).get_row("obj", 2),
        lambda backend: backend.dump()["obj"][2],
    ], ids=["begin-read", "begin-write", "dump"])
    def test_rows_are_visible_to_the_next_call(self, backend, reader):
        backend.seed("obj", [{"id": 2, "value": 2.0}])
        assert reader(backend) == {"id": 2, "value": 2.0, "label": None,
                                   "flag": None}

    @pytest.mark.parametrize("earlier", ["committed", "staged"])
    def test_a_duplicate_key_is_refused_at_the_call(self, backend,
                                                    earlier):
        if earlier == "committed":
            backend.dump()
        with pytest.raises(StorageError):
            backend.seed("obj", [{"id": 1, "value": 0.0}])
        with pytest.raises(StorageError):
            backend.seed("obj", [{"id": 2, "value": 0.0},
                                 {"id": 2, "value": 1.0}])
        assert backend.dump()["obj"] == {
            1: {"id": 1, "value": 10.0, "label": "a", "flag": True}}

    @pytest.mark.parametrize("row, error", [
        ({"id": 2, "value": "ten"}, SchemaError),
        ({"id": 2, "value": float("nan")}, SchemaError),
        ({"id": 2, "colour": "red"}, SchemaError),
        ({"id": 2, "value": -1.0}, ConstraintViolation),
    ], ids=["type", "nan", "column", "constraint"])
    def test_schema_and_constraint_errors_are_raised_at_the_call(
            self, backend, row, error):
        with pytest.raises(error):
            backend.seed("obj", [row])
        assert sorted(backend.dump()["obj"]) == [1]

    @pytest.mark.parametrize("last", [
        {"id": 1, "value": 0.0},
        {"id": 2, "value": 0.0},
        {"id": 4, "value": -1.0},
    ], ids=["duplicate-of-earlier-seed", "duplicate-in-call",
            "constraint"])
    def test_a_bad_last_row_leaves_none_of_the_call(self, backend, last):
        with pytest.raises((StorageError, ConstraintViolation)):
            backend.seed("obj", [{"id": 2, "value": 2.0},
                                 {"id": 3, "value": 3.0}, last])
        backend.seed("obj", [{"id": 5, "value": 5.0}])
        assert sorted(backend.dump()["obj"]) == [1, 5]

    def test_a_seed_while_a_writer_is_open_is_a_conflict(self, backend):
        holder = backend.begin("W1", write=True)
        with pytest.raises(BackendConflictError):
            backend.seed("obj", [{"id": 2, "value": 2.0}])
        holder.commit()
        backend.seed("obj", [{"id": 2, "value": 2.0}])
        assert sorted(backend.dump()["obj"]) == [1, 2]

    def test_create_table_after_a_seed(self, backend):
        """SQLite's DDL needs the write lock the staged seed holds."""
        backend.seed("obj", [{"id": 2, "value": 2.0}])
        backend.create_table(TableSchema(
            "more", (Column("k", ColumnType.TEXT),), primary_key="k"))
        backend.seed("more", [{"k": "a"}, {"k": "b"}])
        state = backend.dump()
        assert sorted(state["obj"]) == [1, 2]
        assert sorted(state["more"]) == ["a", "b"]

    def test_crash_keeps_seeded_rows_and_loses_no_transaction(
            self, backend):
        backend.seed("obj", [{"id": 2, "value": 2.0}])
        assert backend.crash() == ()
        assert sorted(backend.dump()["obj"]) == [1, 2]

    @pytest.mark.parametrize("trigger", [
        lambda backend: backend.begin("R"),
        lambda backend: backend.begin("W", write=True),
        lambda backend: backend.dump(),
        lambda backend: backend.create_table(TableSchema(
            "more", (Column("k", ColumnType.TEXT),), primary_key="k")),
        lambda backend: backend.crash(),
    ], ids=["begin-read", "begin-write", "dump", "create_table", "crash"])
    def test_a_failed_deferred_commit_is_a_backend_error(
            self, monkeypatch, request, trigger):
        """SQLite only: the failed COMMIT rolls the staged rows back and
        is a BackendError, never the retryable BackendConflictError,
        even when SQLite calls it busy; the write path stays usable."""
        armed = _fail_once(monkeypatch, "COMMIT", "database is locked")
        sqlite = make_backend("sqlite")
        request.addfinalizer(sqlite.close)
        sqlite.seed("obj", [{"id": 2, "value": 2.0}])
        armed.append(True)
        with pytest.raises(BackendError) as caught:
            trigger(sqlite)
        assert not isinstance(caught.value, BackendConflictError)
        assert sqlite.open_transactions() == ()
        assert sqlite._writer is None or not sqlite._writer.in_transaction
        assert sqlite.dump()["obj"] == {}
        sqlite.seed("obj", [{"id": 3, "value": 3.0}])
        with sqlite.begin("T", write=True) as txn:
            txn.update_by_key("obj", 3, {"value": 4.0})
        assert sqlite.dump()["obj"] == {
            3: {"id": 3, "value": 4.0, "label": None, "flag": None}}


def make_stock(name: str, constrained: bool) -> LDBSBackend:
    """A two-row table whose constraint, when it has one, needs the
    post-image: ``held <= cap`` cannot be checked from ``held`` alone."""
    backend = create_backend(name)
    backend.create_table(
        TableSchema("stock",
                    (Column("sku", ColumnType.TEXT),
                     Column("held", ColumnType.FLOAT, nullable=True),
                     Column("cap", ColumnType.FLOAT, nullable=True)),
                    primary_key="sku"),
        constraints=[CheckConstraint(
            "stock.held<=cap", "stock",
            lambda row: row["held"] <= row["cap"])] if constrained else [])
    backend.seed("stock", [{"sku": "a", "held": 1.0, "cap": 5.0},
                           {"sku": "b", "held": 2.0, "cap": 5.0}])
    return backend


@pytest.fixture(params=[False, True], ids=["unconstrained", "constrained"])
def constrained(request):
    return request.param


@pytest.fixture(params=BACKENDS)
def stock(request, constrained):
    built = make_stock(request.param, constrained)
    yield built
    built.close()


class TestKeyedWriteContract:
    """What ``update_by_key``'s count means, and when the row is read:
    the seam's cost contract (docs/BACKENDS.md), on both adapters, on a
    table with and without a constraint."""

    def test_zero_means_the_key_is_absent(self, stock):
        before = stock.dump()
        with stock.begin("T1", write=True) as txn:
            assert txn.update_by_key("stock", "zz", {"held": 1.0}) == 0
            assert txn.update_by_key("stock", "zz", {}) == 0
            assert txn.delete_by_key("stock", "zz") == 0
        assert stock.dump() == before

    def test_empty_update_answers_one_and_writes_nothing(self, stock):
        """It used to answer 0 on SQLite — which the SST reads as "no
        such row, insert it"."""
        before = stock.dump()
        txn = stock.begin("T1", write=True)
        assert txn.update_by_key("stock", "a", {}) == 1
        txn.commit()
        assert stock.dump() == before

    def test_update_of_an_existing_row_answers_one(self, stock):
        with stock.begin("T1", write=True) as txn:
            assert txn.update_by_key("stock", "a", {"held": 4.0}) == 1
            assert txn.get_row("stock", "a")["held"] == 4.0
        assert stock.dump()["stock"]["a"] == {
            "sku": "a", "held": 4.0, "cap": 5.0}

    def test_post_image_is_validated_and_the_row_left_intact(
            self, stock, constrained):
        """Only the constraint's table pays for reading the row: the
        check needs ``cap``, which the update does not carry."""
        before = stock.dump()
        txn = stock.begin("T1", write=True)
        if constrained:
            with pytest.raises(ConstraintViolation):
                txn.update_by_key("stock", "a", {"held": 9.0})
            assert txn.get_row("stock", "a")["held"] == 1.0
            # the transaction is still usable, and a legal value lands
            assert txn.update_by_key("stock", "a", {"held": 5.0}) == 1
            txn.abort()
            assert stock.dump() == before
        else:
            assert txn.update_by_key("stock", "a", {"held": 9.0}) == 1
            txn.commit()
            assert stock.dump()["stock"]["a"]["held"] == 9.0

    def test_colliding_primary_key_change_is_refused(self, stock):
        before = stock.dump()
        txn = stock.begin("T1", write=True)
        with pytest.raises(StorageError):
            txn.update_by_key("stock", "a", {"sku": "b"})
        assert txn.get_row("stock", "a")["held"] == 1.0
        assert txn.get_row("stock", "b")["held"] == 2.0
        txn.abort()
        assert stock.dump() == before

    def test_free_primary_key_change_moves_the_row(self, stock):
        with stock.begin("T1", write=True) as txn:
            assert txn.update_by_key("stock", "a", {"sku": "c"}) == 1
            assert not txn.has_key("stock", "a")
            assert txn.update_by_key("stock", "c", {"held": 3.0}) == 1
        assert stock.dump()["stock"] == {
            "b": {"sku": "b", "held": 2.0, "cap": 5.0},
            "c": {"sku": "c", "held": 3.0, "cap": 5.0}}


class TestDumpParity:
    def test_same_script_same_dump(self):
        """One mixed script replayed on each backend yields the exact
        same canonical dump — the invariant the differential harness
        leans on."""
        dumps = []
        for name in BACKENDS:
            backend = make_backend(name)
            try:
                with backend.begin("S1", write=True) as txn:
                    txn.update_by_key("obj", 1, {"value": 2.5})
                    txn.insert("obj", {"id": 3, "value": 7.0,
                                       "label": "c", "flag": False})
                with backend.begin("S2", write=True) as txn:
                    txn.delete_by_key("obj", 3)
                    txn.insert("obj", {"id": 4, "value": None,
                                       "label": None, "flag": None})
                txn = backend.begin("S3", write=True)
                txn.update_by_key("obj", 1, {"value": -0.0})
                txn.abort()
                dumps.append(backend.dump())
            finally:
                backend.close()
        assert dumps[0] == dumps[1]
        assert list(dumps[0]["obj"]) == [1, 4]


class TestSQLiteSpecific:
    @pytest.fixture()
    def sqlite(self):
        backend = make_backend("sqlite")
        yield backend
        backend.close()

    def test_busy_begin_raises_backend_conflict(self, sqlite):
        holder = sqlite.begin("W1", write=True)
        with pytest.raises(BackendConflictError):
            sqlite.begin("W2", write=True)
        holder.abort()
        # the writer slot is free again
        with sqlite.begin("W3", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 1.0})

    def test_read_path_does_not_block_the_writer(self, sqlite):
        """libres' split: reads take default isolation (a WAL
        snapshot), so a long read never holds up the serialized write
        path — and keeps its snapshot while the writer commits."""
        reader = sqlite.begin("R", write=False)
        assert reader.get_row("obj", 1)["value"] == 10.0
        with sqlite.begin("W", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 99.0})
        # the writer committed underneath the reader...
        assert reader.get_row("obj", 1)["value"] == 10.0
        reader.commit()
        # ...and a fresh read sees the new state
        with sqlite.begin("R2") as probe:
            assert probe.get_row("obj", 1)["value"] == 99.0

    # -- the long-lived writer connection ------------------------------

    @pytest.fixture()
    def connects(self, monkeypatch):
        """Connections opened, counted at the ``_connect`` seam (the
        class-level hook the end-to-end benchmark also wraps)."""
        opened = []
        connect = SQLiteBackend._connect

        def counting_connect(backend):
            conn = connect(backend)
            opened.append(conn)
            return conn

        monkeypatch.setattr(SQLiteBackend, "_connect", counting_connect)
        return opened

    def test_sequential_writes_share_one_connection(self, connects, sqlite):
        for index in range(2, 12):
            with sqlite.begin(write=True) as txn:
                txn.update_by_key("obj", 1, {"value": float(index)})
            sqlite.seed("obj", [{"id": index, "value": 0.0}])
        aborted = sqlite.begin(write=True)
        aborted.delete_by_key("obj", 1)
        aborted.abort()
        # WAL set-up, CREATE TABLE, and one writer for the fixture's
        # seed and all 21 write transactions here.
        assert len(connects) == 3
        assert sqlite.commits == 21 and sqlite.aborts == 1   # + the seed
        assert sqlite.open_transactions() == ()
        assert sorted(sqlite.dump()["obj"]) == list(range(1, 12))

    def test_second_concurrent_writer_is_refused_at_begin(self, sqlite,
                                                          connects):
        holder = sqlite.begin("W1", write=True)     # on the idle writer
        holder.update_by_key("obj", 1, {"value": 1.0})
        with pytest.raises(BackendConflictError):
            sqlite.begin("W2", write=True)      # its own connection: busy
        assert sqlite.open_transactions() == ("W1",)
        holder.commit()
        with sqlite.begin("W3", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 2.0})
        assert sqlite.dump()["obj"][1]["value"] == 2.0
        # the refused writer's own connection, and dump()'s reader
        assert len(connects) == 2

    def test_crash_mid_transaction_drops_the_writer(self, sqlite):
        with sqlite.begin("T1", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 5.0})
        writer = sqlite._writer
        open_txn = sqlite.begin("T2", write=True)
        open_txn.insert("obj", {"id": 2, "value": 0.0})
        assert sqlite._writer is None               # T2 holds it
        assert sqlite.crash() == ("T2",)
        assert sorted(sqlite.dump()["obj"]) == [1]
        assert sqlite.dump()["obj"][1]["value"] == 5.0
        with pytest.raises(sqlite3.ProgrammingError):
            writer.execute("SELECT 1")              # hard-closed
        with sqlite.begin("T3", write=True) as txn:
            txn.insert("obj", {"id": 2, "value": 1.0})
        assert sqlite.dump()["obj"][2]["value"] == 1.0

    def test_crash_with_idle_writer_loses_nothing(self, sqlite):
        with sqlite.begin("T1", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 5.0})
        writer = sqlite._writer
        assert sqlite.crash() == ()
        with pytest.raises(sqlite3.ProgrammingError):
            writer.execute("SELECT 1")
        assert sqlite.dump()["obj"][1]["value"] == 5.0
        with sqlite.begin("T2", write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 6.0})
        assert sqlite.dump()["obj"][1]["value"] == 6.0

    def test_reader_keeps_its_snapshot_across_pooled_writes(self, sqlite):
        with sqlite.begin(write=True) as txn:   # the writer exists
            txn.update_by_key("obj", 1, {"value": 11.0})
        reader = sqlite.begin("R", write=False)
        assert reader.get_row("obj", 1)["value"] == 11.0
        for value in (12.0, 13.0):
            with sqlite.begin(write=True) as txn:
                txn.update_by_key("obj", 1, {"value": value})
            assert reader.get_row("obj", 1)["value"] == 11.0
        reader.commit()
        assert sqlite.dump()["obj"][1]["value"] == 13.0

    def test_close_drops_the_writer_and_the_owned_files(self):
        backend = make_backend("sqlite")
        with backend.begin(write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 2.0})
        assert os.path.exists(backend.path)
        backend.close()
        with pytest.raises(BackendError):
            backend.begin(write=True)
        for suffix in ("", "-wal", "-shm"):
            assert not os.path.exists(backend.path + suffix)

    def test_writer_reusable_after_statement_errors(self, sqlite, connects):
        with pytest.raises(ConstraintViolation):
            with sqlite.begin(write=True) as txn:
                txn.update_by_key("obj", 1, {"value": -1.0})
        with pytest.raises(StorageError):
            with sqlite.begin(write=True) as txn:
                txn.update_by_key("obj", 1, {"value": 3.0})
                txn.insert("obj", {"id": 1, "value": 0.0})
        with sqlite.begin(write=True) as txn:
            txn.update_by_key("obj", 1, {"value": 4.0})
        assert connects == []           # all on the fixture's writer
        assert sqlite.dump()["obj"][1]["value"] == 4.0
        assert sqlite.commits == 2 and sqlite.aborts == 2

    @pytest.mark.parametrize("failing, message", [
        ("COMMIT", "disk I/O error"),
        ("ROLLBACK", "cannot rollback - no transaction is active"),
    ])
    def test_failed_commit_or_rollback_does_not_wedge_the_write_path(
            self, monkeypatch, request, failing, message):
        """Regression: a non-busy COMMIT failure, or a ROLLBACK that
        itself raises, used to leave the transaction open on a
        connection holding the write lock — every later SST failed
        busy.  The writer must be released, or discarded when it is
        still inside a transaction."""

        armed = _fail_once(monkeypatch, failing, message)
        sqlite = make_backend("sqlite")     # so its writer is a proxy
        request.addfinalizer(sqlite.close)
        sqlite.dump()       # commits the fixture's seed before arming
        armed.append(True)
        txn = sqlite.begin("T1", write=True)
        txn.update_by_key("obj", 1, {"value": 3.0})
        if failing == "COMMIT":
            with pytest.raises(BackendError) as caught:
                txn.commit()
            assert not isinstance(caught.value, BackendConflictError)
        else:
            txn.abort()     # SQLite's refusal leaves nothing to undo
        assert sqlite.open_transactions() == ()
        assert sqlite._writer is None or not sqlite._writer.in_transaction
        assert sqlite.dump()["obj"][1]["value"] == 10.0
        with sqlite.begin("T2", write=True) as again:
            again.update_by_key("obj", 1, {"value": 4.0})
        assert sqlite.dump()["obj"][1]["value"] == 4.0
        assert (sqlite.commits, sqlite.aborts) == (2, 1)   # seed + T2; T1

    def test_keyed_update_reads_the_row_only_under_a_constraint(
            self, constrained, connects):
        """One statement per write to an existing row; a constrained
        table adds the SELECT its post-image check needs."""
        stock = make_stock("sqlite", constrained)
        statements = []
        # the writer: the seed opened it last, and every SST reuses it
        writer = connects[-1]
        stock.dump()        # commits the seed before the window opens
        writer.set_trace_callback(statements.append)
        try:
            with stock.begin("T1", write=True) as txn:
                txn.update_by_key("stock", "a", {"held": 3.0})
                txn.update_by_key("stock", "b", {"held": 4.0})
            verbs = [statement.split()[0] for statement in statements]
            assert verbs == (
                ["BEGIN", "SELECT", "UPDATE", "SELECT", "UPDATE", "COMMIT"]
                if constrained else ["BEGIN", "UPDATE", "UPDATE", "COMMIT"])
        finally:
            stock.close()

    def test_explicit_path_and_wal_mode(self, tmp_path):
        target = tmp_path / "ldbs.sqlite3"
        backend = SQLiteBackend(path=str(target))
        try:
            backend.create_table(TableSchema(
                "t", (Column("id", ColumnType.INT),), primary_key="id"))
            backend.seed("t", [{"id": 1}])
            assert target.exists()
            assert backend.dump() == {"t": {1: {"id": 1}}}
        finally:
            backend.close()
        # close() keeps a caller-owned file
        assert target.exists()

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(BackendError):
            create_backend("postgres")
