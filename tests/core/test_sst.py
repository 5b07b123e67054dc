"""Tests for Secure System Transactions (executor, injection, retry)."""

import pytest

from repro.errors import SSTFailure
from repro.core.gtm import GlobalTransactionManager
from repro.core.objects import ObjectBinding
from repro.core.opclass import assign, subtract
from repro.core.sst import FailureInjector, SSTExecutor, StagedWrite
from repro.core.states import TransactionState
from repro.ldbs.backend import MemoryBackend, create_backend
from repro.ldbs.constraints import NonNegative
from repro.ldbs.schema import Column, ColumnType, TableSchema


def make_db(stock: int = 10) -> MemoryBackend:
    db = MemoryBackend()
    db.create_table(
        TableSchema("flight",
                    (Column("id", ColumnType.INT),
                     Column("free", ColumnType.INT)),
                    primary_key="id"),
        constraints=[NonNegative("flight", "free")])
    db.seed("flight", [{"id": 1, "free": stock}])
    return db


def binding() -> ObjectBinding:
    return ObjectBinding.cell("flight", 1, "free")


class TestExecutor:
    def test_update_write(self):
        db = make_db(10)
        executor = SSTExecutor(db)
        report = executor.execute("T", [
            StagedWrite("seats", binding(), {"value": 9})])
        assert report.rows_written == 1
        assert db.dump()["flight"][1]["free"] == 9

    def test_unbound_write_skipped(self):
        db = make_db()
        executor = SSTExecutor(db)
        report = executor.execute("T", [
            StagedWrite("virtual", None, {"value": 1})])
        assert report.skipped_unbound == 1
        assert report.rows_written == 0

    def test_empty_values_means_pure_read(self):
        db = make_db(10)
        executor = SSTExecutor(db)
        report = executor.execute("T", [
            StagedWrite("seats", binding(), {})])
        assert report.rows_written == 0
        assert db.dump()["flight"][1]["free"] == 10

    def test_delete_write(self):
        db = make_db()
        executor = SSTExecutor(db)
        report = executor.execute("T", [
            StagedWrite("seats", binding(), {}, delete=True)])
        assert report.rows_deleted == 1
        assert db.dump()["flight"] == {}

    def test_insert_when_key_missing(self):
        db = make_db()
        with db.begin(write=True) as txn:
            txn.delete_by_key("flight", 1)
        executor = SSTExecutor(db)
        report = executor.execute("T", [
            StagedWrite("seats", binding(), {"value": 5})])
        assert report.rows_written == 1
        assert db.dump()["flight"][1]["free"] == 5

    def test_constraint_violation_fails_without_retry(self):
        db = make_db(0)
        executor = SSTExecutor(db, max_retries=5)
        with pytest.raises(SSTFailure) as info:
            executor.execute("T", [
                StagedWrite("seats", binding(), {"value": -1})])
        assert "constraint" in str(info.value)
        assert executor.failed == 1
        # no retries for deterministic failures
        assert db.dump()["flight"][1]["free"] == 0

    def test_failed_attempt_leaves_no_partial_state(self):
        db = make_db(10)
        db.create_table(TableSchema(
            "hotel", (Column("id", ColumnType.INT),
                      Column("free", ColumnType.INT)),
            primary_key="id"),
            constraints=[NonNegative("hotel", "free")])
        db.seed("hotel", [{"id": 1, "free": 0}])
        executor = SSTExecutor(db)
        writes = [
            StagedWrite("seats", binding(), {"value": 9}),      # fine
            StagedWrite("rooms", ObjectBinding.cell("hotel", 1, "free"),
                        {"value": -1}),                          # violates
        ]
        with pytest.raises(SSTFailure):
            executor.execute("T", writes)
        # atomicity: the first write rolled back with the second
        assert db.dump()["flight"][1]["free"] == 10


class TestFailureInjection:
    def test_fail_attempts_then_success(self):
        db = make_db(10)
        executor = SSTExecutor(db, max_retries=2,
                               injector=FailureInjector(fail_attempts=(1,)))
        report = executor.execute("T", [
            StagedWrite("seats", binding(), {"value": 9})])
        assert report.attempts == 2
        assert report.injected_failures == 1
        assert db.dump()["flight"][1]["free"] == 9

    def test_permanent_failure_exhausts_retries(self):
        db = make_db(10)
        executor = SSTExecutor(
            db, max_retries=2,
            injector=FailureInjector(should_fail=lambda t, a: True))
        with pytest.raises(SSTFailure):
            executor.execute("T", [
                StagedWrite("seats", binding(), {"value": 9})])
        assert executor.injector.injected == 3  # 1 try + 2 retries
        assert db.dump()["flight"][1]["free"] == 10

    def test_invalid_failure_rate_rejected(self):
        with pytest.raises(Exception):
            FailureInjector(failure_rate=1.5)

    def test_injector_replay_regression(self):
        """A failure-rate episode replays identically (the injector
        draws from a seeded generator, never ambient entropy)."""
        def episode():
            outcomes = []
            db = make_db(1000)
            executor = SSTExecutor(
                db, max_retries=2,
                injector=FailureInjector(failure_rate=0.4))
            for index in range(40):
                try:
                    report = executor.execute(f"T{index}", [
                        StagedWrite("seats", binding(),
                                    {"value": float(index)})])
                    outcomes.append((report.attempts,
                                     report.injected_failures))
                except SSTFailure:
                    outcomes.append("failed")
            return outcomes

        first = episode()
        assert first == episode()
        assert "failed" in first or any(o != (1, 0) for o in first), \
            "episode never exercised the injector; raise failure_rate"

    def test_injector_seed_changes_the_draw(self):
        draws = {}
        for seed in (0, 1):
            injector = FailureInjector(failure_rate=0.5, seed=seed)
            draws[seed] = [injector.fails("T", 1) for _ in range(64)]
        assert draws[0] != draws[1]


class TestGTMIntegration:
    def make_gtm(self, stock=10, injector=None, max_retries=2):
        db = make_db(stock)
        executor = SSTExecutor(db, max_retries=max_retries,
                               injector=injector)
        gtm = GlobalTransactionManager(sst_executor=executor)
        gtm.create_object("seats", value=float(stock), binding=binding())
        return gtm, db

    def test_commit_flows_to_database(self):
        gtm, db = self.make_gtm(10)
        gtm.begin("T")
        gtm.invoke("T", "seats", subtract(1))
        gtm.apply("T", "seats", subtract(1))
        report = gtm.request_commit("T")
        assert report is not None
        assert db.dump()["flight"][1]["free"] == 9
        assert gtm.object("seats").permanent_value() == 9

    def test_sst_failure_aborts_transaction_cleanly(self):
        gtm, db = self.make_gtm(
            10, injector=FailureInjector(should_fail=lambda t, a: True))
        gtm.begin("T")
        gtm.invoke("T", "seats", subtract(1))
        gtm.apply("T", "seats", subtract(1))
        with pytest.raises(SSTFailure):
            gtm.request_commit("T")
        assert gtm.transaction("T").state is TransactionState.ABORTED
        # neither side changed
        assert gtm.object("seats").permanent_value() == 10
        assert db.dump()["flight"][1]["free"] == 10

    def test_sst_failure_releases_object_for_others(self):
        gtm, _db = self.make_gtm(
            10, injector=FailureInjector(fail_attempts=(1, 2, 3)),
            max_retries=2)
        gtm.begin("T")
        gtm.invoke("T", "seats", assign(5))
        gtm.apply("T", "seats", assign(5))
        gtm.begin("U")
        gtm.invoke("U", "seats", assign(7))   # queued behind T
        with pytest.raises(SSTFailure):
            gtm.request_commit("T")
        # T died; U must have been granted at the unlock
        assert gtm.object("seats").is_pending("U")

    def test_constraint_violation_during_reconciliation(self):
        """Section VII: reconciliation can violate integrity constraints."""
        gtm, db = self.make_gtm(1)
        for name in ("A", "B"):
            gtm.begin(name)
            gtm.invoke(name, "seats", subtract(1))
            gtm.apply(name, "seats", subtract(1))
        gtm.request_commit("A")               # stock: 1 -> 0
        with pytest.raises(SSTFailure):       # B would drive it to -1
            gtm.request_commit("B")
            gtm.pump_commits()
        assert db.dump()["flight"][1]["free"] == 0


class TestBackendSeam:
    """The executor behind the pluggable-backend seam."""

    def test_upsert_probe_reads_through_the_transaction(self):
        """Regression: two staged writes landing on the same *absent*
        key must produce ONE row.  The old existence probe asked the
        catalog (around the open transaction), missed the first
        write's uncommitted insert, and issued a second INSERT —
        a duplicate-key failure on every backend."""
        db = MemoryBackend()
        db.create_table(TableSchema(
            "pair", (Column("id", ColumnType.INT),
                     Column("a", ColumnType.FLOAT, nullable=True),
                     Column("b", ColumnType.FLOAT, nullable=True)),
            primary_key="id"))
        executor = SSTExecutor(db)
        report = executor.execute("T", [
            StagedWrite("oa", ObjectBinding(
                table="pair", key=1, member_columns={"value": "a"}),
                {"value": 1.0}),
            StagedWrite("ob", ObjectBinding(
                table="pair", key=1, member_columns={"value": "b"}),
                {"value": 2.0}),
        ])
        assert report.rows_written == 2
        row = db.dump()["pair"][1]
        assert row["a"] == 1.0
        assert row["b"] == 2.0

    @pytest.mark.parametrize("name", ["memory", "sqlite"])
    def test_one_statement_per_write_to_an_existing_row(self, name):
        """The update is its own existence probe: a write to a row that
        is there costs one backend call, a write to one that is not
        costs the failed update and the insert — and no ``has_key``."""
        backend = create_backend(name)
        calls: list[str] = []

        class Recording:
            def __init__(self, txn):
                self._txn = txn

            def __getattr__(self, verb):
                calls.append(verb)
                return getattr(self._txn, verb)

            def __enter__(self):
                self._txn.__enter__()
                return self

            def __exit__(self, *exc_info):
                return self._txn.__exit__(*exc_info)

        try:
            backend.create_table(TableSchema(
                "flight", (Column("id", ColumnType.INT),
                           Column("free", ColumnType.INT)),
                primary_key="id"))
            backend.seed("flight", [{"id": 1, "free": 10}])
            executor = SSTExecutor(backend)
            begin = backend.begin
            executor.backend.begin = lambda *args, **kwargs: Recording(
                begin(*args, **kwargs))
            report = executor.execute("T", [
                StagedWrite("seats", binding(), {"value": 9}),
                StagedWrite("new", ObjectBinding.cell("flight", 2, "free"),
                            {"value": 4})])
            assert report.rows_written == 2
            assert calls == ["update_by_key", "update_by_key", "insert"]
            assert backend.dump()["flight"] == {
                1: {"id": 1, "free": 9}, 2: {"id": 2, "free": 4}}
        finally:
            backend.close()

    def test_runs_directly_on_sqlite_backend(self):
        backend = create_backend("sqlite")
        try:
            backend.create_table(
                TableSchema("flight",
                            (Column("id", ColumnType.INT),
                             Column("free", ColumnType.INT)),
                            primary_key="id"),
                constraints=[NonNegative("flight", "free")])
            backend.seed("flight", [{"id": 1, "free": 10}])
            executor = SSTExecutor(backend)
            report = executor.execute("T", [
                StagedWrite("seats", binding(), {"value": 9})])
            assert report.rows_written == 1
            assert backend.dump()["flight"][1]["free"] == 9
        finally:
            backend.close()

    def test_busy_backend_is_retried_as_a_conflict(self):
        """A held SQLite writer lock surfaces as BackendConflictError;
        the executor retries (counted in conflict_retries, distinct
        from injected failures) and succeeds once the lock clears."""
        backend = create_backend("sqlite")
        try:
            backend.create_table(TableSchema(
                "flight", (Column("id", ColumnType.INT),
                           Column("free", ColumnType.INT)),
                primary_key="id"))
            backend.seed("flight", [{"id": 1, "free": 10}])
            holder = backend.begin("ext", write=True)

            def release(_txn_id: str, attempt: int) -> bool:
                if attempt == 2:
                    holder.commit()   # free the writer slot
                return False

            executor = SSTExecutor(
                backend, max_retries=3,
                injector=FailureInjector(should_fail=release))
            report = executor.execute("T", [
                StagedWrite("seats", binding(), {"value": 5})])
            assert report.attempts == 2
            assert report.conflict_retries == 1
            assert report.injected_failures == 0
            assert backend.dump()["flight"][1]["free"] == 5
        finally:
            backend.close()

    def test_conflict_retries_exhaust_into_sst_failure(self):
        backend = create_backend("sqlite")
        try:
            backend.create_table(TableSchema(
                "flight", (Column("id", ColumnType.INT),
                           Column("free", ColumnType.INT)),
                primary_key="id"))
            backend.seed("flight", [{"id": 1, "free": 10}])
            holder = backend.begin("ext", write=True)
            executor = SSTExecutor(backend, max_retries=2)
            with pytest.raises(SSTFailure) as info:
                executor.execute("T", [
                    StagedWrite("seats", binding(), {"value": 5})])
            assert "locked" in str(info.value) or "busy" in str(info.value)
            holder.abort()
            assert backend.dump()["flight"][1]["free"] == 10
        finally:
            backend.close()
