"""Tests for the serializability checker (serial replay)."""

from hypothesis import given, settings, strategies as st

from repro.check.oracle import check_episode, record_gtm
from repro.core.gtm import GlobalTransactionManager
from repro.core.history import OperationLog, serial_replay
from repro.core.opclass import (
    add,
    assign,
    multiply,
    read,
    subtract,
)
from tests.core.invocations import delete_object, insert_object


class TestOperationLog:
    def test_records_objects_applies_and_commits(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=10)
        gtm.begin("A")
        gtm.invoke("A", "X", add(1))
        gtm.apply("A", "X", add(1))
        gtm.request_commit("A")
        log = gtm.history
        assert log.initial == {"X": {"value": 10}}
        assert [op.invocation for op in log.ops_of("A")] == [add(1)]
        assert log.commit_order == ["A"]

    def test_reads_not_logged(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=10)
        gtm.begin("A")
        gtm.invoke("A", "X", read())
        gtm.apply("A", "X", read())
        gtm.request_commit("A")
        assert gtm.history.ops_of("A") == []

    def test_aborted_ops_excluded_from_replay(self):
        log = OperationLog()
        log.record_object("X", {"value": 0}, exists=True)
        log.record_apply("A", "X", add(5))     # A never commits
        log.record_apply("B", "X", add(3))
        log.record_commit("B")
        state = serial_replay(log)
        assert state.values["X"]["value"] == 3


class TestSerialReplay:
    def test_table2_schedule(self):
        log = OperationLog()
        log.record_object("X", {"value": 100}, exists=True)
        log.record_apply("A", "X", add(1))
        log.record_apply("B", "X", add(2))
        log.record_apply("A", "X", add(3))
        log.record_commit("A")
        log.record_commit("B")
        assert serial_replay(log).values["X"]["value"] == 106

    def test_insert_delete_semantics(self):
        log = OperationLog()
        log.record_object("X", {"value": None}, exists=False)
        log.record_apply("A", "X", insert_object({"value": 5}))
        log.record_commit("A")
        log.record_apply("B", "X", delete_object())
        log.record_commit("B")
        state = serial_replay(log)
        assert not state.exists["X"]
        assert state.values["X"]["value"] is None


class TestCheckSerializable:
    """The commit-order verdict on hand-driven GTM schedules."""

    def run_and_check(self, drive):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=100)
        drive(gtm)
        report = check_episode(record_gtm(gtm))
        assert report.serializable, report.mismatches
        return report

    def test_concurrent_additive_schedule(self):
        def drive(gtm):
            for index, delta in enumerate((1, -2, 3, -4)):
                name = f"T{index}"
                gtm.begin(name)
                gtm.invoke(name, "X", add(delta))
                gtm.apply(name, "X", add(delta))
            for index in range(4):
                gtm.request_commit(f"T{index}")
                gtm.pump_commits()

        report = self.run_and_check(drive)
        assert report.committed == 4

    def test_mixed_assign_and_add_schedule(self):
        def drive(gtm):
            gtm.begin("A")
            gtm.invoke("A", "X", add(1))
            gtm.apply("A", "X", add(1))
            gtm.begin("W")
            gtm.invoke("W", "X", assign(50))   # waits
            gtm.request_commit("A")
            gtm.apply("W", "X", assign(50))    # granted at unlock
            gtm.request_commit("W")

        self.run_and_check(drive)

    def test_sleep_abort_keeps_history_clean(self):
        def drive(gtm):
            gtm.begin("S")
            gtm.invoke("S", "X", subtract(10))
            gtm.apply("S", "X", subtract(10))
            gtm.sleep("S")
            gtm.begin("A")
            gtm.invoke("A", "X", assign(7))
            gtm.apply("A", "X", assign(7))
            gtm.request_commit("A")
            assert not gtm.awake("S")          # S aborted: its -10 gone

        self.run_and_check(drive)

    def test_multiplicative_schedule(self):
        def drive(gtm):
            for index, factor in enumerate((2, 0.5, 4)):
                name = f"M{index}"
                gtm.begin(name)
                gtm.invoke(name, "X", multiply(factor))
                gtm.apply(name, "X", multiply(factor))
            for index in range(3):
                gtm.request_commit(f"M{index}")
                gtm.pump_commits()

        self.run_and_check(drive)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4),
              st.sampled_from(["add", "assign", "commit", "abort",
                               "sleep", "awake"]),
              st.integers(-5, 5)),
    min_size=1, max_size=40))
def test_random_schedules_are_serializable(actions):
    """Every legal GTM schedule must pass the serial-replay check."""
    from repro.core.states import TransactionState as _S
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=1000)
    names = [f"T{k}" for k in range(5)]
    for name in names:
        gtm.begin(name)
    for index, action, amount in actions:
        name = names[index]
        txn = gtm.transaction(name)
        if action == "add" and txn.is_in(_S.ACTIVE):
            if "X" not in txn.operations:
                gtm.invoke(name, "X", add(1))
            obj = gtm.object("X")
            ops = obj.pending.get(name, {})
            if ops and next(iter(ops.values())).op_class.value == \
                    "update-addsub":
                gtm.apply(name, "X", add(amount))
        elif action == "assign" and txn.is_in(_S.ACTIVE):
            if "X" not in txn.operations:
                gtm.invoke(name, "X", assign(amount))
            obj = gtm.object("X")
            ops = obj.pending.get(name, {})
            if ops and next(iter(ops.values())).op_class.value == \
                    "update-assign":
                gtm.apply(name, "X", assign(amount))
        elif action == "commit" and txn.is_in(_S.ACTIVE) and \
                txn.involved and not txn.t_wait:
            gtm.request_commit(name)
            gtm.pump_commits()
        elif action == "abort" and txn.is_in(_S.ACTIVE, _S.WAITING):
            gtm.abort(name)
        elif action == "sleep" and txn.is_in(_S.ACTIVE, _S.WAITING):
            gtm.sleep(name)
        elif action == "awake" and txn.is_in(_S.SLEEPING):
            gtm.awake(name)
    # drain: finish everything still alive
    for name in names:
        txn = gtm.transaction(name)
        if txn.is_in(_S.SLEEPING):
            gtm.awake(name)
            txn = gtm.transaction(name)
        if txn.is_in(_S.WAITING):
            gtm.abort(name)
            continue
        if txn.is_in(_S.ACTIVE):
            if txn.involved and not txn.t_wait:
                gtm.request_commit(name)
                gtm.pump_commits()
            else:
                gtm.abort(name)
    gtm.pump_commits()
    report = check_episode(record_gtm(gtm))
    assert report.serializable, report.mismatches
