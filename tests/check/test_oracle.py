"""The serializability oracle on hand-built operation logs."""

import os
import subprocess
import sys

from repro.check.oracle import (
    RecordedEpisode,
    check_episode,
    record_baseline,
    record_gtm,
    replay_mismatches,
)
from repro.core.history import OperationLog
from repro.core.opclass import add, assign, multiply
from repro.mobile.session import SessionPlan
from repro.schedulers import two_phase_locking
from repro.schedulers.optimistic import OptimisticScheduler
from repro.workload.spec import Workload, single_step_profile


def _log(initial, ops, commit_order):
    """ops: list of (txn_id, object_name, invocation)."""
    log = OperationLog()
    for name, value in initial.items():
        log.record_object(name, {"value": value}, True)
    for txn_id, object_name, invocation in ops:
        log.record_apply(txn_id, object_name, invocation)
    for txn_id in commit_order:
        log.record_commit(txn_id)
    return log


def _episode(initial, ops, commit_order, final):
    return RecordedEpisode(
        log=_log(initial, ops, commit_order),
        final={name: {"value": value} for name, value in final.items()},
        exists={name: True for name in final},
    )


class TestWitnessOrder:
    def test_commit_order_is_the_witness(self):
        episode = _episode(
            {"X": 100},
            [("T1", "X", add(5)), ("T2", "X", add(3))],
            ["T1", "T2"],
            {"X": 108})
        report = check_episode(episode)
        assert report.serializable
        assert report.mismatches == []
        assert report.orders_tried == 1

    def test_uncommitted_transactions_never_replay(self):
        episode = _episode(
            {"X": 100},
            [("T1", "X", add(5)), ("DEAD", "X", assign(0))],
            ["T1"],
            {"X": 105})
        assert check_episode(episode).serializable


class TestPermutationFallback:
    """There is no fallback: the commit order is the only order tried."""

    def test_state_only_another_order_explains_is_rejected(self):
        """Final state matches T2;T1 though the commit order says T1;T2.
        The commit order is the witness Section V promises, so no other
        order may rescue the run."""
        ops = [("T1", "X", assign(5)), ("T2", "X", assign(7))]
        assert check_episode(
            _episode({"X": 0}, ops, ["T2", "T1"], {"X": 5})).serializable
        report = check_episode(
            _episode({"X": 0}, ops, ["T1", "T2"], {"X": 5}))
        assert not report.serializable
        assert report.orders_tried == 1
        assert report.mismatches == ["X.value: concurrent=5 serial=7"]

    def test_lost_update_is_not_serializable(self):
        """X=999 matches no serial order of the committed work."""
        episode = _episode(
            {"X": 100},
            [("T1", "X", add(5)), ("T2", "X", add(3))],
            ["T1", "T2"],
            {"X": 999})
        report = check_episode(episode)
        assert not report.serializable
        assert report.mismatches
        assert "999" in report.mismatches[0]

    def test_mismatch_names_object_and_member(self):
        episode = _episode({"X": 1}, [("T1", "X", add(1))], ["T1"],
                           {"X": 7})
        report = check_episode(episode)
        assert any("X.value" in m for m in report.mismatches)


class TestComponentSearch:
    """There is no component search either: a large episode is judged
    by its commit order alone."""

    def test_large_episode_out_of_order_component_is_rejected(self):
        """8 committed txns: six independent adders plus one conflicting
        assign/assign pair whose final state only S2 before S1 explains,
        recorded in the order S1, S2.  Only the pair's object is
        reported; the adders replay clean."""
        initial = {f"A{i}": 0 for i in range(6)}
        initial["Y"] = 0
        ops = [(f"T{i}", f"A{i}", add(1)) for i in range(6)]
        ops += [("S1", "Y", assign(5)), ("S2", "Y", assign(7))]
        final = {f"A{i}": 1 for i in range(6)}
        final["Y"] = 5  # matches S2 before S1
        adders = [f"T{i}" for i in range(6)]
        assert check_episode(_episode(
            initial, ops, adders[:3] + ["S2", "S1"] + adders[3:],
            final)).serializable
        report = check_episode(_episode(
            initial, ops, adders[:3] + ["S1", "S2"] + adders[3:], final))
        assert not report.serializable
        assert report.orders_tried == 1
        assert report.mismatches == ["Y.value: concurrent=5 serial=7"]

    def test_large_episode_true_violation_still_caught(self):
        initial = {f"A{i}": 0 for i in range(7)}
        initial["Y"] = 10
        ops = [(f"T{i}", f"A{i}", add(1)) for i in range(7)]
        ops += [("S1", "Y", multiply(2))]
        final = {f"A{i}": 1 for i in range(7)}
        final["Y"] = 999
        episode = _episode(initial, ops,
                           [f"T{i}" for i in range(7)] + ["S1"], final)
        assert not check_episode(episode).serializable


class TestReplayMismatches:
    def test_float_tolerance(self):
        episode = _episode({"X": 10}, [("T1", "X", multiply(1.0 / 3))],
                           ["T1"], {"X": 10 * (1.0 / 3) + 1e-12})
        assert replay_mismatches(episode) == []

    def test_exact_integer_comparison(self):
        episode = _episode({"X": 10}, [("T1", "X", add(1))], ["T1"],
                           {"X": 12})
        assert replay_mismatches(episode)


class TestRecordBaseline:
    def test_reconstructs_commit_order_from_timelines(self):
        from repro.check.fuzzer import FuzzConfig, generate_episode
        from repro.check.fuzzer import episode_workload
        from repro.check.runner import build_scheduler

        spec = generate_episode(FuzzConfig(scheduler="optimistic"), 3, 0)
        workload = episode_workload(spec)
        result = build_scheduler(spec).run(workload)
        recorded = record_baseline(workload, result)
        committed = {t.txn_id for t in result.collector.committed()}
        assert set(recorded.log.commit_order) == committed
        # applied ops only come from committed transactions
        assert set(recorded.log.ops) <= committed
        report = check_episode(recorded)
        assert report.serializable

    @staticmethod
    def _tied(scheduler, profiles):
        workload = Workload(profiles, initial_values={"X": 0.0})
        result = scheduler.run(workload)
        assert result.final_values == {"X": 6}
        finished = {t.finished for t in result.collector.committed()}
        assert finished == {1.0}  # both commits at one instant
        # the lock-based baseline is the GTM and keeps its own log
        gtm = getattr(scheduler, "last_gtm", None)
        recorded = (record_gtm(gtm) if gtm is not None
                    else record_baseline(workload, result))
        return recorded.log.commit_order, check_episode(recorded)

    def test_optimistic_tie_keeps_the_engine_order(self):
        """T2 arrives first and T1 second; both commit at t=1.0, T2
        first, so X ends at (0 := 5) + 1.  Ordering the tie by txn id
        would replay T1 first and get 5."""
        order, report = self._tied(OptimisticScheduler(), [
            single_step_profile("T2", 0.0, "X", assign(5),
                                SessionPlan(work_time=1.0)),
            single_step_profile("T1", 0.5, "X", add(1),
                                SessionPlan(work_time=0.5)),
        ])
        assert order == ["T2", "T1"]
        assert report.serializable, report.mismatches
        assert report.orders_tried == 1

    def test_twopl_tie_keeps_the_engine_order(self):
        """B holds X until its commit at t=1.0; the lock passes to A,
        which has no work left and commits at the same instant."""
        order, report = self._tied(two_phase_locking(), [
            single_step_profile("B", 0.0, "X", assign(5),
                                SessionPlan(work_time=1.0)),
            single_step_profile("A", 0.5, "X", add(1),
                                SessionPlan(work_time=0.0)),
        ])
        assert order == ["B", "A"]
        assert report.serializable, report.mismatches
        assert report.orders_tried == 1


def test_importing_the_oracle_loads_no_numerics():
    """The oracle is what a live service check would import (the
    benchmark's load generator already does): ``repro.check`` re-exports
    nothing, so it does not bring in the fuzzers, the simulator and
    numpy with it.  A fresh interpreter, because this one has numpy."""
    probe = ("import repro.check.oracle, sys; "
             "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
