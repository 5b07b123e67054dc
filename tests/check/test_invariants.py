"""The structural invariant suite, on clean and corrupted GTM states."""

from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode
from repro.check.invariants import check_episode_invariants, check_liveness
from repro.check.runner import build_scheduler, run_episode
from repro.core.gtm import GlobalTransactionManager
from repro.core.objects import WaitEntry
from repro.core.opclass import add, assign
from repro.core.states import TransactionState
from repro.metrics.collectors import MetricsCollector


def _finished_gtm():
    """A tiny quiescent GTM with one committed transaction."""
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=10)
    gtm.begin("T1")
    gtm.invoke("T1", "X", add(5))
    gtm.apply("T1", "X", add(5))
    gtm.local_commit("T1", "X")
    gtm.global_commit("T1")
    return gtm


class TestCleanRuns:
    def test_committed_run_is_clean(self):
        assert check_episode_invariants(_finished_gtm()) == []

    def test_fuzzed_runs_are_clean(self):
        config = FuzzConfig(scheduler="gtm")
        for index in range(10):
            spec = generate_episode(config, 31, index)
            scheduler = build_scheduler(spec)
            scheduler.run(episode_workload(spec))
            assert check_episode_invariants(scheduler.last_gtm) == []


class TestCorruptions:
    def test_non_terminal_transaction_flagged(self):
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=0)
        gtm.begin("T1")
        gtm.invoke("T1", "X", add(1))   # granted, never committed
        violations = check_episode_invariants(gtm)
        assert any("non-terminal" in v for v in violations)
        assert any("leaked pending" in v for v in violations)

    def test_granted_and_queued_same_member_flagged(self):
        gtm = _finished_gtm()
        obj = gtm.objects["X"]
        obj.grant_pending("Z", add(1))
        obj.snapshot_for("Z")
        obj.push_waiting(WaitEntry("Z", add(1), arrival=0.0))
        violations = check_episode_invariants(gtm)
        assert any("both granted and queued" in v for v in violations)

    def test_leaked_waiting_entry_flagged(self):
        gtm = _finished_gtm()
        gtm.objects["X"].push_waiting(
            WaitEntry("GHOST", assign(1), arrival=0.0))
        violations = check_episode_invariants(gtm)
        assert any("leaked waiting" in v for v in violations)

    def test_undrained_deferred_queue_flagged(self):
        gtm = _finished_gtm()
        gtm.pipeline.deferred["X"] = ["T9"]
        violations = check_episode_invariants(gtm)
        assert any("deferred-commit queue" in v for v in violations)

    def test_commit_order_ghost_flagged(self):
        gtm = _finished_gtm()
        gtm.history.commit_order.append("NEVER_BEGAN")
        violations = check_episode_invariants(gtm)
        assert any("commit order" in v for v in violations)

    def test_illegal_recorded_transition_flagged(self):
        gtm = _finished_gtm()
        gtm.transactions["T1"].history.append(
            TransactionState.ACTIVE)  # COMMITTED->ACTIVE
        violations = check_episode_invariants(gtm)
        assert any("illegal recorded transition" in v for v in violations)


class TestLiveness:
    """Every transaction ends: the verdict ``run_episode`` gives all
    three schedulers."""

    def test_finished_timelines_are_clean(self):
        collector = MetricsCollector()
        collector.arrival("T1", 0.0).on_commit(1.0)
        collector.arrival("T2", 0.0).on_abort(1.0, "deadlock-victim")
        assert check_liveness(collector) == []

    def test_unfinished_timeline_flagged(self):
        """The control leg: one transaction left hanging is named."""
        collector = MetricsCollector()
        collector.arrival("T1", 0.0).on_commit(1.0)
        collector.arrival("T2", 0.5)
        violations = check_liveness(collector)
        assert len(violations) == 1
        assert "'T2'" in violations[0]

    def test_every_scheduler_ends_every_transaction(self):
        for scheduler in ("gtm", "2pl", "optimistic"):
            config = FuzzConfig(scheduler=scheduler)
            for index in range(10):
                outcome = run_episode(generate_episode(config, 31, index))
                assert check_liveness(outcome.result.collector) == []
