"""MetricsObserver: deferred materialization and bus-driven counts."""

from types import SimpleNamespace

import pytest

from repro.core.admission import LockTable
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign, multiply
from repro.obs.observers import MetricsObserver
from repro.obs.registry import MetricsRegistry


def txn(txn_id="T", t_wait=None):
    return SimpleNamespace(txn_id=txn_id,
                           t_wait={} if t_wait is None else t_wait)


class TestDeferredMaterialization:
    def test_counts_absent_until_finalize(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_begin(txn("A"), 0.0)
        observer.on_global_commit(txn("A"), 2.0)
        assert registry.snapshot() == {}
        observer.finalize(2.0)
        snap = registry.snapshot()
        assert snap["gtm_txn_begins"]["series"] == {"": 1.0}
        assert snap["gtm_commits"]["series"] == {"": 1.0}

    def test_zero_valued_instruments_skipped(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_begin(txn("A"), 0.0)
        observer.finalize(1.0)
        # no grants/waits/aborts happened -> those names never register
        # (absent and zero merge identically downstream)
        assert list(registry.snapshot()) == ["gtm_txn_begins"]

    def test_finalize_is_idempotent(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_begin(txn("A"), 0.0)
        observer.finalize(1.0)
        observer.finalize(5.0)
        assert registry.counter("gtm_txn_begins").total() == 1.0

    def test_finalize_flushes_open_intervals(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_wait(txn("A"), None, None, 1.0)
        observer.on_sleep(txn("B"), 2.0)
        observer.finalize(10.0)
        snap = registry.snapshot()
        assert snap["gtm_wait_seconds"]["sum"] == pytest.approx(9.0)
        assert snap["gtm_sleep_seconds"]["sum"] == pytest.approx(8.0)

    def test_sleep_closes_wait_interval(self):
        # same disjointness rule as TxnTimeline.on_sleep_start
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_wait(txn("A"), None, None, 1.0)
        observer.on_sleep(txn("A"), 4.0)
        observer.on_awake(txn("A"), 9.0, True)
        observer.finalize(9.0)
        snap = registry.snapshot()
        assert snap["gtm_wait_seconds"]["sum"] == pytest.approx(3.0)
        assert snap["gtm_sleep_seconds"]["sum"] == pytest.approx(5.0)

    def test_grant_with_pending_t_wait_keeps_wait_open(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        still_queued = txn("A", t_wait={"X": object()})
        observer.on_wait(still_queued, None, None, 1.0)
        observer.on_grant(still_queued, None, None, 3.0)
        still_queued.t_wait = {}
        observer.on_grant(still_queued, None, None, 5.0)
        observer.finalize(5.0)
        snap = registry.snapshot()
        assert snap["gtm_wait_seconds"]["sum"] == pytest.approx(4.0)
        assert snap["gtm_grants"]["series"] == {"": 2.0}

    def test_labelled_series(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_global_abort(txn("A"), 1.0, "deadlock-victim")
        observer.on_global_abort(txn("B"), 2.0, "deadlock-victim")
        observer.on_awake(txn("C"), 3.0, True)
        observer.on_awake(txn("D"), 4.0, False)
        observer.on_revalidate(txn("E"), None, True, 5.0)
        observer.finalize(5.0)
        snap = registry.snapshot()
        assert snap["gtm_aborts"]["series"] == {"deadlock-victim": 2.0}
        assert snap["gtm_awakes"]["series"] == {"sleep-conflict": 1.0,
                                                "survived": 1.0}
        assert snap["gtm_revalidations"]["series"] == {"conflicted": 1.0}


class TestLockTableSnapshot:
    def test_flat_table_reports_one_shard(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        table = LockTable()
        table.register(SimpleNamespace(name="X"))
        table.register(SimpleNamespace(name="Y"))
        observer.snapshot_lock_table(table)
        assert registry.gauge("gtm_lock_shard_occupancy") \
            .value("shard0") == 2.0


class TestBusDrivenMetrics:
    def test_reconcile_rules_labelled_by_op_class(self):
        gtm = GlobalTransactionManager()
        registry = MetricsRegistry()
        observer = gtm.subscribe(MetricsObserver(registry))
        gtm.create_object("X", value=10)
        gtm.create_object("Y", value=10)
        gtm.begin("T1")
        gtm.invoke("T1", "X", add(5))
        gtm.apply("T1", "X", add(5))
        gtm.begin("T2")
        gtm.invoke("T2", "Y", multiply(2))
        gtm.apply("T2", "Y", multiply(2))
        for txn_id in ("T1", "T2"):
            gtm.request_commit(txn_id)
        gtm.pump_commits()
        observer.finalize(gtm.now())
        snap = registry.snapshot()
        assert snap["gtm_reconciliations"]["series"] == {"eq1": 1.0,
                                                         "eq2": 1.0}
        assert snap["gtm_commits"]["series"] == {"": 2.0}

    def test_contended_run_counts_waits_and_pumps(self):
        gtm = GlobalTransactionManager()
        registry = MetricsRegistry()
        observer = gtm.subscribe(MetricsObserver(registry))
        gtm.create_object("X", value=10)
        gtm.begin("T1")
        assert gtm.invoke("T1", "X", assign(1)) == "granted"
        gtm.begin("T2")
        assert gtm.invoke("T2", "X", assign(2)) == "queued"
        gtm.apply("T1", "X", assign(1))
        gtm.request_commit("T1")
        gtm.pump_commits()
        observer.finalize(gtm.now())
        snap = registry.snapshot()
        assert snap["gtm_waits"]["series"] == {"": 1.0}
        assert snap["gtm_grants"]["series"][""] >= 2.0
        assert snap["gtm_pump_passes"]["series"][""] >= 1.0
        assert snap["gtm_wait_seconds"]["count"] == 1


class TestObserversAreIndependent:
    """Constructing an observer touches nothing outside it: two built
    back to back, each watching its own manager run the same episode,
    report the same metrics.  (Construction used to drain process-wide
    record pools and baseline their counters, so the second observer's
    ``gtm_pool_*`` series depended on what ran in between.)"""

    @staticmethod
    def contended_episode(gtm):
        gtm.create_object("X", value=10)
        for txn_id in ("T1", "T2", "T3"):
            gtm.begin(txn_id)
        assert gtm.invoke("T1", "X", assign(1)) == "granted"
        assert gtm.invoke("T2", "X", assign(2)) == "queued"
        assert gtm.invoke("T3", "X", add(3)) == "queued"
        gtm.sleep("T3")
        gtm.apply("T1", "X", assign(1))
        gtm.request_commit("T1")
        gtm.apply("T2", "X", assign(2))
        gtm.abort("T2")
        assert not gtm.awake("T3")

    def test_two_observers_built_back_to_back_agree(self):
        registries = (MetricsRegistry(), MetricsRegistry())
        observers = [MetricsObserver(registry) for registry in registries]
        for observer in observers:
            gtm = GlobalTransactionManager()
            gtm.subscribe(observer)
            self.contended_episode(gtm)
            observer.finalize(gtm.now())
        first, second = (registry.snapshot() for registry in registries)
        assert first == second
        assert first["gtm_waits"]["series"] == {"": 2.0}
        assert first["gtm_awakes"]["series"] == {"sleep-conflict": 1.0}
        assert not [name for name in first if "pool" in name]
