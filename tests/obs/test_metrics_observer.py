"""MetricsObserver: deferred materialization and bus-driven counts.

The observer counts what only the bus knows.  Lifecycle counts and the
wait/sleep intervals are read off the timelines instead
(``test_lifecycle_fold.py``).
"""

from types import SimpleNamespace

from repro.core.admission import LockTable
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign, multiply
from repro.metrics.collectors import MetricsCollector
from repro.obs.observers import MetricsObserver, fold_timelines
from repro.obs.registry import MetricsRegistry


def txn(txn_id="T", t_wait=None):
    return SimpleNamespace(txn_id=txn_id,
                           t_wait={} if t_wait is None else t_wait)


class TestDeferredMaterialization:
    def test_counts_absent_until_finalize(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_wait(txn("A"), None, None, 0.0)
        observer.on_grant(txn("A"), None, None, 2.0)
        assert registry.snapshot() == {}
        observer.finalize()
        snap = registry.snapshot()
        assert snap["gtm_waits"]["series"] == {"": 1.0}
        assert snap["gtm_grants"]["series"] == {"": 1.0}

    def test_zero_valued_instruments_skipped(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_grant(txn("A"), None, None, 0.0)
        observer.finalize()
        # no waits/pumps/awakes happened -> those names never register
        # (absent and zero merge identically downstream)
        assert list(registry.snapshot()) == ["gtm_grants"]

    def test_finalize_is_idempotent(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_grant(txn("A"), None, None, 0.0)
        observer.finalize()
        observer.finalize()
        assert registry.counter("gtm_grants").total() == 1.0

    def test_observer_keeps_no_lifecycle_series(self):
        # begins, commits, aborts, sleeps and both interval histograms
        # belong to the timelines; a second count here would be a
        # second accountant
        gtm = GlobalTransactionManager()
        registry = MetricsRegistry()
        observer = gtm.subscribe(MetricsObserver(registry))
        TestObserversAreIndependent.contended_episode(gtm)
        observer.finalize()
        lifecycle = MetricsRegistry()
        fold_timelines(MetricsCollector(), lifecycle)
        assert len(lifecycle.snapshot()) == 6
        assert not set(registry.snapshot()) & set(lifecycle.snapshot())

    def test_labelled_series(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_awake(txn("C"), 3.0, True)
        observer.on_awake(txn("D"), 4.0, False)
        observer.on_revalidate(txn("E"), None, True, 5.0)
        observer.finalize()
        snap = registry.snapshot()
        assert snap["gtm_awakes"]["series"] == {"sleep-conflict": 1.0,
                                                "survived": 1.0}
        assert snap["gtm_revalidations"]["series"] == {"conflicted": 1.0}


class TestLockTableSnapshot:
    def test_gauge_is_the_number_of_objects(self):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        table = LockTable()
        table.register(SimpleNamespace(name="X"))
        table.register(SimpleNamespace(name="Y"))
        observer.snapshot_lock_table(table)
        assert registry.gauge("gtm_lock_table_objects").value() == 2.0


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
        observer.finalize()
        snap = registry.snapshot()
        assert snap["gtm_reconciliations"]["series"] == {"eq1": 1.0,
                                                         "eq2": 1.0}

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
        observer.finalize()
        snap = registry.snapshot()
        assert snap["gtm_waits"]["series"] == {"": 1.0}
        assert snap["gtm_grants"]["series"][""] >= 2.0
        assert snap["gtm_pump_passes"]["series"][""] >= 1.0


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
            observer.finalize()
        first, second = (registry.snapshot() for registry in registries)
        assert first == second
        assert first["gtm_waits"]["series"] == {"": 2.0}
        assert first["gtm_awakes"]["series"] == {"sleep-conflict": 1.0}
        assert not [name for name in first if "pool" in name]
