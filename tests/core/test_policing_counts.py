"""Deadlock policing pays only for what changed — pinned as counts.

Like ``TestHotPathCounts`` in ``test_bitmask_kernel.py``, these say why
policing is cheap without timing anything:

- a new waiter nobody waits on closes no cycle, so its check walks
  nothing (before: one ordered DFS per blocked request);
- removing a finished transaction touches its own edges and its
  in-neighbours', not every edge set in the graph;
- a re-police sweep asks only about the transactions whose claim moved,
  and consults the graph about no waiter whose blockers stayed put;
- on a contended campaign the ordered DFS walks are a small fraction of
  what they were, and every episode detects exactly the same deadlocks.
"""

from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode
from repro.check.runner import build_scheduler
from repro.core.events import GTMObserver
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.opclass import assign, read
from repro.core.deadlock import DeadlockPolicing, WaitForGraph

WAITERS = 64

#: The hotspot mix of ``tests/check/test_alloc_budget.py`` (48
#: transactions, six ops each, arrivals within one second) spread over
#: up to three objects, so cycles form through held members and queue
#: positions alike.
HOTSPOT = FuzzConfig(scheduler="gtm", max_objects=3, max_txns=48,
                     max_ops_per_txn=6, arrival_spread=1.0,
                     p_outage=0.1, p_wait_timeout=0.0)
EPISODES = 20

#: Measured on the graph that walked from every new waiter: 1206
#: ordered DFS walks over the 20 episodes at seed 42, and these
#: detections per episode.  The walks here must be at most a third.
WALKS_BEFORE = 1206
DEADLOCKS_PER_EPISODE = [0, 0, 0, 0, 10, 0, 5, 10, 0, 6,
                         0, 1, 13, 0, 4, 0, 2, 6, 9, 0]


def _count_walks(monkeypatch):
    counts = {"walks": 0}
    cycle_from = WaitForGraph._cycle_from

    def counted(graph, *args):
        counts["walks"] += 1
        return cycle_from(graph, *args)

    monkeypatch.setattr(WaitForGraph, "_cycle_from", counted)
    return counts


def _queue_behind_one_holder():
    gtm = GlobalTransactionManager(GTMConfig())
    gtm.create_object("hot", value=100)
    gtm.begin("H0")
    assert gtm.invoke("H0", "hot", assign(1)) == "granted"
    return gtm


class TestPolicingCounts:
    def test_a_waiter_nobody_waits_on_walks_nothing(self, monkeypatch):
        gtm = _queue_behind_one_holder()
        counts = _count_walks(monkeypatch)
        for index in range(WAITERS):
            gtm.begin(f"W{index}")
            assert gtm.invoke(f"W{index}", "hot", assign(index)) == "queued"
        assert counts["walks"] == 0
        assert gtm.deadlocks_detected == 0

    def test_remove_node_visits_only_in_neighbours(self):
        class Watched(dict):
            """Edge sets that record which keys were looked up and
            refuse to be walked."""

            touched: set

            def __getitem__(self, key):
                self.touched.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.touched.add(key)
                return super().get(key, default)

            def pop(self, key, *default):
                self.touched.add(key)
                return super().pop(key, *default)

            def _walk(self, *args):
                raise AssertionError("remove_node walked every edge set")

            items = values = keys = __iter__ = _walk

        graph = WaitForGraph()
        for index in range(500):
            graph.add_waits(f"W{index}", [f"H{index}"])
        graph.add_waits("A", ["N"])
        graph.add_waits("B", ["N", "H0"])
        graph.add_waits("N", ["H1"])
        watched = Watched(graph._edges)
        watched.touched = set()
        graph._edges = watched
        graph.remove_node("N")
        assert watched.touched <= {"N", "A", "B"}
        assert graph.waits_of("A") == frozenset()
        assert graph.waits_of("B") == frozenset({"H0"})
        assert graph.waits_of("N") == frozenset()

    def test_a_sweep_consults_the_policy_only_where_blockers_moved(
            self, monkeypatch):
        gtm = _queue_behind_one_holder()
        for index in range(WAITERS):
            gtm.begin(f"W{index}")
            gtm.invoke(f"W{index}", "hot", assign(index))
        gtm.begin("R")
        refreshed = []

        class Sweeps(GTMObserver):
            def on_repolice(self, obj, count, now):
                refreshed.append(count)

        gtm.subscribe(Sweeps())
        consults = {"n": 0}
        for name in ("on_wait", "refresh_wait"):
            method = getattr(DeadlockPolicing, name)

            def counted(policy, *args, _method=method):
                consults["n"] += 1
                return _method(policy, *args)

            monkeypatch.setattr(DeadlockPolicing, name, counted)
        # a READ commutes with the ASSIGNs: it is granted beside H0 and
        # commits, which moves the object's lock state and pumps its
        # queue, but it never blocks (or unblocks) any waiter.
        assert gtm.invoke("R", "hot", read()) == "granted"
        gtm.request_commit("R")
        assert len(gtm.object("hot").waiting) == WAITERS
        assert refreshed == [WAITERS]  # every waiter's edges went stale
        assert consults["n"] == 0

    def test_a_contended_campaign_walks_a_third_and_detects_the_same(
            self, monkeypatch):
        counts = _count_walks(monkeypatch)
        deadlocks = []
        for index in range(EPISODES):
            spec = generate_episode(HOTSPOT, 42, index)
            scheduler = build_scheduler(spec)
            scheduler.run(episode_workload(spec))
            deadlocks.append(scheduler.last_gtm.deadlocks_detected)
        assert deadlocks == DEADLOCKS_PER_EPISODE
        assert counts["walks"] * 3 <= WALKS_BEFORE
