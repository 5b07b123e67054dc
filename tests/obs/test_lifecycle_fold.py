"""The timeline fold: one accountant, one vocabulary, the parent's numbers.

``parent_frames.json`` holds the merged ``--observe`` frames recorded on
the commit *before* the fold existed — when a bus-fed shadow tracker
inside ``MetricsObserver`` kept its own wait/sleep intervals and its own
commit/abort counts — for seed 2008 × 200 default ``gtm`` episodes and
three contention tiers (``light``, ``contended``, ``hotspot``); each
frame carries the fuzz overrides and episode count it was recorded
with.  Reading the same series off the timelines must reproduce them,
and must leave what the bus counts alone.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.check.fuzzer import FuzzConfig, generate_episode
from repro.check.runner import run_campaign, run_episode
from repro.metrics.collectors import MetricsCollector, TimelineObserver
from repro.obs.observers import fold_timelines
from repro.obs.registry import MetricsRegistry

PARENT_FRAMES = json.loads(
    (Path(__file__).parent / "parent_frames.json").read_text("utf-8"))

#: The ``timeline``-sourced rows of the vocabulary table.
LIFECYCLE_SERIES = {"gtm_txn_begins", "gtm_commits", "gtm_aborts",
                    "gtm_sleeps", "gtm_wait_seconds", "gtm_sleep_seconds"}

#: The gauge was renamed by the same change (``lock_shards`` and
#: ``gtm_shards`` are long gone); its value is pinned under both names.
RENAMED_GAUGE = ("gtm_lock_shard_occupancy", "shard0",
                 "gtm_lock_table_objects", "")


def folded(collector):
    registry = MetricsRegistry()
    fold_timelines(collector, registry)
    return registry.snapshot()


@pytest.mark.parametrize("name", sorted(PARENT_FRAMES))
def test_fold_reproduces_the_parent_frame(name):
    recorded = PARENT_FRAMES[name]
    report = run_campaign(
        FuzzConfig(scheduler="gtm", **recorded["overrides"]),
        recorded["seed"], recorded["episodes"], shrink_failures=False,
        observe=True)
    now, then = report.metrics.metrics, dict(recorded["metrics"])
    old_name, old_label, new_name, new_label = RENAMED_GAUGE
    assert now[new_name]["series"][new_label] \
        == then.pop(old_name)["series"][old_label]
    assert set(now) - {new_name} == set(then)
    for series, parent in then.items():
        if parent["kind"] == "histogram":
            snap = now[series]
            assert snap["count"] == parent["count"]
            assert snap["counts"] == parent["counts"]
            assert snap["sum"] == pytest.approx(parent["sum"], abs=1e-9)
            assert snap["max"] == pytest.approx(parent["max"], abs=1e-9)
        else:  # lifecycle and bus counters alike: exactly the same
            assert now[series]["series"] == parent["series"], series


@pytest.mark.parametrize("scheduler", ["gtm", "2pl", "optimistic"])
def test_every_scheduler_reports_the_same_lifecycle_series(scheduler):
    spec = generate_episode(FuzzConfig(scheduler=scheduler), 2008, 0)
    frame = run_episode(spec, observe=True).obs_frame
    assert frame.schedulers == {scheduler: 1}
    assert LIFECYCLE_SERIES <= set(frame.metrics)
    assert not [name for name in frame.metrics if name.endswith("_total")]
    if scheduler != "gtm":  # no bus: the timelines are all there is
        assert set(frame.metrics) == LIFECYCLE_SERIES
    assert frame.metrics["gtm_wait_seconds"]["kind"] == "histogram"
    assert frame.counter_total("gtm_txn_begins") == len(spec.txns)


class TestFoldReadsTheTimelines:
    """The interval rules live in ``TxnTimeline``; these feed the fold
    the inputs of ``tests/metrics/test_timeline_observer.py``'s
    regression cases and read the result off the registry."""

    def test_finalize_flushes_open_intervals(self):
        collector = MetricsCollector()
        collector.arrival("A", 0.0).on_wait_start(1.0)
        collector.arrival("B", 0.0).on_sleep_start(2.0)
        collector.arrival("C", 0.0).on_commit(3.0)
        collector.finalize(10.0)
        snap = folded(collector)
        assert snap["gtm_wait_seconds"]["sum"] == pytest.approx(9.0)
        assert snap["gtm_sleep_seconds"]["sum"] == pytest.approx(8.0)
        assert snap["gtm_txn_begins"]["series"] == {"": 3.0}
        assert snap["gtm_commits"]["series"] == {"": 1.0}
        assert snap["gtm_sleeps"]["series"] == {"": 1.0}

    def test_sleep_closes_wait_interval(self):
        collector = MetricsCollector()
        timeline = collector.arrival("T", 0.0)
        timeline.on_wait_start(0.0)
        timeline.on_sleep_start(5.0)   # disconnect while still queued
        timeline.on_sleep_end(9.0)
        timeline.on_commit(9.0)
        snap = folded(collector)
        assert snap["gtm_wait_seconds"]["count"] == 1
        assert snap["gtm_wait_seconds"]["sum"] == pytest.approx(5.0)
        assert snap["gtm_sleep_seconds"]["sum"] == pytest.approx(4.0)

    def test_grant_with_pending_t_wait_keeps_wait_open(self):
        collector = MetricsCollector()
        observer = TimelineObserver(collector)
        txn = SimpleNamespace(txn_id="T", t_wait={})
        observer.on_begin(txn, 0.0)
        observer.on_wait(txn, None, None, 1.0)
        txn.t_wait = {"other-object": object()}
        observer.on_grant(txn, None, None, 3.0)
        txn.t_wait = {}
        observer.on_grant(txn, None, None, 5.0)
        snap = folded(collector)
        assert snap["gtm_wait_seconds"]["count"] == 1
        assert snap["gtm_wait_seconds"]["sum"] == pytest.approx(4.0)

    def test_aborts_are_labelled_by_reason(self):
        collector = MetricsCollector()
        collector.arrival("A", 0.0).on_abort(1.0, reason="deadlock-victim")
        collector.arrival("B", 0.0).on_abort(2.0, reason="deadlock-victim")
        collector.arrival("C", 0.0).on_abort(2.0)
        snap = folded(collector)
        assert snap["gtm_aborts"]["series"] == {"deadlock-victim": 2.0,
                                                "unspecified": 1.0}
        assert snap["gtm_commits"]["series"] == {"": 0.0}

    def test_an_empty_run_still_carries_every_lifecycle_series(self):
        assert set(folded(MetricsCollector())) == LIFECYCLE_SERIES
