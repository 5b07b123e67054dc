"""Exporters: frames, their merge, and the console tables."""

from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode
from repro.check.runner import build_scheduler
from repro.metrics.collectors import MetricsCollector
from repro.obs.export import (
    ObsFrame,
    episode_frame,
    merge_frames,
    render_frame_summary,
    render_metrics_summary,
)
from repro.schedulers.base import SchedulerResult


def frame(commits):
    return ObsFrame(
        episodes=1,
        metrics={"gtm_commits": {"kind": "counter",
                                 "series": {"": float(commits)}}},
        schedulers={"gtm": 1})


class TestFrames:
    def test_counter_total(self):
        assert frame(3).counter_total("gtm_commits") == 3.0
        assert frame(3).counter_total("missing") == 0.0

    def test_merge_adds_everything(self):
        merged = merge_frames([frame(2), frame(3)])
        assert merged.episodes == 2
        assert merged.counter_total("gtm_commits") == 5.0
        assert merged.schedulers == {"gtm": 2}

    def test_merge_skips_none(self):
        merged = merge_frames([frame(2), None, frame(1)])
        assert merged.episodes == 2
        assert merged.counter_total("gtm_commits") == 3.0

    def test_merge_does_not_mutate_inputs(self):
        first = frame(2)
        merge_frames([first, frame(3)])
        assert first.counter_total("gtm_commits") == 2.0

    def test_episode_order_merge_is_deterministic(self):
        frames = [frame(i) for i in range(5)]
        a = merge_frames(frames)
        b = merge_frames(frames)
        assert a == b

    def test_frame_from_collector(self):
        collector = MetricsCollector()
        done = collector.arrival("A", 0.0)
        done.on_wait_start(1.0)
        done.on_wait_end(3.0)
        done.on_commit(4.0)
        collector.arrival("B", 0.0).on_abort(2.0, reason="deadlock")
        result = SchedulerResult(scheduler="2pl", stats=None,
                                 collector=collector)
        built = episode_frame(result, "2pl")
        assert built.counter_total("gtm_commits") == 1.0
        assert built.metrics["gtm_aborts"]["series"] == {"deadlock": 1.0}
        assert built.metrics["gtm_wait_seconds"]["sum"] == 2.0
        assert built.schedulers == {"2pl": 1}

    def test_gtm_frame_is_the_fold_plus_the_bus_counters(self):
        spec = generate_episode(FuzzConfig(scheduler="gtm"), 2008, 0)
        result = build_scheduler(spec, observe=True) \
            .run(episode_workload(spec))
        built = episode_frame(result, "gtm")
        assert built.metrics == result.obs.registry.dump()
        assert built.counter_total("gtm_commits") \
            == len(result.collector.committed())
        assert built.counter_total("gtm_grants") > 0

    def test_unobserved_gtm_run_carries_no_registry(self):
        spec = generate_episode(FuzzConfig(scheduler="gtm"), 2008, 0)
        result = build_scheduler(spec).run(episode_workload(spec))
        assert result.obs is None


class TestRendering:
    def test_metrics_summary_lists_each_series(self):
        metrics = {
            "gtm_commits": {"kind": "counter", "series": {"": 4.0}},
            "gtm_aborts": {"kind": "counter",
                           "series": {"deadlock": 1.0}},
            "gtm_wait_seconds": {"kind": "histogram",
                                 "buckets": [1.0], "counts": [1, 0],
                                 "sum": 0.5, "count": 1,
                                 "min": 0.5, "max": 0.5},
        }
        text = render_metrics_summary(metrics)
        assert "gtm_commits" in text
        assert "gtm_aborts{deadlock}" in text
        assert "n=1" in text

    def test_empty_metrics_summary(self):
        assert "no metrics" in render_metrics_summary({})

    def test_frame_summary_header(self):
        text = render_frame_summary(merge_frames([frame(2), frame(1)]))
        assert "2 episodes" in text
        assert "spans" not in text
        assert "gtm:2" in text
