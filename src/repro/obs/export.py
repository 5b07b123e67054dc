"""Exporters: episodes -> frames, frames -> fleet merge -> console.

1. **Per-worker aggregation** — :class:`ObsFrame` is the small,
   picklable unit a campaign worker ships back through
   :mod:`repro.parallel.pmap`; :func:`episode_frame` builds one from an
   observed run of any scheduler and :func:`merge_frames` folds frames
   in episode order, so a ``--jobs N`` campaign reports the same
   fleet-wide numbers as ``--jobs 1``.
2. **Console summaries** — :func:`render_metrics_summary` renders a
   registry snapshot through :mod:`repro.metrics.report`'s table
   renderer for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.metrics.report import render_records
from repro.obs.observers import fold_timelines
from repro.obs.registry import MetricsRegistry, accumulate_snapshot


# -- per-worker frames and the fleet merge -----------------------------------


@dataclass
class ObsFrame:
    """The picklable observability payload of one episode (or a merge)."""

    episodes: int = 0
    #: registry snapshot (see :meth:`MetricsRegistry.snapshot`).
    metrics: dict[str, dict] = field(default_factory=dict)
    #: episodes per scheduler label, e.g. {"gtm": 40, "2pl": 40}.
    schedulers: dict[str, int] = field(default_factory=dict)

    def counter_total(self, name: str) -> float:
        snap = self.metrics.get(name)
        if snap is None or snap["kind"] != "counter":
            return 0.0
        return sum(snap["series"].values())


def episode_frame(result: Any, scheduler: str) -> ObsFrame:
    """One observed episode's frame, whichever scheduler ran it.

    A GTM run carries its registry in ``result.obs`` — the timeline
    fold plus the bus counters.  2PL and optimistic runs have no bus,
    so their timelines are folded here, by the same
    :func:`~repro.obs.observers.fold_timelines`: all three report the
    lifecycle series under the same names.

    Uses the registry's zero-copy :meth:`dump` view — the episode's
    registry is dead after this, and :func:`merge_frames` copies before
    accumulating, so sharing the storage is safe and saves a per-episode
    sorted deep copy (visible on sub-millisecond fuzz episodes).
    """
    if result.obs is not None:
        registry = result.obs.registry
    else:
        registry = MetricsRegistry()
        fold_timelines(result.collector, registry)
    return ObsFrame(episodes=1, metrics=registry.dump(),
                    schedulers={scheduler: 1})


def merge_frames(frames: Iterable["ObsFrame | None"]) -> ObsFrame:
    """Fold frames in the order given (campaigns pass episode order).

    ``None`` entries (unobserved episodes) are skipped, so a partially
    observed campaign still merges cleanly.
    """
    merged = ObsFrame()
    for frame in frames:
        if frame is None:
            continue
        merged.episodes += frame.episodes
        accumulate_snapshot(merged.metrics, frame.metrics)
        for label, count in frame.schedulers.items():
            merged.schedulers[label] = \
                merged.schedulers.get(label, 0) + count
    return merged


# -- console summaries -------------------------------------------------------


def render_metrics_summary(metrics: dict[str, dict],
                           title: str = "observability") -> str:
    """Human-readable table of a registry snapshot (or merged frame)."""
    if not metrics:
        return f"{title}: (no metrics recorded)"
    rows = []
    for name in sorted(metrics):
        snap = metrics[name]
        if snap["kind"] in ("counter", "gauge"):
            for label in sorted(snap["series"]):
                rows.append({
                    "metric": f"{name}{{{label}}}" if label else name,
                    "kind": snap["kind"],
                    "value": round(snap["series"][label], 3),
                })
        else:  # histogram
            mean = snap["sum"] / snap["count"] if snap["count"] else 0.0
            rows.append({
                "metric": name, "kind": "histogram",
                "value": (f"n={snap['count']} mean={mean:.3f} "
                          f"max={snap['max'] if snap['max'] is not None else 0:.3f}"),
            })
    return render_records(rows, title=title)


def render_frame_summary(frame: ObsFrame) -> str:
    """Fleet-wide summary of a merged campaign frame."""
    header = (f"observability: {frame.episodes} episodes, schedulers="
              + ",".join(f"{k}:{v}"
                         for k, v in sorted(frame.schedulers.items())))
    return header + "\n" + render_metrics_summary(frame.metrics,
                                                  title="fleet metrics")
