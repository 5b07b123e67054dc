"""Deterministic observability for the GTM: spans, metrics, exporters.

Everything here rides the :class:`~repro.core.events.EventBus` as a
read-only subscriber and stamps the *virtual* clock, never the wall
clock.  The load-bearing property is **digest neutrality**: enabling
tracing or metrics must not change scheduling, grant order, or any
campaign/differential digest.  That holds by construction —

- observers only read hook arguments the protocol already computed;
- the bus isolates observer exceptions, so an observer can never
  corrupt GTM state mid-algorithm;
- results carry observability in ``SchedulerResult.obs``, which is
  excluded from episode traces, summaries and digests;

— and is *proven*, not assumed, by ``python -m repro.obs.selfcheck``
(differential campaigns with observability off vs on must produce
byte-identical digests; CI runs it on every push).

Entry point::

    obs = build_observability(ObsConfig(tracing=True, metrics=True))
    # GTMScheduler does this wiring itself via GTMSchedulerConfig.obs:
    for observer in obs.observers():
        gtm.subscribe(observer)
    ...run...
    obs.finalize(makespan)
    print(obs.summary())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.export import (
    ObsFrame,
    frame_from_collector,
    frame_from_observability,
    merge_frames,
    observed_episode_trace,
    render_frame_summary,
    render_metrics_summary,
    spans_jsonl,
    write_spans_jsonl,
)
from repro.obs.observers import MetricsObserver
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    merge_snapshots,
)
from repro.obs.spans import Span, SpanObserver, SpanRecorder

__all__ = [
    "ObsConfig", "Observability", "build_observability",
    "ObsFrame", "frame_from_collector", "frame_from_observability",
    "merge_frames", "observed_episode_trace", "render_frame_summary",
    "render_metrics_summary", "spans_jsonl", "write_spans_jsonl",
    "MetricsObserver", "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
    "Counter", "Gauge", "Histogram", "merge_snapshots",
    "Span", "SpanObserver", "SpanRecorder",
]


@dataclass(frozen=True)
class ObsConfig:
    """What to record.  Both off -> :func:`build_observability` is None."""

    tracing: bool = True
    metrics: bool = True


class Observability:
    """One episode's recording surface: a recorder, a registry, observers."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.recorder: SpanRecorder | None = \
            SpanRecorder() if self.config.tracing else None
        self.registry: MetricsRegistry = \
            MetricsRegistry() if self.config.metrics else NULL_REGISTRY
        self._metrics_observer = MetricsObserver(self.registry)
        # The EventBus dispatches through per-hook handler lists that
        # already skip unimplemented hooks, so subscribing both
        # observers directly costs exactly one bound call per
        # implemented hook — no fan-out shim needed.
        if self.recorder is not None:
            self._observers: tuple = (SpanObserver(self.recorder),
                                      self._metrics_observer)
        else:
            self._observers = (self._metrics_observer,)

    def observers(self) -> tuple:
        """Bus subscribers, in subscription order."""
        return self._observers

    def attach(self, gtm) -> None:
        """Subscribe every observer to a GTM facade's bus."""
        for observer in self._observers:
            gtm.subscribe(observer)

    def finalize(self, now: float) -> None:
        """Close open spans/intervals at makespan (unfinished work)."""
        if self.recorder is not None:
            self.recorder.finalize(now)
        self._metrics_observer.finalize(now)

    def snapshot_lock_table(self, lock_table) -> None:
        """Record the lock directory's occupancy."""
        self._metrics_observer.snapshot_lock_table(lock_table)

    def frame(self, scheduler: str = "gtm") -> ObsFrame:
        """The picklable per-episode payload for campaign aggregation."""
        return frame_from_observability(self, scheduler=scheduler)

    def summary(self) -> str:
        """Console summary of this episode's metrics."""
        return render_metrics_summary(self.registry.snapshot(),
                                      title="episode metrics")


def build_observability(config: "ObsConfig | bool | None"
                        ) -> "Observability | None":
    """Config -> recording surface, or None when nothing is enabled.

    Accepts ``True``/``False`` as shorthand for everything-on/off, so
    CLI flags plumb straight through.
    """
    if config is None or config is False:
        return None
    if config is True:
        config = ObsConfig()
    if not (config.tracing or config.metrics):
        return None
    return Observability(config)
