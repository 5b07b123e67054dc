"""Deterministic observability: one metric vocabulary, two sources.

The wait and sleep intervals, and every lifecycle count, are kept by
the always-on timelines (:mod:`repro.metrics.collectors`); this package
only *reads* them (:func:`~repro.obs.observers.fold_timelines`, the
same fold for every scheduler) and adds, for a GTM run, what only the
:class:`~repro.core.events.EventBus` knows — a read-only
:class:`~repro.obs.observers.MetricsObserver` stamping nothing but
counts.  The load-bearing property is **digest neutrality**: switching
observability on must not change scheduling, grant order, or any
campaign/differential digest.  That holds by construction —

- the observer only reads hook arguments the protocol already computed;
- the bus isolates observer exceptions, so an observer can never
  corrupt GTM state mid-algorithm;
- results carry observability in ``SchedulerResult.obs``, which is
  excluded from episode traces, summaries and digests;

— and is *proven*, not assumed, by ``python -m repro.obs.selfcheck``
(differential campaigns with observability off vs on must produce
byte-identical digests; CI runs it on every push).

Entry point (``GTMSchedulerConfig(obs=True)`` does exactly this)::

    obs = Observability()
    obs.attach(gtm)
    ...run...
    collector.finalize(makespan)
    obs.finalize(collector, gtm.lock_table)
    print(render_metrics_summary(obs.registry.snapshot()))
"""

from __future__ import annotations

from repro.metrics.collectors import MetricsCollector
from repro.obs.export import (
    ObsFrame,
    episode_frame,
    merge_frames,
    render_frame_summary,
)
from repro.obs.observers import MetricsObserver, fold_timelines
from repro.obs.registry import MetricsRegistry, accumulate_snapshot

__all__ = [
    "Observability", "ObsFrame", "episode_frame", "merge_frames",
    "render_frame_summary", "MetricsRegistry", "accumulate_snapshot",
]


class Observability:
    """One GTM episode's registry and the bus observer that feeds it."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._observer = MetricsObserver(self.registry)

    def attach(self, gtm) -> None:
        """Subscribe the observer to a GTM facade's bus."""
        gtm.subscribe(self._observer)

    def finalize(self, collector: MetricsCollector, lock_table) -> None:
        """Fill the registry once the run is over: the lifecycle series
        from the (already finalized) timelines, the bus counters, and
        the lock table's size."""
        fold_timelines(collector, self.registry)
        self._observer.finalize()
        self._observer.snapshot_lock_table(lock_table)
