"""Aggregate statistics over a run's timelines."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.metrics.collectors import MetricsCollector, Outcome


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class RunStats:
    """Summary of one scheduler run, the unit the figures plot."""

    total: int
    committed: int
    aborted: int
    unfinished: int
    #: abort reason -> count (e.g. {"sleep-conflict": 3, ...}).
    abort_reasons: dict[str, int]
    #: Mean arrival-to-commit latency over committed transactions.
    avg_execution_time: float
    p50_execution_time: float
    p95_execution_time: float
    #: Mean time committed transactions spent blocked in wait queues.
    avg_wait_time: float
    #: Mean time committed transactions spent disconnected/idle.
    avg_sleep_time: float
    #: aborted / (committed + aborted), in percent.
    abort_percentage: float
    #: committed transactions per simulated second.
    throughput: float
    makespan: float
    #: Total wait time over *every* timeline — committed, aborted and
    #: unfinished (finalized at makespan), so nothing under-reports.
    total_wait_time: float = 0.0
    #: Total sleep time over every timeline (same coverage).
    total_sleep_time: float = 0.0
    #: Wait/sleep accrued by transactions still unfinished at makespan.
    unfinished_wait_time: float = 0.0
    unfinished_sleep_time: float = 0.0

    def as_row(self) -> dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "total": self.total,
            "committed": self.committed,
            "aborted": self.aborted,
            "avg_exec_s": round(self.avg_execution_time, 3),
            "p95_exec_s": round(self.p95_execution_time, 3),
            "avg_wait_s": round(self.avg_wait_time, 3),
            "abort_pct": round(self.abort_percentage, 2),
            "throughput": round(self.throughput, 3),
        }


def summarize(collector: MetricsCollector,
              makespan: float | None = None) -> RunStats:
    """Fold a collector's timelines into :class:`RunStats`."""
    timelines = list(collector.timelines.values())
    committed = [t for t in timelines if t.outcome is Outcome.COMMITTED]
    aborted = [t for t in timelines if t.outcome is Outcome.ABORTED]
    unfinished = [t for t in timelines if t.outcome is Outcome.UNFINISHED]
    exec_times = [time for t in committed
                  if (time := t.execution_time) is not None]
    finished_count = len(committed) + len(aborted)
    if makespan is None:
        ends = [t.finished for t in timelines if t.finished is not None]
        makespan = max(ends) if ends else 0.0
    abort_reasons: dict[str, int] = {}
    for timeline in aborted:
        reason = timeline.abort_reason or "unspecified"
        abort_reasons[reason] = abort_reasons.get(reason, 0) + 1
    return RunStats(
        total=len(timelines),
        committed=len(committed),
        aborted=len(aborted),
        unfinished=len(unfinished),
        abort_reasons=abort_reasons,
        avg_execution_time=_mean(exec_times),
        p50_execution_time=_percentile(exec_times, 50),
        p95_execution_time=_percentile(exec_times, 95),
        avg_wait_time=_mean([t.wait_time for t in committed]),
        avg_sleep_time=_mean([t.sleep_time for t in committed]),
        total_wait_time=sum(t.wait_time for t in timelines),
        total_sleep_time=sum(t.sleep_time for t in timelines),
        unfinished_wait_time=sum(t.wait_time for t in unfinished),
        unfinished_sleep_time=sum(t.sleep_time for t in unfinished),
        abort_percentage=(100.0 * len(aborted) / finished_count
                          if finished_count else 0.0),
        throughput=(len(committed) / makespan if makespan else 0.0),
        makespan=makespan,
    )
