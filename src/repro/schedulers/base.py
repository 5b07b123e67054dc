"""Scheduler interface and the shared transaction itinerary walker."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Union

from repro.metrics.collectors import MetricsCollector
from repro.metrics.stats import RunStats, summarize
from repro.workload.spec import TransactionProfile, TransactionStep, Workload


# ---------------------------------------------------------------------------
# itinerary actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvokeAction:
    """Request the grant / lock for one step and perform its operation."""

    step: TransactionStep


@dataclass(frozen=True)
class WorkAction:
    """Active service time (user interacting, connected)."""

    duration: float


@dataclass(frozen=True)
class SleepAction:
    """A disconnection / inactivity interval."""

    duration: float


@dataclass(frozen=True)
class CommitAction:
    """The user is happy: commit the whole transaction."""


Action = Union[InvokeAction, WorkAction, SleepAction, CommitAction]

#: every itinerary's last action: it has no fields, so one serves all.
_COMMIT = CommitAction()


def build_itinerary(profile: TransactionProfile) -> list[Action]:
    """Expand a profile into the exact action sequence a client executes.

    Steps claim contiguous shares of the active work time; outages are
    positioned by their fraction of that same axis and interleave with
    the work segments.  Every itinerary ends with a single commit.
    """
    plan = profile.plan
    work_time = plan.work_time
    outages = sorted(plan.outages, key=lambda e: e.at_fraction)
    actions: list[Action] = []
    outage_index = 0
    cursor = 0.0  # position on the work-fraction axis
    for step in profile.steps:
        step_end = cursor + step.work_fraction
        actions.append(InvokeAction(step))
        while (outage_index < len(outages)
               and outages[outage_index].at_fraction < step_end):
            outage = outages[outage_index]
            position = max(min(outage.at_fraction, step_end), cursor)
            if position > cursor:
                actions.append(WorkAction((position - cursor) * work_time))
                cursor = position
            actions.append(SleepAction(outage.duration))
            outage_index += 1
        if step_end > cursor:
            actions.append(WorkAction((step_end - cursor) * work_time))
        cursor = step_end
    for outage in outages[outage_index:]:
        actions.append(SleepAction(outage.duration))
    actions.append(_COMMIT)
    return actions


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class SchedulerResult:
    """Everything a run produces: stats, timelines, final object values."""

    scheduler: str
    stats: RunStats
    collector: MetricsCollector
    final_values: dict[str, float] = field(default_factory=dict)
    #: Scheduler-specific counters (deadlocks, SST retries, ...).
    extra: dict[str, float] = field(default_factory=dict)
    #: The run's metrics (:class:`repro.obs.Observability`) when
    #: ``GTMSchedulerConfig.obs`` (a ``bool``) was on; None otherwise.
    #: Deliberately *excluded* from episode traces and digests —
    #: enabling observability must never change what a run reports
    #: about the protocol itself.
    obs: object | None = field(default=None, repr=False, compare=False)


class Scheduler(abc.ABC):
    """A concurrency-control scheme driving a workload to completion."""

    #: Human-readable name used in reports.
    name: str = "scheduler"

    @abc.abstractmethod
    def run(self, workload: Workload) -> SchedulerResult:
        """Execute the whole workload; returns the aggregated result."""

    def _result(self, collector: MetricsCollector, makespan: float,
                final_values: dict[str, float],
                extra: dict[str, float] | None = None) -> SchedulerResult:
        # Close dangling wait/sleep intervals of unfinished transactions
        # at makespan so RunStats and traces see their accrued time.
        collector.finalize(makespan)
        return SchedulerResult(
            scheduler=self.name,
            stats=summarize(collector, makespan=makespan),
            collector=collector,
            final_values=final_values,
            extra=extra or {},
        )
