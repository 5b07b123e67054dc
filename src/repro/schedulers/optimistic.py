"""The "freeze until commit" optimistic baseline (paper Section II).

"Another widely used strategy consists of: (i) imposing precise
constraints on important resources (for example, Flight.FreeTickets >= 0)
and (ii) assuming that each user operation is temporarily freezed and
the whole transaction will be executed when the user commits."

No locks are held during the interaction (disconnections are harmless),
so concurrency is maximal — but nothing is reserved either: the commit
replays the buffered operations against the *current* values and aborts
on any constraint violation ("no more flight tickets available and the
whole journey has to be replanned!").  The constraint enforced is the
paper's non-negativity of stock values; assignments always succeed
(last-writer-wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.schedulers.base import (
    CommitAction,
    InvokeAction,
    Scheduler,
    SchedulerResult,
    SleepAction,
    WorkAction,
    build_itinerary,
)
from repro.metrics.collectors import MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.process import Process, Timeout
from repro.workload.spec import TransactionProfile, Workload


@dataclass
class OptimisticConfig:
    """Baseline knobs."""

    #: Enforce value >= floor on every object at commit (None disables).
    floor: float | None = 0.0


class OptimisticScheduler(Scheduler):
    """Freeze-until-commit: no locks, constraint validation at commit."""

    name = "optimistic"

    def __init__(self, config: OptimisticConfig | None = None) -> None:
        self.config = config or OptimisticConfig()

    def run(self, workload: Workload) -> SchedulerResult:
        engine = SimulationEngine()
        collector = MetricsCollector()
        values: dict[str, float] = dict(workload.initial_values)
        constraint_aborts = [0]
        for profile in workload:
            Process(engine,
                    self._client(profile, engine, collector, values,
                                 constraint_aborts),
                    name=profile.txn_id, start_delay=profile.arrival_time)
        makespan = engine.run()
        extra = {
            "constraint_aborts": constraint_aborts[0],
            "events_dispatched": engine.events_dispatched,
        }
        return self._result(collector, makespan, values, extra)

    def _client(self, profile: TransactionProfile,
                engine: SimulationEngine, collector: MetricsCollector,
                values: dict[str, float],
                constraint_aborts: list[int]) -> Generator[Any, Any, None]:
        timeline = collector.arrival(profile.txn_id, 0.0)
        timeline.arrival = engine.now
        buffered: list[tuple[str, Any]] = []
        for action in build_itinerary(profile):
            if isinstance(action, InvokeAction):
                if action.step.apply_op:
                    buffered.append((action.step.object_name,
                                     action.step.invocation))
            elif isinstance(action, WorkAction):
                yield Timeout(action.duration)
            elif isinstance(action, SleepAction):
                # no locks held: a disconnection just delays the user.
                timeline.on_sleep_start(engine.now)
                yield Timeout(action.duration)
                timeline.on_sleep_end(engine.now)
            elif isinstance(action, CommitAction):
                staged = dict(values)
                ok = True
                for object_name, invocation in buffered:
                    if not invocation.op_class.mutates:
                        continue
                    new_value = invocation.apply(staged[object_name])
                    if (self.config.floor is not None
                            and isinstance(new_value, (int, float))
                            and new_value < self.config.floor):
                        ok = False
                        break
                    staged[object_name] = new_value
                if ok:
                    values.update(staged)
                    timeline.on_commit(engine.now)
                    collector.commit_order.append(profile.txn_id)
                else:
                    constraint_aborts[0] += 1
                    timeline.on_abort(engine.now,
                                      reason="constraint-violation")
                return
