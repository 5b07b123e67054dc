"""Schedulers: the GTM and its baselines behind one interface.

Every scheduler consumes the same :class:`~repro.workload.spec.Workload`
and produces the same :class:`~repro.schedulers.base.SchedulerResult`,
so the Fig. 3 comparison (and every ablation) replays identical
transaction itineraries against:

- :class:`~repro.schedulers.gtm_scheduler.GTMScheduler` — the paper's
  pre-serialization middleware;
- :func:`~repro.schedulers.gtm_scheduler.two_phase_locking` — the
  classical strict-2PL baseline the paper compares against: the same
  GTM under the read/write matrix, whose disconnected transactions hold
  their locks and are aborted past a hold timeout;
- :class:`~repro.schedulers.optimistic.OptimisticScheduler` — the
  Section II "freeze until commit" strategy (no locks during the
  interaction, constraint validation at commit).
"""

from repro.schedulers.base import Scheduler, SchedulerResult
from repro.schedulers.gtm_scheduler import (
    GTMScheduler,
    GTMSchedulerConfig,
    two_phase_locking,
)
from repro.schedulers.optimistic import OptimisticScheduler

__all__ = [
    "GTMScheduler",
    "GTMSchedulerConfig",
    "OptimisticScheduler",
    "Scheduler",
    "SchedulerResult",
    "two_phase_locking",
]
