"""Episode runner: generate -> run -> oracle -> invariants -> shrink.

:func:`run_episode` is a *pure function* of an :class:`EpisodeSpec`
(specs are fully concrete; the schedulers are deterministic discrete-
event simulations), which is what lets the shrinker treat "does this
sub-episode still fail?" as a simple predicate, and what makes a
campaign's rolling digest byte-identical from run to run.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.check.fuzzer import (
    EpisodeSpec,
    FuzzConfig,
    episode_workload,
    generate_episode,
)
from repro.check.invariants import (
    check_episode_invariants,
    check_liveness,
    check_timeline_invariants,
)
from repro.check.oracle import (
    OracleReport,
    check_episode,
    record_baseline,
    record_gtm,
)
from repro.check.shrinker import render_regression_test, shrink_episode
from repro.errors import WorkloadError
from repro.obs import ObsFrame, episode_frame, merge_frames
from repro.schedulers.gtm_scheduler import (
    GTMScheduler,
    GTMSchedulerConfig,
    two_phase_locking,
)
from repro.schedulers.optimistic import OptimisticScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import Scheduler, SchedulerResult


@dataclass
class EpisodeOutcome:
    """Everything one episode run produced."""

    spec: EpisodeSpec
    ok: bool
    committed: int = 0
    aborted: int = 0
    oracle: OracleReport | None = None
    invariant_violations: list[str] = field(default_factory=list)
    #: Traceback text when the run raised instead of finishing.
    crash: str | None = None
    #: The raw scheduler result (None when the run crashed).
    result: "SchedulerResult | None" = field(default=None, repr=False)
    #: Per-episode observability frame (None unless observe=True).
    #: Deliberately excluded from :meth:`summary` — campaign digests
    #: must not move when observability is switched on.
    obs_frame: ObsFrame | None = field(default=None, repr=False)

    def summary(self) -> str:
        lines = [self.spec.describe(),
                 f"committed={self.committed} aborted={self.aborted}"]
        if self.crash:
            lines.append(f"CRASH: {self.crash}")
        if self.oracle is not None and not self.oracle.serializable:
            lines.append("NOT SERIALIZABLE in commit order:")
            lines.extend(f"  {m}" for m in self.oracle.mismatches)
        for violation in self.invariant_violations:
            lines.append(f"INVARIANT: {violation}")
        if self.ok:
            lines.append("ok")
        return "\n".join(lines)


def build_scheduler(spec: EpisodeSpec,
                    observe: bool = False) -> "Scheduler":
    """The scheduler under test, configured from the spec.

    ``observe`` switches on the :mod:`repro.obs` layer for the GTM
    run; it must never change the run itself — ``repro.obs.selfcheck``
    holds us to that.  2PL and optimistic runs need no switch: their
    frame is read off the timelines they keep anyway.
    """
    if spec.scheduler == "gtm":
        return GTMScheduler(
            GTMSchedulerConfig(wait_timeout=spec.wait_timeout,
                               obs=observe))
    if spec.scheduler == "2pl":
        return two_phase_locking(wait_timeout=spec.wait_timeout)
    if spec.scheduler == "optimistic":
        return OptimisticScheduler()
    raise WorkloadError(f"unknown scheduler {spec.scheduler!r}")


def run_episode(spec: EpisodeSpec, observe: bool = False) -> EpisodeOutcome:
    """Run one episode and verdict it (oracle + invariants).

    A crash anywhere in the episode (building the workload or the
    scheduler, the run, the oracle, the invariant sweeps) is returned
    as a ``crash=`` finding, never raised: one poisoned episode must
    not sink its campaign.
    """
    try:
        workload = episode_workload(spec)
        scheduler = build_scheduler(spec, observe=observe)
        result = scheduler.run(workload)
        gtm = getattr(scheduler, "last_gtm", None)
        if gtm is not None:
            # the GTM and the 2PL baseline: one kernel, one sweep
            recorded = record_gtm(gtm)
            violations = check_episode_invariants(gtm)
        else:
            recorded = record_baseline(workload, result)
            violations = []
        oracle = check_episode(recorded)
        # every transaction ends, and interval bookkeeping holds, for
        # every scheduler, bus-fed or not
        violations.extend(check_liveness(result.collector))
        violations.extend(check_timeline_invariants(result.collector))
        return EpisodeOutcome(
            spec, ok=oracle.serializable and not violations,
            committed=len(result.collector.committed()),
            aborted=len(result.collector.aborted()), oracle=oracle,
            invariant_violations=violations, result=result,
            obs_frame=(episode_frame(result, spec.scheduler) if observe
                       else None))
    except Exception:  # noqa: BLE001 - unexpected crashes ARE findings
        return EpisodeOutcome(spec, ok=False,
                              crash=traceback.format_exc(limit=8))


@dataclass
class CampaignReport:
    """Aggregate of one fuzz campaign."""

    config: FuzzConfig
    seed: int
    episodes: int
    failures: list[EpisodeOutcome] = field(default_factory=list)
    committed: int = 0
    aborted: int = 0
    #: Minimized spec of the first failure (when shrinking ran).
    shrunk: EpisodeSpec | None = None
    #: Ready-to-paste regression test for the minimized failure.
    regression_test: str | None = None
    #: Rolling hash over every merged episode outcome, in episode
    #: order — two campaigns agree byte-for-byte iff digests match.
    #: Observability frames feed :attr:`metrics`, never the digest.
    digest: str = ""
    #: Fleet-wide observability (merged per-episode frames, episode
    #: order); None unless the campaign ran with ``observe=True``.
    metrics: ObsFrame | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (f"[{self.config.scheduler}] {self.episodes} episodes "
                f"(seed {self.seed}): {status}, "
                f"{self.committed} commits, {self.aborted} aborts")


def run_campaign(config: FuzzConfig, seed: int, episodes: int,
                 max_failures: int = 1, shrink_failures: bool = True,
                 progress: Callable[[int, EpisodeOutcome], None] | None
                 = None, observe: bool = False) -> CampaignReport:
    """Run ``episodes`` seeded episodes in order; stop after
    ``max_failures``.

    ``observe=True`` records per-episode observability frames and
    merges them in episode order into :attr:`CampaignReport.metrics`.
    Frames never feed the digest: observing is digest-neutral by
    contract.
    """
    report = CampaignReport(config=config, seed=seed, episodes=episodes)
    rolling = hashlib.sha256()
    frames: list[ObsFrame | None] = []
    for index in range(episodes):
        outcome = run_episode(generate_episode(config, seed, index),
                              observe=observe)
        report.committed += outcome.committed
        report.aborted += outcome.aborted
        if observe:
            frames.append(outcome.obs_frame)
        rolling.update(f"{index}|{outcome.summary()}\n".encode("utf-8"))
        report.digest = rolling.hexdigest()
        if progress is not None:
            progress(index, outcome)
        if not outcome.ok:
            report.failures.append(outcome)
            if len(report.failures) >= max_failures:
                break
    if observe:
        report.metrics = merge_frames(frames)
    if report.failures and shrink_failures:
        first = report.failures[0]
        report.shrunk = shrink_episode(
            first.spec, lambda candidate: not run_episode(candidate).ok)
        report.regression_test = render_regression_test(report.shrunk)
    return report
