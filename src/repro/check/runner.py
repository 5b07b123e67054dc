"""Episode runner: generate -> run -> oracle -> invariants -> shrink.

:func:`run_episode` is a *pure function* of an :class:`EpisodeSpec`
(specs are fully concrete; the schedulers are deterministic discrete-
event simulations), which is what lets the shrinker treat "does this
sub-episode still fail?" as a simple predicate — and what lets
:func:`run_campaign` shard episodes across worker processes
(``jobs=N``) while producing a report byte-identical to a serial run.

Process-boundary discipline: workers receive bare episode indices (the
campaign config and seed are installed once per worker by the pool
initializer) and return *compact* outcomes — the raw
:class:`SchedulerResult` never crosses the boundary.  Consumers that
need the full result (the trace dumper) rehydrate it lazily via
:func:`rehydrate_outcome`, which simply re-runs the pure spec.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable

from repro.check.fuzzer import (
    EpisodeSpec,
    FuzzConfig,
    episode_workload,
    generate_episode,
)
from repro.check.invariants import (
    check_episode_invariants,
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
from repro.parallel import (
    ParallelMap,
    WorkerContext,
    WorkerCrash,
    check_spec_concrete,
)
from repro.schedulers.gtm_scheduler import GTMScheduler, GTMSchedulerConfig
from repro.schedulers.optimistic import OptimisticScheduler
from repro.schedulers.twopl_scheduler import (
    TwoPLScheduler,
    TwoPLSchedulerConfig,
)

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
            lines.append(
                f"NOT SERIALIZABLE after {self.oracle.orders_tried} "
                f"serial orders:")
            lines.extend(f"  {m}" for m in self.oracle.mismatches)
        for violation in self.invariant_violations:
            lines.append(f"INVARIANT: {violation}")
        if self.ok:
            lines.append("ok")
        return "\n".join(lines)


def build_scheduler(spec: EpisodeSpec,
                    observe: bool = False) -> "Scheduler":
    """The scheduler under test, configured from the spec.

    ``observe`` switches on the :mod:`repro.obs` layer for the
    scheduler that has an event bus to listen on (the GTM's); it must
    never change the run itself — ``repro.obs.selfcheck`` holds us to
    that.  2PL and optimistic runs need no switch: their frame is read
    off the timelines they keep anyway.
    """
    if spec.scheduler == "gtm":
        return GTMScheduler(
            GTMSchedulerConfig(wait_timeout=spec.wait_timeout,
                               obs=observe))
    if spec.scheduler == "2pl":
        return TwoPLScheduler(
            TwoPLSchedulerConfig(wait_timeout=spec.wait_timeout))
    if spec.scheduler == "optimistic":
        return OptimisticScheduler()
    raise WorkloadError(f"unknown scheduler {spec.scheduler!r}")


def run_episode(spec: EpisodeSpec, observe: bool = False) -> EpisodeOutcome:
    """Run one episode and verdict it (oracle + invariants)."""
    workload = episode_workload(spec)
    scheduler = build_scheduler(spec, observe=observe)
    try:
        result = scheduler.run(workload)
    except Exception:  # noqa: BLE001 - unexpected crashes ARE findings
        return EpisodeOutcome(spec, ok=False,
                              crash=traceback.format_exc(limit=8))
    if spec.scheduler == "gtm":
        gtm = scheduler.last_gtm
        recorded = record_gtm(gtm)
        violations = check_episode_invariants(gtm)
        config = scheduler.config.gtm_config
        oracle = check_episode(recorded, matrix=config.matrix,
                               dependence=config.dependence)
    else:
        recorded = record_baseline(workload, result)
        violations = []
        oracle = check_episode(recorded)
    # interval bookkeeping holds for every scheduler, bus-fed or not
    violations.extend(check_timeline_invariants(result.collector))
    committed = len(result.collector.committed())
    aborted = len(result.collector.aborted())
    ok = oracle.serializable and not violations
    obs_frame = episode_frame(result, spec.scheduler) if observe else None
    return EpisodeOutcome(spec, ok=ok, committed=committed,
                          aborted=aborted, oracle=oracle,
                          invariant_violations=violations, result=result,
                          obs_frame=obs_frame)


def compact_outcome(outcome: EpisodeOutcome) -> EpisodeOutcome:
    """The process-boundary form of an outcome: everything the report
    and the shrinker need (spec, verdicts, counts, crash text), minus
    the raw :class:`SchedulerResult`, which is big, slow to pickle and
    reconstructible from the spec on demand."""
    if outcome.result is None:
        return outcome
    return replace(outcome, result=None)


def run_episode_compact(spec: EpisodeSpec,
                        observe: bool = False) -> EpisodeOutcome:
    """:func:`run_episode` without the raw result — the worker task.

    The obs frame (small, picklable aggregates) survives compaction;
    only the raw :class:`SchedulerResult` is dropped."""
    return compact_outcome(run_episode(spec, observe=observe))


def rehydrate_outcome(outcome: EpisodeOutcome) -> EpisodeOutcome:
    """Recover the full outcome (raw result included) from a compact
    one by re-running its pure spec; crashed episodes have no result
    to recover and compact outcomes pass through unchanged."""
    if outcome.result is not None or outcome.crash is not None:
        return outcome
    return run_episode(outcome.spec)


# ---------------------------------------------------------------------------
# campaign fan-out
# ---------------------------------------------------------------------------


def _init_campaign_worker(config: FuzzConfig, seed: int,
                          crash_indices: tuple[int, ...],
                          observe: bool = False) -> None:
    """Pool initializer: campaign constants, built once per worker."""
    WorkerContext.install(config=config, seed=seed,
                          crash_indices=frozenset(crash_indices),
                          observe=observe)


def _campaign_episode_task(index: int) -> EpisodeOutcome:
    """Worker task: regenerate episode ``index`` and run it compactly.

    The spec is *regenerated inside the worker* from the warm config +
    seed, so the only payload crossing the boundary inward is an int.
    ``crash_indices`` is the fault-injection hook the crash-isolation
    tests use to prove a poisoned episode cannot sink a campaign.
    """
    if index in WorkerContext.get("crash_indices"):
        raise RuntimeError(f"injected worker crash at episode {index}")
    spec = generate_episode(WorkerContext.get("config"),
                            WorkerContext.get("seed"), index)
    return run_episode_compact(spec,
                               observe=WorkerContext.get("observe"))


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
                 = None, jobs: int | str = 1,
                 chunk_size: int | None = None,
                 crash_indices: Iterable[int] = (),
                 observe: bool = False) -> CampaignReport:
    """Run ``episodes`` seeded episodes; stop after ``max_failures``.

    ``jobs`` shards the episodes over worker processes (``"auto"`` =
    CPU count).  The merge consumes worker results *in episode order*
    and applies the same accounting and early-stop rule as a serial
    run, so the report — summary, totals, failures, digest — is
    byte-identical for every ``jobs``/``chunk_size`` combination.
    Workers that crash (or raise) convert into ``crash=...`` outcomes
    for their episodes only; ``crash_indices`` deliberately poisons
    those episodes for the fault-isolation tests.

    ``observe=True`` records per-episode observability frames in the
    workers and merges them *in episode order* into
    :attr:`CampaignReport.metrics`, so a ``jobs=N`` campaign reports
    the same fleet-wide metrics as a serial one.  Frames never feed
    the digest: observing is digest-neutral by contract.
    """
    check_spec_concrete(config, "campaign config")
    report = CampaignReport(config=config, seed=seed, episodes=episodes)
    rolling = hashlib.sha256()
    frames: list[ObsFrame | None] = []
    mapper = ParallelMap(
        jobs=jobs, chunk_size=chunk_size,
        initializer=_init_campaign_worker,
        initargs=(config, seed, tuple(sorted(set(crash_indices))),
                  observe))
    stream = mapper.imap(_campaign_episode_task, range(episodes))
    try:
        for index, merged in stream:
            if isinstance(merged, WorkerCrash):
                outcome = EpisodeOutcome(
                    generate_episode(config, seed, index), ok=False,
                    crash=merged.traceback)
            else:
                outcome = merged
            report.committed += outcome.committed
            report.aborted += outcome.aborted
            if observe:
                frames.append(outcome.obs_frame)
            rolling.update(f"{index}|{outcome.summary()}\n"
                           .encode("utf-8"))
            report.digest = rolling.hexdigest()
            if progress is not None:
                progress(index, outcome)
            if not outcome.ok:
                report.failures.append(outcome)
                if len(report.failures) >= max_failures:
                    break
    finally:
        stream.close()  # cancel undispatched work, shut the pool down
    if observe:
        report.metrics = merge_frames(frames)
    if report.failures and shrink_failures:
        first = report.failures[0]
        report.shrunk = shrink_episode(
            first.spec, lambda candidate: not run_episode(candidate).ok)
        report.regression_test = render_regression_test(report.shrunk)
    return report
