"""Differential equivalence harness for the conflict-engine optimisation.

The bitmask kernel and the incremental lock-set summaries are *pure*
performance work: every scheduling decision must be bit-identical to
the reference implementation.  This module proves it
empirically — the same fuzz episodes the stress harness uses are run
once per engine variant and the full observable outcome is compared:

- the episode trace (:func:`repro.metrics.trace.episode_trace`): final
  values, scheduler counters and every transaction timeline;
- the permanent state of every managed object (values + existence);
- the episode invariants, including the lock-set-summary drift check.

Two GTM variants run per episode: the pairwise reference engine and
the bitmask engine.  For the 2PL/optimistic baselines (which have no engine
switch) the harness degrades to a run-twice determinism check, keeping
the campaign interface uniform.

A second axis (``mode="backend"``) compares *LDBS backends* instead of
conflict engines: each GTM episode runs once with SSTs bound to the
in-memory engine and once bound to SQLite
(:mod:`repro.ldbs.sqlite_backend`), asserting identical traces,
permanent object state, commit-order witness (PAPERS.md commitment
ordering across sites), invariant sweeps *and* LDBS dumps — the
paper's "ordinary ACID transactions against the LDBS" claim, proven
against a real database.  Every divergence this mode finds is a bug to
fix and pin, in the PR 2/PR 5 style.

A campaign runs its episodes in order and folds each one's canonical
SHA-256 digest of the full observable outcome
(:func:`comparison_digest`) into a rolling campaign digest.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.check.fuzzer import (
    EpisodeSpec,
    FuzzConfig,
    episode_workload,
    generate_episode,
)
from repro.check.invariants import check_episode_invariants
from repro.core.gtm import GTMConfig
from repro.errors import WorkloadError
from repro.metrics.trace import episode_trace
from repro.schedulers.gtm_scheduler import GTMScheduler, GTMSchedulerConfig

#: (label, GTMConfig overrides) for each GTM variant under comparison.
GTM_VARIANTS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("reference", {"conflict_engine": "reference"}),
    ("bitmask", {"conflict_engine": "bitmask"}),
)

#: The LDBS backends under comparison (``mode="backend"``): same engine,
#: SSTs bound to different databases.  The name is the variant's label.
BACKEND_VARIANTS: tuple[str, ...] = ("memory", "sqlite")

#: Comparison axes accepted by the campaign entry points.
DIFFERENTIAL_MODES: tuple[str, ...] = ("engine", "backend")


@dataclass
class VariantRun:
    """One engine variant's observable outcome for one episode."""

    label: str
    trace: dict[str, Any] | None = None
    permanent: dict[str, Any] | None = None
    violations: list[str] = field(default_factory=list)
    crash: str | None = None
    #: committed transaction ids in global-commit order (the witness
    #: commitment ordering requires to be site/backend-independent).
    witness: list[str] | None = None
    #: the LDBS backend's committed state (``backend.dump()``), only
    #: populated in backend mode where SSTs write a real database.
    ldbs: dict[str, Any] | None = None


@dataclass
class EpisodeComparison:
    """The per-episode verdict: every way the variants disagreed."""

    spec: EpisodeSpec
    runs: list[VariantRun]
    diffs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    def summary(self) -> str:
        lines = [self.spec.describe()]
        lines.extend(f"  DIVERGENCE: {diff}" for diff in self.diffs)
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """Aggregate of a differential campaign."""

    config: FuzzConfig
    seed: int
    episodes: int
    divergent: list[EpisodeComparison] = field(default_factory=list)
    #: Rolling hash over every episode's outcome digest, in episode
    #: order — two campaigns saw bit-identical behaviour iff equal.
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.divergent

    def summary(self) -> str:
        status = "OK" if self.ok else \
            f"{len(self.divergent)} DIVERGENT EPISODE(S)"
        return (f"[differential {self.config.scheduler}] "
                f"{self.episodes} episodes (seed {self.seed}): {status}")


def comparison_digest(comparison: EpisodeComparison) -> str:
    """Canonical SHA-256 of one episode's full observable outcome.

    Covers every variant's trace, permanent object state, invariant
    violations and crash text plus the computed diffs, serialized as
    sorted-key JSON so dict ordering cannot leak into the hash.
    """
    payload = {
        "episode": comparison.spec.index,
        "diffs": comparison.diffs,
        "runs": [
            {"label": run.label, "trace": run.trace,
             "permanent": run.permanent, "violations": run.violations,
             "crash": run.crash, "witness": run.witness,
             # always empty; dropping the key would move every
             # recorded campaign digest
             "ldbs": run.ldbs, "oracle": []}
            for run in comparison.runs],
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _gtm_variant_scheduler(spec: EpisodeSpec,
                           overrides: dict[str, Any],
                           observe: bool = False,
                           ldbs_backend: str | None = None) -> GTMScheduler:
    return GTMScheduler(GTMSchedulerConfig(
        gtm_config=GTMConfig(**overrides),
        wait_timeout=spec.wait_timeout,
        ldbs_backend=ldbs_backend,
        obs=observe))


def _run_variant(spec: EpisodeSpec, label: str,
                 build: Callable[[], Any]) -> VariantRun:
    """One variant's outcome; a crash anywhere in it (build, run,
    trace, invariant sweep, LDBS dump) is recorded, never raised."""
    try:
        scheduler = build()
        result = scheduler.run(episode_workload(spec))
        run = VariantRun(label=label, trace=episode_trace(result))
        gtm = getattr(scheduler, "last_gtm", None)
        if gtm is not None:
            run.permanent = {
                name: {"exists": obj.exists,
                       "members": dict(obj.permanent)}
                for name, obj in gtm.objects.items()}
            run.violations = check_episode_invariants(gtm)
            run.witness = list(gtm.history.commit_order)
        backend = getattr(scheduler, "last_backend", None)
        if backend is not None:
            run.ldbs = backend.dump()
            backend.close()
        return run
    except Exception:  # noqa: BLE001 - a variant-only crash IS a divergence
        return VariantRun(label=label,
                          crash=traceback.format_exc(limit=8))


def compare_episode(spec: EpisodeSpec,
                    observe: bool = False,
                    mode: str = "engine") -> EpisodeComparison:
    """Run every variant of one episode and diff the outcomes.

    In ``mode="engine"`` GTM episodes compare the two conflict-engine
    variants against each other; ``mode="backend"`` compares the same
    engine with SSTs bound to each LDBS backend (in-memory vs SQLite),
    additionally diffing the commit-order witness and the backends'
    committed LDBS state.  Baseline episodes
    compare two identical runs (determinism) on every axis.  ``observe``
    switches the :mod:`repro.obs` layer on inside every variant run;
    traces exclude obs artifacts, so the comparison (and its digest)
    must be unchanged — CI's ``selfcheck`` job diffs campaign digests
    with ``observe`` off vs on to prove it.
    """
    if mode not in DIFFERENTIAL_MODES:
        raise WorkloadError(f"unknown differential mode {mode!r}; "
                            f"expected one of {DIFFERENTIAL_MODES}")
    if spec.scheduler == "gtm":
        if mode == "backend":
            runs = [_run_variant(spec, name,
                                 lambda b=name:
                                 _gtm_variant_scheduler(spec, {}, observe,
                                                        ldbs_backend=b))
                    for name in BACKEND_VARIANTS]
        else:
            runs = [_run_variant(spec, label,
                                 lambda o=overrides:
                                 _gtm_variant_scheduler(spec, o, observe))
                    for label, overrides in GTM_VARIANTS]
    elif spec.scheduler in ("2pl", "optimistic"):
        from repro.check.runner import build_scheduler
        runs = [_run_variant(spec, f"{spec.scheduler}-run{i}",
                             lambda: build_scheduler(spec,
                                                     observe=observe))
                for i in (1, 2)]
    else:
        raise WorkloadError(f"unknown scheduler {spec.scheduler!r}")

    comparison = EpisodeComparison(spec=spec, runs=runs)
    baseline = runs[0]
    for run in runs:
        if run.crash is not None:
            comparison.diffs.append(f"{run.label}: crashed:\n{run.crash}")
        for violation in run.violations:
            comparison.diffs.append(f"{run.label}: invariant: {violation}")
    if any(run.crash for run in runs):
        return comparison
    for run in runs[1:]:
        if run.trace != baseline.trace:
            comparison.diffs.append(
                f"{run.label} trace != {baseline.label} trace: "
                f"{_first_trace_diff(baseline.trace, run.trace)}")
        if run.permanent != baseline.permanent:
            comparison.diffs.append(
                f"{run.label} permanent state != {baseline.label}: "
                f"{run.permanent!r} vs {baseline.permanent!r}")
        if run.witness != baseline.witness:
            comparison.diffs.append(
                f"{run.label} commit-order witness != {baseline.label}: "
                f"{run.witness!r} vs {baseline.witness!r}")
        if run.ldbs != baseline.ldbs:
            comparison.diffs.append(
                f"{run.label} LDBS state != {baseline.label}: "
                f"{_first_trace_diff(baseline.ldbs, run.ldbs)}")
    return comparison


def _first_trace_diff(a: dict[str, Any] | None,
                      b: dict[str, Any] | None) -> str:
    """Human-sized pointer at the first differing trace key."""
    if a is None or b is None:
        return f"{a!r} vs {b!r}"
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"key {key!r}: {a.get(key)!r} vs {b.get(key)!r}"
    return "(no differing key found)"


def run_differential_campaign(
        config: FuzzConfig, seed: int, episodes: int,
        max_divergences: int = 5,
        progress: Callable[[int, bool], None] | None = None,
        observe: bool = False,
        mode: str = "engine",
) -> DifferentialReport:
    """Run ``episodes`` seeded episodes, in order, through every variant.

    ``mode`` picks the comparison axis: conflict engines (``"engine"``,
    the default) or LDBS backends (``"backend"``, in-memory vs SQLite).
    ``progress`` receives ``(index, ok)`` per episode.
    """
    if mode not in DIFFERENTIAL_MODES:
        raise WorkloadError(f"unknown differential mode {mode!r}; "
                            f"expected one of {DIFFERENTIAL_MODES}")
    report = DifferentialReport(config=config, seed=seed,
                                episodes=episodes)
    rolling = hashlib.sha256()
    for index in range(episodes):
        comparison = compare_episode(generate_episode(config, seed, index),
                                     observe=observe, mode=mode)
        rolling.update(f"{index}|{int(comparison.ok)}|"
                       f"{comparison_digest(comparison)}\n"
                       .encode("utf-8"))
        report.digest = rolling.hexdigest()
        if progress is not None:
            progress(index, comparison.ok)
        if not comparison.ok:
            report.divergent.append(comparison)
            if len(report.divergent) >= max_divergences:
                break
    return report


def run_backend_differential_campaign(
        config: FuzzConfig, seed: int, episodes: int,
        **kwargs: Any) -> DifferentialReport:
    """The memory-vs-SQLite campaign: :func:`run_differential_campaign`
    with ``mode="backend"`` (the CI ``backend-differential`` job)."""
    return run_differential_campaign(config, seed, episodes,
                                     mode="backend", **kwargs)
