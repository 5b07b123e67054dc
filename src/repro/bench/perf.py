"""The GTM perf harness: microbenches, throughput, and BENCH_gtm.json.

Three measurements, all seeded and deterministic in *behaviour* (wall
times vary, outcomes never do):

- **conflict microbench** — ``checker.object_blocked`` on an object with
  ``waiters`` compatible READ holders, probed with READ and ASSIGN
  invocations (both compatible with every holder — the worst case, since
  the reference scan cannot short-circuit).  The reference engine
  rebuilds ``holder_ops`` per test; the bitmask engine answers from the
  incremental lock-set summary in O(1).
- **pump microbench** — ``admission.pump_unlock`` on a hot object whose
  ASSIGN holder blocks ``waiters`` queued ASSIGNs.  The reference grant
  policy judges each waiter pairwise against every blocked-ahead entry
  (O(n²) per pump); the bitmask engine uses mask round-sets (O(n)).
- **throughput run** — a windowed stream of mutually compatible ADDSUB
  transactions driven straight at the facade (no simulator), reporting
  ops/sec and p50/p99 grant/commit latencies, run once per engine
  variant; the harness asserts the final permanent state and commit
  counts are identical across variants before reporting.

``run_perf`` additionally runs the differential fuzz campaign
(:mod:`repro.check.differential`) and folds the divergence count into
the emitted ``BENCH_gtm.json`` — a benchmark that got faster by
changing behaviour must fail loudly, not report a speedup.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.check.differential import run_differential_campaign
from repro.check.fuzzer import FuzzConfig
from repro.check.runner import run_campaign
from repro.core.conflicts import build_conflict_checker
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.objects import ManagedObject
from repro.core.opclass import add, assign, read
from repro.errors import GTMError

_CLOCK = time.perf_counter


@dataclass(frozen=True)
class PerfProfile:
    """One calibration of the harness (``smoke`` for CI, ``full`` local)."""

    name: str
    #: Holders/waiters on the contended object of both microbenches.
    waiters: int = 64
    conflict_iters: int = 2000
    pump_iters: int = 150
    #: Throughput run: open-transaction window × rounds × ops each.
    window: int = 8
    rounds: int = 60
    ops_per_txn: int = 3
    throughput_objects: int = 16
    #: Differential fuzz episodes per scheduler.
    differential_episodes: int = 25
    #: Backend-SST microbench: SSTs executed per LDBS backend.
    backend_ssts: int = 200
    #: Backend-differential (memory vs SQLite) episodes per scheduler.
    backend_differential_episodes: int = 15
    #: Observability-overhead stage: GTM campaign episodes per run.
    observability_episodes: int = 40
    #: Episode-throughput stage: tier episode counts are multiplied by
    #: ``episode_scale`` and each variant is timed ``episode_reps``
    #: times (best-of, to reject scheduler hiccups).
    episode_scale: int = 1
    episode_reps: int = 3


PROFILES: dict[str, PerfProfile] = {
    "smoke": PerfProfile(name="smoke"),
    "full": PerfProfile(name="full", conflict_iters=20000, pump_iters=600,
                        rounds=400, differential_episodes=120,
                        backend_ssts=1500,
                        backend_differential_episodes=80,
                        observability_episodes=200,
                        episode_scale=3, episode_reps=5),
}

#: Conflict engines measured by the throughput run.
THROUGHPUT_ENGINES: tuple[str, ...] = ("reference", "bitmask")


def get_profile(name: str) -> PerfProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise GTMError(
            f"unknown perf profile {name!r}; expected one of "
            f"{tuple(PROFILES)}") from None


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


# ---------------------------------------------------------------------------
# conflict microbench
# ---------------------------------------------------------------------------


def _holder_object(waiters: int) -> ManagedObject:
    """An object with ``waiters`` compatible READ holders (summary kept)."""
    obj = ManagedObject("X", value=100)
    for index in range(waiters):
        obj.grant_pending(f"H{index}", read())
    return obj


def bench_conflict(profile: PerfProfile) -> dict[str, Any]:
    obj = _holder_object(profile.waiters)
    probes = (read(), assign(7))
    timings: dict[str, float] = {}
    answers: dict[str, tuple[bool, ...]] = {}
    for engine in ("reference", "bitmask"):
        checker = build_conflict_checker(engine)
        blocked = _CLOCK  # keep the loop body free of attribute lookups
        start = blocked()
        for _ in range(profile.conflict_iters):
            for probe in probes:
                checker.object_blocked(obj, "probe", probe)
        timings[engine] = blocked() - start
        answers[engine] = tuple(
            checker.object_blocked(obj, "probe", probe) for probe in probes)
    if answers["reference"] != answers["bitmask"]:
        raise GTMError(
            f"conflict microbench: engines disagree: {answers!r}")
    return {
        "holders": profile.waiters,
        "iterations": profile.conflict_iters,
        "probes": [p.describe() for p in probes],
        "reference_s": timings["reference"],
        "bitmask_s": timings["bitmask"],
        "speedup": timings["reference"] / max(timings["bitmask"], 1e-12),
    }


# ---------------------------------------------------------------------------
# pump microbench
# ---------------------------------------------------------------------------


def _contended_gtm(engine: str, waiters: int) -> GlobalTransactionManager:
    """One ASSIGN holder on ``hot``; ``waiters`` queued ASSIGNs behind it."""
    gtm = GlobalTransactionManager(GTMConfig(conflict_engine=engine))
    gtm.create_object("hot", value=100)
    gtm.begin("H0")
    outcome = gtm.invoke("H0", "hot", assign(1))
    if outcome != "granted":
        raise GTMError(f"pump bench setup: holder not granted: {outcome}")
    for index in range(waiters):
        txn_id = f"W{index}"
        gtm.begin(txn_id)
        outcome = gtm.invoke(txn_id, "hot", assign(index))
        if outcome != "queued":
            raise GTMError(
                f"pump bench setup: {txn_id} not queued: {outcome}")
    return gtm


def bench_pump(profile: PerfProfile) -> dict[str, Any]:
    timings: dict[str, float] = {}
    grants: dict[str, int] = {}
    for engine in ("reference", "bitmask"):
        gtm = _contended_gtm(engine, profile.waiters)
        obj = gtm.object("hot")
        pump = gtm.admission.pump_unlock
        granted = len(pump(obj))      # warmup: reach the steady state
        start = _CLOCK()
        for _ in range(profile.pump_iters):
            granted += len(pump(obj))
        timings[engine] = _CLOCK() - start
        grants[engine] = granted
        if len(obj.waiting) != profile.waiters:
            raise GTMError(
                f"pump bench ({engine}): queue drained unexpectedly")
    if grants["reference"] != grants["bitmask"]:
        raise GTMError(f"pump microbench: engines disagree: {grants!r}")
    return {
        "waiters": profile.waiters,
        "iterations": profile.pump_iters,
        "reference_s": timings["reference"],
        "bitmask_s": timings["bitmask"],
        "reference_pump_us": timings["reference"] * 1e6
        / profile.pump_iters,
        "bitmask_pump_us": timings["bitmask"] * 1e6 / profile.pump_iters,
        "speedup": timings["reference"] / max(timings["bitmask"], 1e-12),
    }


# ---------------------------------------------------------------------------
# throughput run
# ---------------------------------------------------------------------------


def _throughput_run(engine: str, profile: PerfProfile) -> dict[str, Any]:
    """Windowed ADDSUB stream, driven straight at the facade."""
    gtm = GlobalTransactionManager(GTMConfig(conflict_engine=engine))
    for index in range(profile.throughput_objects):
        gtm.create_object(f"obj{index}", value=1000)

    grant_latencies: list[float] = []
    commit_latencies: list[float] = []
    operations = 0
    commits = 0
    txn_counter = 0
    start = _CLOCK()
    for round_index in range(profile.rounds):
        window: list[str] = []
        for slot in range(profile.window):
            txn_id = f"T{txn_counter}"
            txn_counter += 1
            gtm.begin(txn_id)
            window.append(txn_id)
            for op_index in range(profile.ops_per_txn):
                # deterministic spread: every (txn, op) pair lands on a
                # fixed object; ADDSUB is compatible with itself, so the
                # window never blocks and every invoke measures the pure
                # admission cost.
                target = (txn_counter * 7 + op_index * 13) \
                    % profile.throughput_objects
                invocation = add((txn_counter + op_index) % 17 - 8 or 1)
                t0 = _CLOCK()
                outcome = gtm.invoke(txn_id, f"obj{target}", invocation)
                grant_latencies.append(_CLOCK() - t0)
                if outcome != "granted":
                    raise GTMError(
                        f"throughput run ({engine}): {txn_id} "
                        f"unexpectedly {outcome}")
                gtm.apply(txn_id, f"obj{target}", invocation)
                operations += 1
        for txn_id in window:
            t0 = _CLOCK()
            gtm.request_commit(txn_id)
            commit_latencies.append(_CLOCK() - t0)
        commits += len(window)
        gtm.pump_commits()
    elapsed = _CLOCK() - start

    grant_latencies.sort()
    commit_latencies.sort()
    digest = {
        "commits": commits,
        "final_values": {name: dict(obj.permanent)
                         for name, obj in gtm.objects.items()},
    }
    return {
        "engine": engine,
        "transactions": commits,
        "operations": operations,
        "elapsed_s": elapsed,
        "ops_per_sec": operations / max(elapsed, 1e-12),
        "txns_per_sec": commits / max(elapsed, 1e-12),
        "grant_latency_p50_us": _percentile(grant_latencies, 0.50) * 1e6,
        "grant_latency_p99_us": _percentile(grant_latencies, 0.99) * 1e6,
        "commit_latency_p50_us": _percentile(commit_latencies, 0.50) * 1e6,
        "commit_latency_p99_us": _percentile(commit_latencies, 0.99) * 1e6,
        "_digest": digest,
    }


def bench_throughput(profile: PerfProfile) -> dict[str, Any]:
    runs = [_throughput_run(engine, profile)
            for engine in THROUGHPUT_ENGINES]
    digests = [run.pop("_digest") for run in runs]
    identical = all(digest == digests[0] for digest in digests[1:])
    if not identical:
        raise GTMError(
            "throughput run: engine variants produced different outcomes")
    reference = next(r for r in runs if r["engine"] == "reference")
    bitmask = next(r for r in runs if r["engine"] == "bitmask")
    return {
        "variants": runs,
        "outcomes_identical": identical,
        "bitmask_vs_reference_ops_speedup":
            bitmask["ops_per_sec"] / max(reference["ops_per_sec"], 1e-12),
    }


# ---------------------------------------------------------------------------
# episode throughput
# ---------------------------------------------------------------------------


#: (tier, FuzzConfig overrides, episodes) of the episode-throughput
#: stage.  The contention mix decides which layer dominates: ``light``
#: is the default fuzz mix (fixed per-episode setup dominates),
#: ``contended`` queues two dozen transactions on two objects (the
#: admission/pump path), ``hotspot`` piles four dozen on one object
#: (deadlock re-policing, the O(waiters²) worst case).
EPISODE_TIERS: tuple[tuple[str, dict[str, Any], int], ...] = (
    ("light", {}, 40),
    ("contended", {"max_objects": 2, "max_txns": 24,
                   "max_ops_per_txn": 3, "arrival_spread": 2.0}, 12),
    ("hotspot", {"max_objects": 1, "max_txns": 48, "max_ops_per_txn": 3,
                 "arrival_spread": 1.0, "p_outage": 0.1,
                 "p_wait_timeout": 0.0}, 8),
)


def _first_digest_divergence(baseline_label: str, baseline: list[str],
                             label: str, run_digests: list[str]
                             ) -> dict[str, Any] | None:
    """First per-episode digest mismatch between two variant runs.

    The returned record carries everything a person needs to chase the
    divergence (tier owner adds the tier): which pair of variants, at
    which episode index, and both digests — the digest-gate failure
    message is built from it instead of a bare "variants diverged".
    """
    for index, (expected, got) in enumerate(zip(baseline, run_digests)):
        if expected != got:
            return {"episode": index, "baseline_label": baseline_label,
                    "label": label, "baseline_digest": expected,
                    "digest": got}
    return None


def _episode_digest(scheduler: Any, result: Any) -> str:
    """Canonical SHA-256 of one episode run's observable outcome."""
    import hashlib

    from repro.metrics.trace import episode_trace

    gtm = scheduler.last_gtm
    payload = {
        "trace": episode_trace(result),
        "permanent": {name: {"exists": obj.exists,
                             "members": dict(obj.permanent)}
                      for name, obj in gtm.objects.items()},
        "witness": list(gtm.history.commit_order),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def bench_episodes(profile: PerfProfile, seed: int = 2008) -> dict[str, Any]:
    """End-to-end episodes/sec per engine variant, identity-gated.

    Runs every :data:`~repro.check.differential.GTM_VARIANTS` engine
    over the same seeded episode set of each tier, timing only the
    scheduler run (workload build and digesting sit outside the clock).
    Every variant's per-episode outcome digests must be identical —
    an engine that got faster by behaving differently is a divergence,
    reported with a hard :class:`GTMError` so the perf smoke gate fails.
    """
    from repro.check.differential import (
        GTM_VARIANTS,
        _gtm_variant_scheduler,
    )
    from repro.check.fuzzer import FuzzConfig, episode_workload, \
        generate_episode

    tiers: list[dict[str, Any]] = []
    for tier, overrides, base_count in EPISODE_TIERS:
        count = base_count * profile.episode_scale
        config = FuzzConfig(**overrides)
        specs = [generate_episode(config, seed, index)
                 for index in range(count)]
        transactions = sum(len(spec.txns) for spec in specs)
        digests: dict[str, list[str]] = {}
        rows: list[dict[str, Any]] = []
        for label, config_overrides in GTM_VARIANTS:
            best_elapsed = None
            for rep in range(profile.episode_reps):
                elapsed = 0.0
                run_digests: list[str] = []
                for spec in specs:
                    scheduler = _gtm_variant_scheduler(
                        spec, config_overrides, False)
                    workload = episode_workload(spec)
                    start = _CLOCK()
                    result = scheduler.run(workload)
                    elapsed += _CLOCK() - start
                    if rep == 0:
                        run_digests.append(
                            _episode_digest(scheduler, result))
                if rep == 0:
                    digests[label] = run_digests
                if best_elapsed is None or elapsed < best_elapsed:
                    best_elapsed = elapsed
            rows.append({
                "label": label,
                "engine": config_overrides["conflict_engine"],
                "elapsed_s": best_elapsed,
                "episodes_per_sec": count / max(best_elapsed, 1e-12),
            })
        baseline_label = GTM_VARIANTS[0][0]
        baseline = digests[baseline_label]
        identical = all(run == baseline for run in digests.values())
        if not identical:
            for label, run_digests in digests.items():
                div = _first_digest_divergence(baseline_label, baseline,
                                               label, run_digests)
                if div is not None:
                    raise GTMError(
                        f"episode throughput digest gate ({tier} tier): "
                        f"variant {div['label']!r} diverged from "
                        f"{div['baseline_label']!r} at episode "
                        f"{div['episode']}: {div['digest']} != "
                        f"{div['baseline_digest']}")
            raise GTMError(
                f"episode throughput ({tier}): engine variants diverged")
        tiers.append({
            "tier": tier,
            "episodes": count,
            "transactions": transactions,
            "variants": rows,
            "outcomes_identical": identical,
        })

    def _eps(tier_row: dict[str, Any], label: str) -> float:
        return next(v["episodes_per_sec"] for v in tier_row["variants"]
                    if v["label"] == label)

    hotspot = next(t for t in tiers if t["tier"] == "hotspot")
    return {
        "seed": seed,
        "default_engine": "bitmask",
        "tiers": tiers,
        "hotspot_bitmask_vs_reference":
            _eps(hotspot, "bitmask") / max(_eps(hotspot, "reference"),
                                           1e-12),
    }


# ---------------------------------------------------------------------------
# MVCC reads
# ---------------------------------------------------------------------------


#: FuzzConfig overrides of the read-heavy mix — the one mix where the
#: READ path decides the schedule — and its episode count.
READ_HEAVY_MIX: dict[str, Any] = {
    "max_objects": 4, "max_txns": 24, "max_ops_per_txn": 3,
    "p_read": 0.85, "arrival_spread": 2.0, "p_outage": 0.0,
    "p_wait_timeout": 0.0}
READ_HEAVY_EPISODES = 10


def bench_mvcc_reads(profile: PerfProfile,
                     seed: int = 2008) -> dict[str, Any]:
    """Locking READs vs lock-free MVCC READs on the read-heavy mix.

    The same seeded episodes run on the kernel and on its MVCC subclass
    (:data:`~repro.check.differential.MVCC_VARIANTS`; best of
    ``episode_reps`` timings).  The gate: the MVCC manager must finish
    them in less *simulated* time than the locking one (reads never
    park in the wait queue), with the lock-free read count recorded as
    evidence.  Simulated makespan is deterministic, so the gate cannot
    flake with wall-clock noise.
    """
    from repro.check.differential import (
        MVCC_VARIANTS,
        _gtm_variant_scheduler,
    )
    from repro.check.fuzzer import FuzzConfig, episode_workload, \
        generate_episode

    count = READ_HEAVY_EPISODES * profile.episode_scale
    config = FuzzConfig(**READ_HEAVY_MIX)
    specs = [generate_episode(config, seed, index)
             for index in range(count)]
    rows: dict[str, dict[str, Any]] = {}
    for label, config_overrides in MVCC_VARIANTS:
        best_elapsed = None
        sim_makespan = 0.0
        served = 0
        for rep in range(profile.episode_reps):
            elapsed = 0.0
            for spec in specs:
                scheduler = _gtm_variant_scheduler(
                    spec, config_overrides, False)
                workload = episode_workload(spec)
                start = _CLOCK()
                result = scheduler.run(workload)
                elapsed += _CLOCK() - start
                if rep == 0:
                    sim_makespan += result.stats.makespan
                    certifier = getattr(scheduler.last_gtm,
                                        "certifier", None)
                    if certifier is not None:
                        served += certifier.reads_served
            if best_elapsed is None or elapsed < best_elapsed:
                best_elapsed = elapsed
        rows[label] = {
            "label": label,
            "mvcc_reads": config_overrides.get("mvcc_reads", False),
            "elapsed_s": best_elapsed,
            "episodes_per_sec": count / max(best_elapsed, 1e-12),
            "sim_makespan_s": sim_makespan,
            "lock_free_reads": served,
        }
    locking, mvcc = rows["monolith"], rows["mvcc"]
    return {
        "seed": seed,
        "tier": "read-heavy",
        "episodes": count,
        "variants": list(rows.values()),
        "lock_free_reads": mvcc["lock_free_reads"],
        "sim_makespan_locking_s": locking["sim_makespan_s"],
        "sim_makespan_mvcc_s": mvcc["sim_makespan_s"],
        "mvcc_vs_locking_eps":
            mvcc["episodes_per_sec"]
            / max(locking["episodes_per_sec"], 1e-12),
        "mvcc_dominates":
            mvcc["sim_makespan_s"] < locking["sim_makespan_s"]
            and mvcc["lock_free_reads"] > 0,
    }


# ---------------------------------------------------------------------------
# backend-SST microbench
# ---------------------------------------------------------------------------


def bench_backend_sst(profile: PerfProfile) -> dict[str, Any]:
    """SST commit rate per LDBS backend, with state identity asserted.

    The same stream of single-object SSTs (the hot write path a real
    deployment pays on every global commit) runs on every registered
    backend; each backend's final committed state must be identical,
    so a backend that got faster by dropping writes fails loudly.
    """
    from repro.core.objects import ObjectBinding
    from repro.core.sst import SSTExecutor, StagedWrite
    from repro.ldbs.backend import backend_names, create_backend
    from repro.ldbs.schema import Column, ColumnType, TableSchema

    runs: list[dict[str, Any]] = []
    dumps: list[dict[str, Any]] = []
    for name in backend_names():
        backend = create_backend(name)
        backend.create_table(TableSchema(
            "obj", (Column("id", ColumnType.INT),
                    Column("value", ColumnType.FLOAT, nullable=True)),
            primary_key="id"))
        backend.seed("obj", [{"id": 1, "value": 0.0}])
        executor = SSTExecutor(backend)
        binding = ObjectBinding.cell("obj", 1, "value")
        start = _CLOCK()
        for index in range(profile.backend_ssts):
            executor.execute(
                f"T{index}",
                [StagedWrite("obj", binding, {"value": float(index)})])
        elapsed = _CLOCK() - start
        dumps.append(backend.dump())
        backend.close()
        runs.append({
            "backend": name,
            "ssts": profile.backend_ssts,
            "elapsed_s": elapsed,
            "ssts_per_sec": profile.backend_ssts / max(elapsed, 1e-12),
        })
    identical = all(dump == dumps[0] for dump in dumps[1:])
    if not identical:
        raise GTMError(
            f"backend-SST microbench: backends disagree: {dumps!r}")
    return {"runs": runs, "final_state_identical": identical}


# ---------------------------------------------------------------------------
# differential equivalence
# ---------------------------------------------------------------------------


def bench_backend_differential(profile: PerfProfile, seed: int = 2008,
                               jobs: int | str = 1) -> dict[str, Any]:
    """The memory-vs-SQLite campaign folded into BENCH_gtm.json."""
    per_scheduler: list[dict[str, Any]] = []
    divergences = 0
    for scheduler in ("gtm", "2pl", "optimistic"):
        report = run_differential_campaign(
            FuzzConfig(scheduler=scheduler), seed=seed,
            episodes=profile.backend_differential_episodes, jobs=jobs,
            mode="backend")
        divergences += len(report.divergent)
        per_scheduler.append({
            "scheduler": scheduler,
            "episodes": report.episodes,
            "divergences": len(report.divergent),
            "digest": report.digest,
            "detail": [c.summary() for c in report.divergent[:3]],
        })
    return {
        "seed": seed,
        "episodes_per_scheduler": profile.backend_differential_episodes,
        "schedulers": per_scheduler,
        "divergences": divergences,
    }


def bench_differential(profile: PerfProfile, seed: int = 2008,
                       jobs: int | str = 1) -> dict[str, Any]:
    per_scheduler: list[dict[str, Any]] = []
    divergences = 0
    for scheduler in ("gtm", "2pl", "optimistic"):
        report = run_differential_campaign(
            FuzzConfig(scheduler=scheduler), seed=seed,
            episodes=profile.differential_episodes, jobs=jobs)
        divergences += len(report.divergent)
        per_scheduler.append({
            "scheduler": scheduler,
            "episodes": report.episodes,
            "divergences": len(report.divergent),
            "digest": report.digest,
            "detail": [c.summary() for c in report.divergent[:3]],
        })
    return {
        "seed": seed,
        "episodes_per_scheduler": profile.differential_episodes,
        "schedulers": per_scheduler,
        "divergences": divergences,
    }


# ---------------------------------------------------------------------------
# observability overhead + neutrality
# ---------------------------------------------------------------------------


def bench_observability(profile: PerfProfile, seed: int = 2008,
                        rounds: int = 5) -> dict[str, Any]:
    """Observer overhead and digest neutrality on a GTM campaign.

    The same seeded campaign runs two ways: observability off and on
    (``observe=True``); ``overhead_pct`` is what an observed campaign
    pays.

    Measurement is **interleaved and paired**: each round times one
    off-run immediately followed by one on-run, and the reported
    overhead is the *median of the per-round ratios*.  On a shared or
    single-core box the absolute campaign wall-clock drifts by tens of
    percent between rounds (CPU frequency, page cache, sibling load);
    pairing keeps both sides of each ratio inside the same drift
    window, and the median rejects rounds a scheduler hiccup poisoned —
    a one-sided min-of-N was observed to swing the ratio by over 20
    points on this workload.

    The digests MUST match — an observer that moved a digest changed
    the system under test, and the perf smoke gate hard-fails on it.
    Budget: <= 25% on the smoke profile — the true overhead measures
    near 10%, but the paired median still swings 9-23% run to run on
    shared boxes, so the gate keeps enough headroom not to flake while
    still catching a per-event regression.
    """
    config = FuzzConfig(scheduler="gtm")
    episodes = profile.observability_episodes

    def timed(observe: bool) -> tuple[float, Any]:
        start = _CLOCK()
        report = run_campaign(config, seed=seed, episodes=episodes,
                              shrink_failures=False, observe=observe)
        return _CLOCK() - start, report

    timed(False)  # warmup: imports, pyc, allocator pools
    timed(True)
    ratios: list[float] = []
    off_times: list[float] = []
    on_times: list[float] = []
    baseline = observed = None
    for _ in range(rounds):
        off_s, baseline = timed(False)
        on_s, observed = timed(True)
        off_times.append(off_s)
        on_times.append(on_s)
        ratios.append(on_s / max(off_s, 1e-12))
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    identical = baseline.digest == observed.digest
    metrics = observed.metrics
    return {
        "episodes": episodes,
        "seed": seed,
        "rounds": rounds,
        "baseline_s": min(off_times),
        "observed_s": min(on_times),
        "overhead_pct": 100.0 * (median_ratio - 1.0),
        "ratio_spread": [round(r, 4) for r in ratios],
        "digests_identical": identical,
        "campaign_digest": baseline.digest,
        "grants_total": (metrics.counter_total("gtm_grants")
                         if metrics else 0.0),
        "commits_total": (metrics.counter_total("gtm_commits")
                          if metrics else 0.0),
    }


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def run_perf(profile_name: str = "smoke", seed: int = 2008,
             jobs: int | str = 1) -> dict[str, Any]:
    """Run every stage and assemble the ``BENCH_gtm.json`` payload.

    ``jobs`` parallelizes the embedded differential campaigns (their
    digests are jobs-invariant by construction).
    """
    profile = get_profile(profile_name)
    conflict = bench_conflict(profile)
    pump = bench_pump(profile)
    throughput = bench_throughput(profile)
    episodes = bench_episodes(profile, seed=seed)
    mvcc_reads = bench_mvcc_reads(profile, seed=seed)
    backend_sst = bench_backend_sst(profile)
    differential = bench_differential(profile, seed=seed, jobs=jobs)
    backend_differential = bench_backend_differential(profile, seed=seed,
                                                      jobs=jobs)
    observability = bench_observability(profile, seed=seed)
    reference_hot = conflict["reference_s"] + pump["reference_s"]
    optimized_hot = conflict["bitmask_s"] + pump["bitmask_s"]
    return {
        "profile": profile.name,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": jobs,
        "conflict_microbench": conflict,
        "pump_microbench": pump,
        "hot_path": {
            "reference_s": reference_hot,
            "optimized_s": optimized_hot,
            "speedup": reference_hot / max(optimized_hot, 1e-12),
        },
        "throughput": throughput,
        "episode_throughput": episodes,
        "mvcc_reads": mvcc_reads,
        "backend_sst": backend_sst,
        "differential": differential,
        "backend_differential": backend_differential,
        "observability": observability,
    }


def write_bench_json(payload: dict[str, Any],
                     path: str | Path = "BENCH_gtm.json") -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=False)
                      + "\n", encoding="utf-8")
    return target


def render_summary(payload: dict[str, Any]) -> str:
    """Terminal one-pager of a BENCH_gtm.json payload."""
    conflict = payload["conflict_microbench"]
    pump = payload["pump_microbench"]
    hot = payload["hot_path"]
    throughput = payload["throughput"]
    differential = payload["differential"]
    lines = [
        f"profile: {payload['profile']}  "
        f"(python {payload['python']})",
        f"conflict test  ({conflict['holders']} holders, "
        f"{conflict['iterations']} iters): "
        f"reference {conflict['reference_s']:.4f}s, "
        f"bitmask {conflict['bitmask_s']:.4f}s  "
        f"-> {conflict['speedup']:.1f}x",
        f"unlock pump    ({pump['waiters']} waiters, "
        f"{pump['iterations']} pumps): "
        f"reference {pump['reference_pump_us']:.1f}us/pump, "
        f"bitmask {pump['bitmask_pump_us']:.1f}us/pump  "
        f"-> {pump['speedup']:.1f}x",
        f"hot path combined: {hot['speedup']:.1f}x "
        f"({hot['reference_s']:.4f}s -> {hot['optimized_s']:.4f}s)",
    ]
    for run in throughput["variants"]:
        lines.append(
            f"throughput [{run['engine']}]: "
            f"{run['ops_per_sec']:.0f} ops/s, grant p50 "
            f"{run['grant_latency_p50_us']:.1f}us p99 "
            f"{run['grant_latency_p99_us']:.1f}us")
    lines.append(
        f"outcomes identical across engines: "
        f"{throughput['outcomes_identical']}")
    episodes = payload.get("episode_throughput")
    if episodes:
        for tier_row in episodes["tiers"]:
            rates = ", ".join(
                f"{v['label']} {v['episodes_per_sec']:.0f}"
                for v in tier_row["variants"])
            lines.append(
                f"episodes/sec [{tier_row['tier']}, "
                f"{tier_row['episodes']} eps]: {rates}  "
                f"(identical={tier_row['outcomes_identical']})")
    mvcc = payload.get("mvcc_reads")
    if mvcc:
        lines.append(
            f"mvcc reads [read-heavy, {mvcc['episodes']} eps]: "
            f"{mvcc['lock_free_reads']} "
            f"reads served lock-free, sim makespan "
            f"{mvcc['sim_makespan_locking_s']:.1f}s locking -> "
            f"{mvcc['sim_makespan_mvcc_s']:.1f}s mvcc, "
            f"{mvcc['mvcc_vs_locking_eps']:.2f}x eps/sec  "
            f"(dominates={mvcc['mvcc_dominates']})")
    backend_sst = payload.get("backend_sst")
    if backend_sst:
        for run in backend_sst["runs"]:
            lines.append(
                f"backend SST [{run['backend']}]: "
                f"{run['ssts_per_sec']:.0f} SSTs/s "
                f"({run['ssts']} SSTs in {run['elapsed_s']:.3f}s)")
        lines.append(
            f"backend final state identical: "
            f"{backend_sst['final_state_identical']}")
    lines.append(
        f"differential fuzz: "
        f"{differential['episodes_per_scheduler']} episodes x "
        f"{len(differential['schedulers'])} schedulers, "
        f"{differential['divergences']} divergence(s)")
    backend_diff = payload.get("backend_differential")
    if backend_diff:
        lines.append(
            f"backend differential (memory vs sqlite): "
            f"{backend_diff['episodes_per_scheduler']} episodes x "
            f"{len(backend_diff['schedulers'])} schedulers, "
            f"{backend_diff['divergences']} divergence(s)")
    obs = payload.get("observability")
    if obs:
        lines.append(
            f"observability [{obs['episodes']} episodes]: "
            f"{obs['baseline_s']:.2f}s off -> {obs['observed_s']:.2f}s on "
            f"({obs['overhead_pct']:+.1f}% overhead), digest-neutral="
            f"{obs['digests_identical']}")
    return "\n".join(lines)
