"""``paper_emulation``: Section VI-B in process, under the virtual clock.

``generate_paper_workload`` → ``GTMScheduler().run`` for every (α, β)
grid point, round after round until the measuring time is used up.  No
service, no wire, no SST: the kernel (``core``, ``sim``,
``schedulers``, ``mobile``) does all the work, so a wire or backend
optimisation must not move this workload.

Two clocks are reported.  Wall clock: simulated commits per second of
scheduler run.  Virtual clock: what the emulated mobile users see —
execution time and commit share, the paper's own Fig. 3 quantities —
taken from the first ``exact_rounds`` rounds only, so they repeat
exactly for a seed and change only when the protocol's behaviour does.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any

from repro.check.oracle import check_episode, record_gtm
from repro.metrics.collectors import Outcome
from repro.schedulers.gtm_scheduler import GTMScheduler
from repro.workload import generator

from e2e import yardstick
from e2e.trace import Tracer
from e2e.workloads import PAPER_EMULATION, episode_seed


@dataclass
class EmulationRun:
    """Raw outcome of one paper_emulation run."""

    generate_s: list[float] = field(default_factory=list)  # per round
    run_wall_s: float = 0.0
    run_cpu_s: float = 0.0
    window_s: float = 0.0
    #: the yardstick's kernel, timed after every episode.
    kernel_s: list[float] = field(default_factory=list)
    episodes: int = 0
    committed: int = 0
    total: int = 0
    unfinished: int = 0
    events_dispatched: int = 0
    # from the exact rounds only (virtual time):
    exact_total: int = 0
    exact_exec_s: list[float] = field(default_factory=list)
    exact_wait_s: list[float] = field(default_factory=list)
    exact_sleep_s: list[float] = field(default_factory=list)
    exact_makespan_s: list[float] = field(default_factory=list)
    oracle_s: float = 0.0
    orders_tried: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Box speed while the episodes ran (see yardstick.py)."""
        return yardstick.speed(self.kernel_s)


def run_emulation(seed: int, seconds: float,
                  tracer: Tracer | None) -> EmulationRun:
    spec = PAPER_EMULATION
    run = EmulationRun()
    if tracer is not None:
        tracer.enabled = True
    opened = perf_counter()
    deadline = opened + seconds
    round_index = 0
    while round_index < spec.exact_rounds or perf_counter() < deadline:
        exact = round_index < spec.exact_rounds
        started = perf_counter()
        workloads = [
            generator.generate_paper_workload(generator.PaperWorkloadConfig(
                n_transactions=spec.n_transactions, alpha=alpha, beta=beta,
                seed=episode_seed(seed, round_index, point))).workload
            for point, (alpha, beta) in enumerate(spec.grid)]
        run.generate_s.append(perf_counter() - started)

        for workload in workloads:
            scheduler = GTMScheduler()
            wall, cpu = perf_counter(), process_time()
            result = scheduler.run(workload)
            run.run_wall_s += perf_counter() - wall
            run.run_cpu_s += process_time() - cpu
            run.kernel_s.append(yardstick.kernel())
            stats = result.stats
            run.episodes += 1
            run.committed += stats.committed
            run.total += stats.total
            run.unfinished += stats.unfinished
            run.events_dispatched += int(result.extra["events_dispatched"])
            if exact:
                _record_exact(run, scheduler, result)
        round_index += 1
    run.window_s = perf_counter() - opened
    if tracer is not None:
        tracer.enabled = False
    if run.unfinished:
        run.problems.append(
            f"{run.unfinished} simulated transactions never finished")
    return run


def _record_exact(run: EmulationRun, scheduler: GTMScheduler,
                  result: Any) -> None:
    committed = [timeline
                 for timeline in result.collector.timelines.values()
                 if timeline.outcome is Outcome.COMMITTED]
    run.exact_total += result.stats.total
    run.exact_exec_s += [t.execution_time for t in committed]
    run.exact_wait_s += [t.wait_time for t in committed]
    run.exact_sleep_s += [t.sleep_time for t in committed]
    run.exact_makespan_s.append(result.stats.makespan)
    started = perf_counter()
    report = check_episode(record_gtm(scheduler.last_gtm))
    run.oracle_s += perf_counter() - started
    run.orders_tried += report.orders_tried
    if not report.serializable:
        run.problems.append("an episode is not serializable: "
                            + "; ".join(report.mismatches[:3]))


def end_to_end(run: EmulationRun) -> dict[str, float]:
    """Wall and CPU times are converted to the reference box's time
    (see yardstick.py); the virtual clock's are what they are."""
    return {
        "setup_s": statistics.median(run.generate_s) * run.speed,
        "commit_txn_per_s": run.committed / (run.run_wall_s * run.speed),
        "committed_share": len(run.exact_exec_s) / run.exact_total,
        # virtual milliseconds: arrival -> commit as the emulated user
        # sees it, disconnections included.
        "commit_latency_p50_ms":
            statistics.median(run.exact_exec_s) * 1000.0,
        "within_limit_share": sum(
            1 for seconds in run.exact_exec_s
            if seconds * 1000.0 <= PAPER_EMULATION.latency_limit_ms
        ) / run.exact_total,
        "cpu_ms_per_commit":
            run.run_cpu_s * 1000.0 * run.speed / run.committed,
    }


def per_layer(run: EmulationRun, tracer: Tracer) -> dict[str, Any]:
    virtual = end_to_end(run)
    return {
        # The virtual-clock outputs again, so that a traced and an
        # untraced run of one seed can be checked for identity.
        "sim.committed_share": virtual["committed_share"],
        "sim.commit_latency_p50_ms": virtual["commit_latency_p50_ms"],
        "sim.within_limit_share": virtual["within_limit_share"],
        "sim.events_dispatched": run.events_dispatched,
        "sim.episodes": run.episodes,
        "sim.avg_exec_time_s": statistics.fmean(run.exact_exec_s),
        "sim.abort_pct":
            100.0 * (1.0 - len(run.exact_exec_s) / run.exact_total),
        "sim.avg_wait_s": statistics.fmean(run.exact_wait_s),
        "sim.avg_sleep_s": statistics.fmean(run.exact_sleep_s),
        "sim.makespan_s": statistics.fmean(run.exact_makespan_s),
        "oracle.check_s": run.oracle_s,
        "oracle.orders_tried": run.orders_tried,
        "loadgen.yardstick_self_s": sum(run.kernel_s),
        "loadgen.machine_speed": run.speed,
        "trace.window_s": run.window_s,
        "trace.spans": tracer.span_count(),
        "trace.cpu_ms_per_commit": virtual["cpu_ms_per_commit"],
    }
