"""Experiments E3/E4 — paper Fig. 3: emulated GTM performance.

The Section VI-B emulation: 1000 transactions over 5 objects, 15 classes,
inter-arrival 0.5 s.

- **left panel (E3)**: average execution time per transaction as α
  (subtraction probability) varies, β = 0.05 fixed — GTM vs 2PL;
- **right panel (E4)**: abort percentage as β (disconnection
  probability) varies, α = 0.7 fixed — GTM vs 2PL.

``n_transactions`` is configurable so the pytest benchmark can run a
scaled-down grid quickly; ``python -m repro.bench fig3`` uses the paper's
full 1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.report import render_table
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    TwoPLScheduler,
    TwoPLSchedulerConfig,
)
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)


@dataclass(frozen=True)
class Fig3Config:
    """Sweep grid of the Fig. 3 emulation."""

    n_transactions: int = 1000
    alphas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    betas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3)
    fixed_beta: float = 0.05
    fixed_alpha: float = 0.7
    seed: int = 2008
    #: repetitions per grid point (different seeds, averaged).
    repetitions: int = 1


@dataclass
class SweepPoint:
    """One grid point of a sweep: both schedulers' headline numbers."""

    x: float
    gtm_exec: float
    twopl_exec: float
    gtm_abort_pct: float
    twopl_abort_pct: float


@dataclass
class Fig3Data:
    """Both panels of Fig. 3."""

    alpha_sweep: list[SweepPoint] = field(default_factory=list)
    beta_sweep: list[SweepPoint] = field(default_factory=list)
    config: Fig3Config | None = None


def _run_point(alpha: float, beta: float, n: int, seed: int,
               repetitions: int) -> SweepPoint:
    gtm_exec = twopl_exec = gtm_abort = twopl_abort = 0.0
    for repeat in range(repetitions):
        workload_config = PaperWorkloadConfig(
            n_transactions=n, alpha=alpha, beta=beta,
            seed=seed + 7919 * repeat)
        generated = generate_paper_workload(workload_config)
        gtm_result = GTMScheduler(GTMSchedulerConfig()).run(
            generated.workload)
        twopl_result = TwoPLScheduler(TwoPLSchedulerConfig()).run(
            generated.workload)
        gtm_exec += gtm_result.stats.avg_execution_time
        twopl_exec += twopl_result.stats.avg_execution_time
        gtm_abort += gtm_result.stats.abort_percentage
        twopl_abort += twopl_result.stats.abort_percentage
    scale = float(repetitions)
    return SweepPoint(
        x=0.0,  # caller fills the axis value
        gtm_exec=gtm_exec / scale,
        twopl_exec=twopl_exec / scale,
        gtm_abort_pct=gtm_abort / scale,
        twopl_abort_pct=twopl_abort / scale,
    )


def run(config: Fig3Config | None = None) -> Fig3Data:
    """Run both sweeps of the Fig. 3 emulation."""
    config = config or Fig3Config()
    data = Fig3Data(config=config)
    for alpha in config.alphas:
        point = _run_point(alpha, config.fixed_beta, config.n_transactions,
                           config.seed, config.repetitions)
        point.x = alpha
        data.alpha_sweep.append(point)
    for beta in config.betas:
        point = _run_point(config.fixed_alpha, beta, config.n_transactions,
                           config.seed, config.repetitions)
        point.x = beta
        data.beta_sweep.append(point)
    return data


def render(data: Fig3Data) -> str:
    config = data.config or Fig3Config()
    left_rows = [
        [p.x, p.gtm_exec, p.twopl_exec,
         p.twopl_exec / p.gtm_exec if p.gtm_exec else float("nan")]
        for p in data.alpha_sweep]
    left = render_table(
        ["alpha", "GTM avg exec (s)", "2PL avg exec (s)", "2PL/GTM"],
        left_rows,
        title=(f"Fig. 3 (left) — avg execution time vs alpha "
               f"(beta={config.fixed_beta}, n={config.n_transactions})"))
    right_rows = [
        [p.x, p.gtm_abort_pct, p.twopl_abort_pct]
        for p in data.beta_sweep]
    right = render_table(
        ["beta", "GTM abort %", "2PL abort %"],
        right_rows,
        title=(f"Fig. 3 (right) — abort %% vs beta "
               f"(alpha={config.fixed_alpha}, n={config.n_transactions})"))
    return f"{left}\n\n{right}"


def shape_checks(data: Fig3Data) -> dict[str, bool]:
    """The qualitative claims of Section VI-B.

    - the GTM's average execution time stays below 2PL's at every α;
    - the GTM's advantage grows as α grows (more compatible operations);
    - abort percentages increase with β for both schemes;
    - the GTM aborts fewer transactions than 2PL at every β > 0.
    """
    exec_below = all(p.gtm_exec <= p.twopl_exec + 1e-9
                     for p in data.alpha_sweep)
    ratios = [p.twopl_exec / p.gtm_exec
              for p in data.alpha_sweep if p.gtm_exec > 0]
    advantage_grows = ratios[-1] >= ratios[0] - 1e-9 if ratios else False
    gtm_abort_increasing = all(
        data.beta_sweep[k].gtm_abort_pct
        <= data.beta_sweep[k + 1].gtm_abort_pct + 1.0
        for k in range(len(data.beta_sweep) - 1))
    twopl_abort_increasing = all(
        data.beta_sweep[k].twopl_abort_pct
        <= data.beta_sweep[k + 1].twopl_abort_pct + 1.0
        for k in range(len(data.beta_sweep) - 1))
    fewer_aborts = all(p.gtm_abort_pct <= p.twopl_abort_pct + 1e-9
                       for p in data.beta_sweep if p.x > 0)
    return {
        "gtm_exec_time_below_twopl": exec_below,
        "gtm_advantage_grows_with_alpha": advantage_grows,
        "gtm_aborts_increase_with_beta": gtm_abort_increasing,
        "twopl_aborts_increase_with_beta": twopl_abort_increasing,
        "gtm_aborts_fewer_than_twopl": fewer_aborts,
    }


def main() -> str:
    data = run()
    text = render(data)
    checks = shape_checks(data)
    lines = [text, "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
