"""Throughput under offered load — an extension experiment.

The paper evaluates latency (Fig. 3 left) and aborts (Fig. 3 right); a
natural third axis for a concurrency-control scheme is *sustained
throughput as offered load grows*.  This experiment sweeps the
inter-arrival time (load = 1/interarrival per object set) and measures
committed transactions per simulated second for the GTM, strict 2PL
and the freeze-optimistic baseline on the paper's workload.

Expected shape: all three track the offered load while under-saturated;
2PL saturates first (every write serializes per object); the GTM keeps
tracking it until much higher load because compatible operations share
objects; the no-lock optimistic baseline is the upper envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.report import render_table
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    OptimisticScheduler,
    two_phase_locking,
)
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)


@dataclass(frozen=True)
class ThroughputConfig:
    n_transactions: int = 400
    alpha: float = 0.7
    beta: float = 0.05
    seed: int = 2008
    #: swept inter-arrival times (s); offered load = 1/interarrival.
    interarrivals: tuple[float, ...] = (4.0, 2.0, 1.0, 0.5, 0.25, 0.125)


@dataclass
class ThroughputPoint:
    interarrival: float
    offered_load: float
    gtm: float
    twopl: float
    optimistic: float


@dataclass
class ThroughputData:
    points: list[ThroughputPoint] = field(default_factory=list)
    config: ThroughputConfig | None = None


def _load_point(config: ThroughputConfig,
                interarrival: float) -> ThroughputPoint:
    """One offered-load grid point: all three schedulers, one seed."""
    generated = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=config.n_transactions, alpha=config.alpha,
        beta=config.beta, interarrival=interarrival,
        seed=config.seed))
    gtm = GTMScheduler(GTMSchedulerConfig()).run(generated.workload)
    twopl = two_phase_locking().run(
        generated.workload)
    optimistic = OptimisticScheduler().run(generated.workload)
    return ThroughputPoint(
        interarrival=interarrival,
        offered_load=1.0 / interarrival,
        gtm=gtm.stats.throughput,
        twopl=twopl.stats.throughput,
        optimistic=optimistic.stats.throughput,
    )


def run(config: ThroughputConfig | None = None) -> ThroughputData:
    config = config or ThroughputConfig()
    data = ThroughputData(config=config)
    data.points = [_load_point(config, interarrival)
                   for interarrival in config.interarrivals]
    return data


def render(data: ThroughputData) -> str:
    rows = [[p.interarrival, round(p.offered_load, 3), round(p.gtm, 3),
             round(p.twopl, 3), round(p.optimistic, 3)]
            for p in data.points]
    return render_table(
        ["interarrival (s)", "offered (txn/s)", "GTM (txn/s)",
         "2PL (txn/s)", "optimistic (txn/s)"],
        rows,
        title="Throughput vs offered load (committed txn per simulated "
              "second)")


def shape_checks(data: ThroughputData) -> dict[str, bool]:
    """The expected saturation ordering.

    - every scheduler's throughput is monotone non-decreasing in load
      (up to 10% noise);
    - at the highest load, GTM ≥ 2PL (it saturates later);
    - the optimistic envelope is never materially below the GTM.
    """
    def roughly_monotone(series: list[float]) -> bool:
        return all(series[k + 1] >= series[k] * 0.9
                   for k in range(len(series) - 1))

    gtm = [p.gtm for p in data.points]
    twopl = [p.twopl for p in data.points]
    optimistic = [p.optimistic for p in data.points]
    last = data.points[-1]
    return {
        "gtm_monotone": roughly_monotone(gtm),
        "optimistic_monotone": roughly_monotone(optimistic),
        "gtm_beats_twopl_at_saturation": last.gtm >= last.twopl,
        "optimistic_envelope": all(
            p.optimistic >= p.gtm * 0.95 for p in data.points),
        "gtm_tracks_load_longer": (last.gtm / max(last.twopl, 1e-9)) >= 1.2,
    }


def main() -> str:
    data = run()
    checks = shape_checks(data)
    lines = [render(data), "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
