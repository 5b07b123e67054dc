"""Cross-validation: the Section VI-A model vs the Section VI-B emulation.

The paper presents its closed-form model (Eq. 3-5) and its emulation as
separate exhibits; this experiment checks they actually agree.

Mapping the emulation onto the model's variables: with the paper's
workload, two transactions that meet on the same object are compatible
iff both are subtractions, so the *incompatibility fraction* of Eq. 5 is

    i/n = 1 − α²

(and the disconnected-β axis is held at 0 so sleeping plays no role).
The model then predicts the GTM's *relative advantage* over 2PL,

    advantage(α) = τ_2PL(c) / τ_our(c, i=(1−α²)·n),

to be increasing in α.  We measure the same advantage in the emulation
(ratio of mean execution times) across an α grid and report:

- both series' monotonicity in α;
- their rank correlation (Spearman), which should be strongly positive;
- the normalized-advantage correlation (Pearson on ranks is enough for
  shape agreement — absolute magnitudes differ because the emulation's
  queueing amplifies waiting beyond the model's single-conflict
  assumption, which the paper itself notes by ignoring "multiple
  conflicts").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analytic.model import our_execution_time, twopl_execution_time
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
class ModelFitConfig:
    n_transactions: int = 400
    alphas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    #: model grid size and assumed conflict fraction (full contention:
    #: the emulation's 0.5 s inter-arrival against multi-second service
    #: times keeps objects continuously contended).
    model_n: int = 100
    conflict_fraction: float = 1.0
    seed: int = 2008


@dataclass
class ModelFitPoint:
    alpha: float
    predicted_advantage: float
    measured_advantage: float


@dataclass
class ModelFitData:
    points: list[ModelFitPoint] = field(default_factory=list)
    spearman: float = 0.0


def _rankdata(values: list[float]) -> np.ndarray:
    """Ranks with ties averaged (midrank convention)."""
    array = np.asarray(values, dtype=float)
    order = np.argsort(array)
    ranks = np.empty(len(array))
    ranks[order] = np.arange(1, len(array) + 1)
    for value in np.unique(array):
        mask = array == value
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
    return ranks


def spearman_correlation(a: list[float], b: list[float]) -> float:
    """Spearman rank correlation (numpy-only)."""
    ranks_a = _rankdata(a)
    ranks_b = _rankdata(b)
    if np.std(ranks_a) == 0 or np.std(ranks_b) == 0:
        return 0.0
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def predicted_advantage(alpha: float, n: int,
                        conflict_fraction: float) -> float:
    """τ_2PL / τ_our with i/n = 1 − α² (see the module docstring)."""
    c = round(conflict_fraction * n)
    i = round((1.0 - alpha ** 2) * n)
    return (twopl_execution_time(c, n=n)
            / our_execution_time(c, i, n=n))


def _measure_alpha(config: ModelFitConfig, alpha: float) -> float:
    """The emulation's measured advantage at one alpha grid point."""
    generated = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=config.n_transactions, alpha=alpha,
        beta=0.0, seed=config.seed))
    gtm = GTMScheduler(GTMSchedulerConfig()).run(generated.workload)
    twopl = two_phase_locking().run(
        generated.workload)
    return (twopl.stats.avg_execution_time
            / max(gtm.stats.avg_execution_time, 1e-9))


def run(config: ModelFitConfig | None = None) -> ModelFitData:
    config = config or ModelFitConfig()
    data = ModelFitData()
    for alpha in config.alphas:
        data.points.append(ModelFitPoint(
            alpha=alpha,
            predicted_advantage=predicted_advantage(
                alpha, config.model_n, config.conflict_fraction),
            measured_advantage=_measure_alpha(config, alpha),
        ))
    data.spearman = spearman_correlation(
        [p.predicted_advantage for p in data.points],
        [p.measured_advantage for p in data.points])
    return data


def render(data: ModelFitData) -> str:
    rows = [[p.alpha, round(p.predicted_advantage, 3),
             round(p.measured_advantage, 3)] for p in data.points]
    table = render_table(
        ["alpha", "model advantage (tau ratio)",
         "emulation advantage (exec ratio)"],
        rows,
        title="Model (Eq. 5, i = 1 - alpha^2) vs emulation — GTM "
              "advantage over 2PL")
    return f"{table}\n\nSpearman rank correlation: {data.spearman:.3f}"


def shape_checks(data: ModelFitData) -> dict[str, bool]:
    predicted = [p.predicted_advantage for p in data.points]
    measured = [p.measured_advantage for p in data.points]
    return {
        "model_monotone_in_alpha": all(
            predicted[k] <= predicted[k + 1] + 1e-12
            for k in range(len(predicted) - 1)),
        "emulation_monotone_in_alpha": all(
            measured[k] <= measured[k + 1] * 1.1
            for k in range(len(measured) - 1)),
        "strong_rank_agreement": data.spearman >= 0.8,
        "both_always_at_least_one": all(v >= 1.0 - 1e-9
                                        for v in predicted + measured),
    }


def main() -> str:
    data = run()
    checks = shape_checks(data)
    lines = [render(data), "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
