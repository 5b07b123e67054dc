"""Experiment E1 — paper Fig. 1: analytic average execution time.

Regenerates the Fig. 1 curves: 2PL (Eq. 3) against the proposed model
(Eq. 5) as the number of conflicts and the number of not-compatible
operations vary, with τ_e = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytic.series import Figure1Data, figure1_series
from repro.metrics.report import render_table


@dataclass(frozen=True)
class Fig1Config:
    """Grid of the Fig. 1 sweep."""

    n: int = 100
    tau_e: float = 1.0
    incompat_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)


def run(config: Fig1Config | None = None) -> Figure1Data:
    """Compute every Fig. 1 curve."""
    config = config or Fig1Config()
    return figure1_series(n=config.n, tau_e=config.tau_e,
                          incompat_fractions=config.incompat_fractions)


def render(data: Figure1Data) -> str:
    """Render the curves as the table the figure plots."""
    headers = ["conflicts %", data.twopl.label] + \
        [series.label for series in data.ours]
    rows = []
    for index, x in enumerate(data.twopl.x):
        row = [x, data.twopl.y[index]]
        row.extend(series.y[index] for series in data.ours)
        rows.append(row)
    return render_table(
        headers, rows,
        title=(f"Fig. 1 — average transaction execution time "
               f"(tau_e={data.tau_e}, n={data.n})"))


def shape_checks(data: Figure1Data) -> dict[str, bool]:
    """The qualitative claims of Section VI-A, as booleans.

    - 2PL grows linearly with conflicts and ignores incompatibilities;
    - the proposed model never exceeds 2PL;
    - it increases with both conflicts and incompatibilities;
    - at i=0 it stays at the ideal τ_e; at i=100% it equals 2PL;
    - the best case (c=100%, i=0) gains 0.5·τ_e.
    """
    twopl = data.twopl.y
    deltas = [twopl[k + 1] - twopl[k] for k in range(len(twopl) - 1)]
    linear = all(abs(d - deltas[0]) < 1e-9 for d in deltas)
    ours_sorted = data.ours
    never_above = all(y <= t + 1e-9
                      for series in ours_sorted
                      for y, t in zip(series.y, twopl))
    monotone_c = all(series.y[k] <= series.y[k + 1] + 1e-9
                     for series in ours_sorted
                     for k in range(len(series.y) - 1))
    monotone_i = all(
        ours_sorted[s].y[k] <= ours_sorted[s + 1].y[k] + 1e-9
        for s in range(len(ours_sorted) - 1)
        for k in range(len(ours_sorted[s].y)))
    ideal_at_zero = all(abs(y - data.tau_e) < 1e-9
                        for y in ours_sorted[0].y)
    equals_twopl_at_full = all(
        abs(y - t) < 1e-9
        for y, t in zip(ours_sorted[-1].y, twopl))
    best_gain = twopl[-1] - ours_sorted[0].y[-1]
    return {
        "twopl_linear_in_conflicts": linear,
        "ours_never_above_twopl": never_above,
        "ours_monotone_in_conflicts": monotone_c,
        "ours_monotone_in_incompatibles": monotone_i,
        "ours_ideal_at_zero_incompatibles": ideal_at_zero,
        "ours_equals_twopl_at_full_incompatibles": equals_twopl_at_full,
        "best_case_gain_half_tau": abs(best_gain - 0.5 * data.tau_e) < 1e-9,
    }


def main() -> str:
    data = run()
    text = render(data)
    checks = shape_checks(data)
    lines = [text, "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
