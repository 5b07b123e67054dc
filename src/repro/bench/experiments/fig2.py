"""Experiment E2 — paper Fig. 2: analytic abort percentage of
disconnected/sleeping transactions.

``P(abort) = P(d) · P(c) · P(i)`` swept over conflict percentage and
disconnection percentage, one family per incompatibility level, plus the
2PL timeout reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytic.series import Figure2Data, figure2_series
from repro.metrics.report import render_table


@dataclass(frozen=True)
class Fig2Config:
    """Grid of the Fig. 2 sweep."""

    disconnect_fractions: tuple[float, ...] = (0.1, 0.3, 0.5)
    incompat_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)


def run(config: Fig2Config | None = None) -> Figure2Data:
    config = config or Fig2Config()
    return figure2_series(
        disconnect_fractions=config.disconnect_fractions,
        incompat_fractions=config.incompat_fractions)


def render(data: Figure2Data) -> str:
    """Render the abort surfaces, one block per disconnection level."""
    blocks: list[str] = []
    for d in data.disconnect_fractions:
        headers = ["conflicts %"] + [
            f"i={100 * i:.0f}%" for i in data.incompat_fractions]
        base = data.ours[(d, data.incompat_fractions[0])]
        rows = []
        for index, x in enumerate(base.x):
            row: list[float] = [x]
            row.extend(data.ours[(d, i)].y[index]
                       for i in data.incompat_fractions)
            rows.append(row)
        blocks.append(render_table(
            headers, rows,
            title=(f"Fig. 2 — abort %% of sleeping transactions "
                   f"(disconnected = {100 * d:.0f}%)")))
    if data.twopl is not None:
        rows = list(zip(data.twopl.x, data.twopl.y))
        blocks.append(render_table(
            ["disconnected %", "abort %"], rows,
            title="2PL reference (sleep timeout always exceeded)"))
    return "\n\n".join(blocks)


def shape_checks(data: Figure2Data) -> dict[str, bool]:
    """The qualitative claims of the abort model.

    - the abort probability increases with each of d, c and i;
    - it is zero when any factor is zero;
    - the proposed scheme never aborts more sleepers than the 2PL
      timeout reference at the same disconnection level.
    """
    increasing_c = all(
        series.y[k] <= series.y[k + 1] + 1e-12
        for series in data.ours.values()
        for k in range(len(series.y) - 1))
    increasing_i = all(
        data.ours[(d, data.incompat_fractions[s])].y[k]
        <= data.ours[(d, data.incompat_fractions[s + 1])].y[k] + 1e-12
        for d in data.disconnect_fractions
        for s in range(len(data.incompat_fractions) - 1)
        for k in range(len(data.ours[(d, data.incompat_fractions[s])].y)))
    increasing_d = all(
        data.ours[(data.disconnect_fractions[s], i)].y[k]
        <= data.ours[(data.disconnect_fractions[s + 1], i)].y[k] + 1e-12
        for i in data.incompat_fractions
        for s in range(len(data.disconnect_fractions) - 1)
        for k in range(len(data.ours[(data.disconnect_fractions[s], i)].y)))
    zero_at_zero_conflicts = all(
        series.y[0] == 0.0 for series in data.ours.values()
        if series.x[0] == 0.0)
    below_twopl = True
    if data.twopl is not None:
        for index, d in enumerate(data.disconnect_fractions):
            reference = data.twopl.y[index]
            for i in data.incompat_fractions:
                if any(y > reference + 1e-12
                       for y in data.ours[(d, i)].y):
                    below_twopl = False
    return {
        "increasing_in_conflicts": increasing_c,
        "increasing_in_incompatibles": increasing_i,
        "increasing_in_disconnections": increasing_d,
        "zero_at_zero_conflicts": zero_at_zero_conflicts,
        "never_above_twopl_reference": below_twopl,
    }


def main() -> str:
    data = run()
    text = render(data)
    checks = shape_checks(data)
    lines = [text, "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
