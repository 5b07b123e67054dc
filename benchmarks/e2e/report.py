"""Sample statistics, and the comparison of two benchmark reports.

A report (written by ``run.py``) holds one or more *sets*; a set holds
one result per workload.  ``compare`` judges report B against report A
per workload × end-to-end metric with the bounds fixed in
``BENCHMARK.json``; ``agree`` applies the acceptance rule for two
reports of the *same* code.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Iterator

#: paper_emulation metrics read off the virtual clock: they repeat
#: exactly for a seed, so any difference is a change of behaviour.
VIRTUAL = {("paper_emulation", "committed_share"),
           ("paper_emulation", "commit_latency_p50_ms"),
           ("paper_emulation", "within_limit_share")}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (q in [0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worsening(metric: dict[str, Any], base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative = better)."""
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def series(report: dict[str, Any], workload: str,
           metric: str) -> list[float]:
    """One end-to-end metric of one workload, across the report's sets."""
    return [run_set[workload]["end_to_end"][metric]["value"]
            for run_set in report["sets"] if workload in run_set]


def _pairs(benchmark: dict[str, Any], a: dict[str, Any],
           b: dict[str, Any]) -> Iterator[tuple]:
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            left = series(a, workload["name"], metric["name"])
            right = series(b, workload["name"], metric["name"])
            if left and right:
                yield workload["name"], metric, left, right


def compare(benchmark: dict[str, Any], a: dict[str, Any],
            b: dict[str, Any]) -> list[dict[str, Any]]:
    """Verdict of B against A for every workload × end-to-end metric.

    ``worse``/``better``: the medians differ by more than the bound.
    ``unresolved``: either side's run-to-run spread exceeds the bound
    and the two sides' values overlap, so the medians prove nothing.
    On the virtual-clock metrics any difference is ``behaviour changed``.
    """
    rows = []
    for workload, metric, left, right in _pairs(benchmark, a, b):
        base, new = statistics.median(left), statistics.median(right)
        worse_by = worsening(metric, base, new)
        noisy = max(spread(left), spread(right)) > metric["bound"]
        overlap = min(left) <= max(right) and min(right) <= max(left)
        if (workload, metric["name"]) in VIRTUAL:
            verdict = "same" if base == new else "behaviour changed"
        elif noisy and overlap:
            verdict = "unresolved"
        elif worse_by > metric["bound"]:
            verdict = "worse"
        elif worse_by < -metric["bound"]:
            verdict = "better"
        else:
            verdict = "same"
        rows.append({
            "workload": workload, "metric": metric["name"],
            "unit": metric["unit"], "a_median": base, "b_median": new,
            "a_spread": spread(left), "b_spread": spread(right),
            "worse_by": worse_by, "bound": metric["bound"],
            "verdict": verdict})
    return rows


def agree(benchmark: dict[str, Any], a: dict[str, Any],
          b: dict[str, Any]) -> list[str]:
    """Problems that keep two reports of the same code from agreeing.

    The driver's rule: each side's spread must stay within the
    metric's bound (``setup_s`` is exempt: it is bounded on its median
    only) and B's median must not be worse than A's by more than the
    bound.
    """
    problems = []
    for workload, metric, left, right in _pairs(benchmark, a, b):
        name, bound = metric["name"], metric["bound"]
        if name != "setup_s":
            for side, values in (("A", left), ("B", right)):
                if spread(values) > bound:
                    problems.append(
                        f"{workload} {name}: spread of {side} "
                        f"{spread(values):.3f} exceeds {bound}")
        worse_by = worsening(metric, statistics.median(left),
                             statistics.median(right))
        if worse_by > bound:
            problems.append(
                f"{workload} {name}: B is worse than A by "
                f"{worse_by:.3f}, bound {bound}")
        if ((workload, name) in VIRTUAL and _same_seeds(a, b)
                and len(set(left + right)) > 1):
            problems.append(
                f"{workload} {name}: virtual-clock values differ "
                f"between runs of one seed")
    return problems


def _same_seeds(a: dict[str, Any], b: dict[str, Any]) -> bool:
    seeds = {run_set["seed"] for report in (a, b)
             for run_set in report["sets"]}
    return len(seeds) == 1
