"""The Section VI-B workload itself: the 15 generated classes.

"we have automatically generated 15 classes of transactions considering
α (1 − α) as probability that a transaction performs a subtraction
(assignment) operation, β as disconnections probability ... Each class
is described by: C = ⟨T, op, X, η⟩"

This experiment regenerates the class table for the paper's operating
point (α = 0.7, β = 0.05) and prints each class's population |T|,
verifying the class structure the paper describes: 5 objects × the
three kinds (subtraction-connected, subtraction-disconnected,
assignment), with the populations tracking α·(1−β), α·β and 1−α.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.report import render_table
from repro.workload.generator import (
    GeneratedWorkload,
    PaperWorkloadConfig,
    generate_paper_workload,
)


@dataclass(frozen=True)
class CensusConfig:
    n_transactions: int = 1000
    alpha: float = 0.7
    beta: float = 0.05
    seed: int = 2008


def run(config: CensusConfig | None = None) -> GeneratedWorkload:
    config = config or CensusConfig()
    return generate_paper_workload(PaperWorkloadConfig(
        n_transactions=config.n_transactions, alpha=config.alpha,
        beta=config.beta, seed=config.seed))


def render(generated: GeneratedWorkload) -> str:
    config = generated.config
    rows = []
    for cls in generated.classes:
        rows.append([
            f"C{cls.class_id}",
            cls.object_name,
            cls.kind,
            "yes" if cls.disconnects else "no",
            generated.census.get(cls.class_id, 0),
        ])
    table = render_table(
        ["class", "object (X)", "operation (op)", "disconnects (eta)",
         "|T|"],
        rows,
        title=(f"The 15 generated classes, C = <T, op, X, eta> "
               f"(n={config.n_transactions}, alpha={config.alpha}, "
               f"beta={config.beta})"))
    total = sum(generated.census.values())
    return f"{table}\n\ntotal transactions: {total}"


def shape_checks(generated: GeneratedWorkload) -> dict[str, bool]:
    config = generated.config
    n = config.n_transactions
    by_kind: dict[str, int] = {}
    for cls in generated.classes:
        by_kind[cls.kind] = by_kind.get(cls.kind, 0) + \
            generated.census.get(cls.class_id, 0)
    subtraction = by_kind.get("subtraction", 0) + \
        by_kind.get("subtraction-disconnected", 0)
    assignment = by_kind.get("assignment", 0)
    disconnected = by_kind.get("subtraction-disconnected", 0)
    return {
        "fifteen_classes": len(generated.classes) == 15,
        "census_covers_all": sum(generated.census.values()) == n,
        "alpha_respected": abs(subtraction / n - config.alpha) < 0.05,
        "assignments_complement": abs(
            assignment / n - (1 - config.alpha)) < 0.05,
        "beta_respected": (
            abs(disconnected / max(subtraction, 1) - config.beta)
            < 0.03),
        "every_object_used": all(
            sum(generated.census.get(c.class_id, 0)
                for c in generated.classes
                if c.object_name == name) > 0
            for name in {c.object_name for c in generated.classes}),
    }


def main() -> str:
    generated = run()
    checks = shape_checks(generated)
    lines = [render(generated), "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
