"""Experiment E5 — paper Table I: the class-compatibility matrix.

Regenerates Table I from the library's single source of truth
(:data:`repro.core.compatibility.DEFAULT_MATRIX`) and checks it against
the table as printed in the paper.
"""

from __future__ import annotations

from repro.core.compatibility import DEFAULT_MATRIX, CompatibilityMatrix
from repro.core.opclass import OperationClass
from repro.metrics.report import render_table

#: Table I as printed, normalized: class -> classes it is compatible
#: with (symmetric closure with the stricter READ×INSERT/DELETE reading;
#: see the compatibility module docstring).
PAPER_TABLE_I: dict[OperationClass, frozenset[OperationClass]] = {
    OperationClass.READ: frozenset({
        OperationClass.READ,
        OperationClass.UPDATE_ASSIGN,
        OperationClass.UPDATE_ADDSUB,
        OperationClass.UPDATE_MULDIV,
    }),
    OperationClass.INSERT: frozenset(),
    OperationClass.DELETE: frozenset(),
    OperationClass.UPDATE_ASSIGN: frozenset({OperationClass.READ}),
    OperationClass.UPDATE_ADDSUB: frozenset({
        OperationClass.READ, OperationClass.UPDATE_ADDSUB}),
    OperationClass.UPDATE_MULDIV: frozenset({
        OperationClass.READ, OperationClass.UPDATE_MULDIV}),
}


def run(matrix: CompatibilityMatrix | None = None
        ) -> dict[OperationClass, frozenset[OperationClass]]:
    """Extract the matrix's compatibility sets per class."""
    matrix = matrix or DEFAULT_MATRIX
    return {op: matrix.compatible_with(op) for op in OperationClass}


def render(sets: dict[OperationClass, frozenset[OperationClass]]) -> str:
    headers = [""] + [op.value for op in OperationClass]
    rows = []
    for op in OperationClass:
        row = [op.value]
        row.extend("+" if other in sets[op] else "-"
                   for other in OperationClass)
        rows.append(row)
    return render_table(headers, rows,
                        title="Table I — class compatibilities "
                              "(+ compatible, - conflicting)")


def matches_paper(sets: dict[OperationClass, frozenset[OperationClass]]
                  ) -> bool:
    """True when the library matrix equals Table I."""
    return sets == PAPER_TABLE_I


def main() -> str:
    sets = run()
    status = "PASS" if matches_paper(sets) else "FAIL"
    return f"{render(sets)}\n\nmatches paper Table I: {status}"
