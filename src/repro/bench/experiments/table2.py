"""Experiment E6 — paper Table II: the reconciliation example trace.

Replays the exact schedule of Table II — two transactions A (+1, then
+3) and B (+2) on one object starting at 100 — through the real GTM and
records the same columns the paper tabulates at every step:

======  ======  ===========  ======  ======  =====  ======  ======  =====
A code  B code  X_permanent  X_r^A   A_temp  X_n^A  X_r^B   B_temp  X_n^B
======  ======  ===========  ======  ======  =====  ======  ======  =====

The expected final states are 104 after A's commit and 106 after B's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add
from repro.metrics.report import render_table

#: The paper's expected rows: (A code, B code, permanent, X_read^A,
#: A_temp, X_new^A, X_read^B, B_temp, X_new^B); None renders as "-".
PAPER_ROWS: tuple[tuple[Any, ...], ...] = (
    ("begin",      "-",          100, None, None, None, None, None, None),
    ("read X",     "begin",      100, 100,  100,  None, None, None, None),
    ("X = X+1",    "read X",     100, 100,  100,  None, 100,  100,  None),
    ("write X",    "X=X+2",      100, 100,  101,  None, 100,  100,  None),
    ("X = X+3",    "write X",    100, 100,  101,  None, 100,  102,  None),
    ("write X",    "-",          100, 100,  104,  None, 100,  102,  None),
    ("req commit", "-",          100, 100,  104,  104,  100,  102,  None),
    ("commit",     "req commit", 104, None, None, None, 100,  102,  106),
    ("-",          "commit",     106, None, None, None, None, None, None),
)


@dataclass
class TraceRow:
    """One observed row of the replayed Table II."""

    a_code: str
    b_code: str
    permanent: Any
    a_read: Any
    a_temp: Any
    a_new: Any
    b_read: Any
    b_temp: Any
    b_new: Any

    def as_tuple(self) -> tuple[Any, ...]:
        return (self.a_code, self.b_code, self.permanent, self.a_read,
                self.a_temp, self.a_new, self.b_read, self.b_temp,
                self.b_new)


@dataclass
class Table2Result:
    """The replayed trace plus the comparison verdict."""

    rows: list[TraceRow] = field(default_factory=list)
    matches_paper: bool = False


def _snapshot(gtm: GlobalTransactionManager, a_code: str,
              b_code: str) -> TraceRow:
    obj = gtm.object("X")

    def temp(txn_id: str) -> Any:
        txn = gtm.transactions.get(txn_id)
        if txn is None:
            return None
        return txn.temp.get(("X", "value"))

    def new(txn_id: str) -> Any:
        values = obj.new.get(txn_id)
        return None if values is None else values.get("value")

    def snap(txn_id: str) -> Any:
        values = obj.read.get(txn_id)
        return None if values is None else values.get("value")

    return TraceRow(
        a_code=a_code, b_code=b_code,
        permanent=obj.permanent_value(),
        a_read=snap("A"), a_temp=temp("A"), a_new=new("A"),
        b_read=snap("B"), b_temp=temp("B"), b_new=new("B"),
    )


def run() -> Table2Result:
    """Replay the Table II schedule against the real GTM."""
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=100)
    result = Table2Result()

    gtm.begin("A")
    result.rows.append(_snapshot(gtm, "begin", "-"))

    gtm.invoke("A", "X", add(1))          # A's grant snapshots X_read/A_temp
    gtm.begin("B")
    result.rows.append(_snapshot(gtm, "read X", "begin"))

    gtm.invoke("B", "X", add(2))          # B's grant (compatible: add/sub)
    result.rows.append(_snapshot(gtm, "X = X+1", "read X"))

    gtm.apply("A", "X", add(1))           # A writes its virtual copy
    result.rows.append(_snapshot(gtm, "write X", "X=X+2"))

    gtm.apply("B", "X", add(2))           # B writes its virtual copy
    result.rows.append(_snapshot(gtm, "X = X+3", "write X"))

    gtm.apply("A", "X", add(3))
    result.rows.append(_snapshot(gtm, "write X", "-"))

    gtm.local_commit("A", "X")            # A req commit: X_new^A staged
    result.rows.append(_snapshot(gtm, "req commit", "-"))

    gtm.global_commit("A")                # A commit: permanent = 104
    gtm.local_commit("B", "X")            # B req commit: reconciles to 106
    result.rows.append(_snapshot(gtm, "commit", "req commit"))

    gtm.global_commit("B")                # B commit: permanent = 106
    result.rows.append(_snapshot(gtm, "-", "commit"))

    observed = tuple(row.as_tuple() for row in result.rows)
    result.matches_paper = observed == PAPER_ROWS
    return result


def render(result: Table2Result) -> str:
    headers = ["A code", "B code", "X_perm", "Xr^A", "A_temp", "Xn^A",
               "Xr^B", "B_temp", "Xn^B"]
    rows = [["-" if cell is None else cell for cell in row.as_tuple()]
            for row in result.rows]
    verdict = "PASS" if result.matches_paper else "FAIL"
    table = render_table(headers, rows,
                         title="Table II — reconciliation example")
    return f"{table}\n\nmatches paper Table II: {verdict}"


def main() -> str:
    return render(run())
