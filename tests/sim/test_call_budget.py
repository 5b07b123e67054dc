"""A call budget for one simulated transaction, pinned like the hop budget.

Section VI-B's emulation is the repository's hottest loop and almost all
of its cost is interpreter frames, so the number of Python-level calls
one simulated transaction takes is the cheapest regression signal there
is: it is a property of the code path, repeats exactly from process to
process and under any ``PYTHONHASHSEED``, and needs no clock.

Counted by ``sys.setprofile`` (``"call"`` events: Python functions,
generator resumptions and comprehension frames; C functions are not
counted) over ``GTMScheduler().run`` of the paper workload at α 0.5,
β 0.3, seed 2008 — 1000 transactions, 4306 events:

====================================================  =========
before PR 22 (``ScheduledEvent.__lt__`` in the heap)   356.4
PR 22, CPython 3.11                                     206.6
budget                                                  215
====================================================  =========

What a re-added level costs, in calls per transaction: one more frame
per *event* (a ``peek`` or ``step`` under ``run``, a ``schedule_at``
under ``schedule_after``, a handle compared in Python) is 4.3 — a
Python ``__lt__`` on the heap entry alone is 60; one more frame per
*facade call* (a second wrapper, a lookup helper) is 4.2; one more frame
per *clock read* is 4.2 for the kernel's reads and 4.3 for the engine's;
a state test that is a call again (``txn.is_in`` delegating to a second
object) is about 8.  The budget leaves room for one of these, not two.
CPython 3.12 inlines comprehensions and counts a few calls fewer.
"""

import sys

from repro.schedulers import GTMScheduler
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)

TRANSACTIONS = 1000
CALLS_PER_TRANSACTION_BUDGET = 215.0


def _counted_run(workload):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    scheduler = GTMScheduler()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = scheduler.run(workload)
    finally:
        sys.setprofile(previous)
    return calls, result


def test_a_simulated_transaction_stays_inside_its_call_budget():
    workload = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=TRANSACTIONS, alpha=0.5, beta=0.3,
        seed=2008)).workload
    GTMScheduler().run(workload)  # warm: imports, per-class hook caches
    calls, result = _counted_run(workload)
    # events got cheaper, not fewer: the schedule itself is untouched
    assert result.extra["events_dispatched"] == 4306
    assert result.stats.total == TRANSACTIONS
    per_transaction = calls / TRANSACTIONS
    assert per_transaction <= CALLS_PER_TRANSACTION_BUDGET, (
        f"{per_transaction:.1f} Python-level calls per simulated "
        f"transaction, budget {CALLS_PER_TRANSACTION_BUDGET:.0f}: "
        f"see this module's docstring for what each re-added level costs")
