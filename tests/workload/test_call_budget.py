"""A call budget for one generated transaction of the paper's workload.

``generate_paper_workload`` is the set-up half of Section VI-B's
emulation (``paper_emulation``'s ``setup_s``).  Like the simulated
transaction's budget (``tests/sim/test_call_budget.py``), the number of
Python-level calls it spends per generated transaction is a property of
the code path: it repeats exactly from process to process and needs no
clock.

Counted by ``sys.setprofile`` (``"call"`` events; C functions are not
counted) over the generation of 1000 transactions at α 0.5, β 0.3,
seed 2008:

=====================================================  =====
one scalar numpy draw per transaction and stream        17.4
one bulk draw per stream, shared invocations             9.4
budget                                                  10.5
=====================================================  =====

What going back costs, in calls per transaction: a per-transaction
``rng.choice(n_objects, p=gamma)`` is 5.0 (numpy checks ``p`` again in
Python on every call); a fresh ``subtract(1)`` / ``assign(value)`` per
transaction is 3.0 (the shorthand, ``__init__`` and ``__post_init__``).
The budget leaves room for one more frame per transaction, not either
of these.
"""

import sys

from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)

TRANSACTIONS = 1000
CALLS_PER_TRANSACTION_BUDGET = 10.5


def _calls_per_generated_transaction():
    config = PaperWorkloadConfig(n_transactions=TRANSACTIONS, alpha=0.5,
                                 beta=0.3, seed=2008)
    generate_paper_workload(config)  # warm: imports, numpy caches
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        generated = generate_paper_workload(config)
    finally:
        sys.setprofile(previous)
    assert len(generated.workload) == TRANSACTIONS
    return calls / TRANSACTIONS


def test_a_generated_transaction_stays_inside_its_call_budget():
    per_transaction = _calls_per_generated_transaction()
    assert per_transaction <= CALLS_PER_TRANSACTION_BUDGET, (
        f"{per_transaction:.1f} Python-level calls per generated "
        f"transaction, budget {CALLS_PER_TRANSACTION_BUDGET:.1f}: see this "
        f"module's docstring for what each per-transaction draw costs")
