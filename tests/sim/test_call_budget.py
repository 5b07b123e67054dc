"""A call budget for one simulated transaction, pinned like the hop budget.

Section VI-B's emulation is the repository's hottest loop and almost all
of its cost is interpreter frames, so the number of Python-level calls
one simulated transaction takes is the cheapest regression signal there
is: it is a property of the code path, repeats exactly from process to
process and under any ``PYTHONHASHSEED``, and needs no clock.

Counted by ``sys.setprofile`` (``"call"`` events: Python functions,
generator resumptions and comprehension frames; C functions are not
counted) over ``GTMScheduler().run`` of the paper workload at α 0.5,
β 0.3, seed 2008 — 1000 transactions, 2878 events (4306 while every
grant scheduled a wake and every global commit a commit-slot fire):

====================================================  =========
before PR 22 (``ScheduledEvent.__lt__`` in the heap)   356.4
PR 22, CPython 3.11                                     206.6
deadlock checks that skip the walks they rule out       197.3
no edge clearing on a fresh grant, reconcilers keyed    194.2
by class bit, Eq. 2 in integers
wait-for edges recorded through a ``ManagedObject``     195.6
mutator (1.19 waits per transaction), X_aborting
emptied through one (0.1 per transaction, two frames
more where it leaves the object idle)
no fire that wakes nobody (no wake for a grant made     153.7
in the requester's own invoke, no commit-slot fire
with nothing deferred: 1428 events fewer), the GTM's
clock read in C, no done signal, wake signal or
``CommitAction`` per transaction, the engine on its
clock's slot, a process's start and timers calling
its driver directly
one deadlock component: a wait or a finished            148.3
transaction reaches the wait-for graph with no
wrapper frame between, and the scheduler
subscribes to no global commit
``summarize`` reads a committed transaction's           147.4
execution time once (it read the property twice)
a request pays once: no tick around ``begin`` and       135.4
``apply``, no lookup frame under ``GTM.object``,
admission's pending test and Definition 1's member
test inline
one involved-object lookup: the commit pipeline         134.2
subscripts the lock table's dict (no
``LockTable.get`` frame per involved object), and
the facade's sleep, awake, abort and global commit
take the pipeline's list (no ``GTM.object`` frame
per object)
budget (215, lowered by 9.4, 3.1, 45.9, 5.4, 0.9,       137.1
12.0 and 1.2)
observed (``GTMSchedulerConfig(obs=True)``), 3.11       139.7
observed budget (220, lowered by 9.4, 3.1, 45.3, 5.4,   142.6
0.9, 12.1 and 1.2)
====================================================  =========

What a re-added level costs, in calls per transaction: one more frame
per *event* (a ``peek`` or ``step`` under ``run``, a ``schedule_at``
under ``schedule_after``, a handle compared in Python) is 2.9 — a
Python ``__lt__`` on the heap entry alone was 60 at 4306 events; one
more frame per *facade call* (a lookup helper such as
``LockTable.get`` under ``GTM.object``) is 4.2, per *ticked* facade
call (a second wrapper) 2.2, and the tick back on ``begin`` and
``apply`` 2.0; one more frame per *clock read* is 4.2 for the kernel's
reads and 2.9 for the engine's; a state test that is a call again
(``txn.is_in`` delegating to a second object) is about 8.  The budget
leaves room for one event frame, not for a facade frame.
CPython 3.12 inlines comprehensions and counts a few calls fewer.

The observed leg runs the same workload with :mod:`repro.obs` attached:
the observers ride the event bus, so they add calls, never events, and
the same 2878 events must be dispatched.  Its budget is the observers'
cost pinned the same way — a count, where a wall-clock overhead share
swung by more than the overhead itself from run to run.  A second
bus-fed interval tracker beside the timelines costs 15.6; a bus that
hands every observer every hook, overridden or not, 11.5 (and 8.0
unobserved); either fails it.
"""

import sys

from repro.schedulers import GTMScheduler, GTMSchedulerConfig
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)

TRANSACTIONS = 1000
CALLS_PER_TRANSACTION_BUDGET = 137.1
OBSERVED_CALLS_PER_TRANSACTION_BUDGET = 142.6


def _counted_run(workload, config=None):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    scheduler = GTMScheduler(config)
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = scheduler.run(workload)
    finally:
        sys.setprofile(previous)
    return calls, result


def _calls_per_transaction(config=None):
    workload = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=TRANSACTIONS, alpha=0.5, beta=0.3,
        seed=2008)).workload
    GTMScheduler(config).run(workload)  # warm: imports, hook caches
    calls, result = _counted_run(workload, config)
    # fewer events, the same schedule: a fire that would wake nobody is
    # not scheduled (4306 when each was), and every GTM call keeps its
    # virtual instant and its order
    assert result.extra["events_dispatched"] == 2878
    assert result.stats.total == TRANSACTIONS
    return calls / TRANSACTIONS


def test_a_simulated_transaction_stays_inside_its_call_budget():
    per_transaction = _calls_per_transaction()
    assert per_transaction <= CALLS_PER_TRANSACTION_BUDGET, (
        f"{per_transaction:.1f} Python-level calls per simulated "
        f"transaction, budget {CALLS_PER_TRANSACTION_BUDGET:.1f}: "
        f"see this module's docstring for what each re-added level costs")


def test_an_observed_transaction_stays_inside_its_call_budget():
    per_transaction = _calls_per_transaction(GTMSchedulerConfig(obs=True))
    assert per_transaction <= OBSERVED_CALLS_PER_TRANSACTION_BUDGET, (
        f"{per_transaction:.1f} Python-level calls per observed "
        f"transaction, budget "
        f"{OBSERVED_CALLS_PER_TRANSACTION_BUDGET:.1f}: see this module's "
        f"docstring for what each re-added level costs")
