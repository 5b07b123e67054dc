"""Final-state serializability oracle.

Section V claims the GTM's schedules are serializable with the global
commit order as the witness serial order.  The oracle checks exactly
that claim: record every committed transaction's applied operations and
the concurrent final state, re-execute the transactions **serially in
commit order** (plain semantics, no virtual copies, no reconciliation)
and demand that the replay reproduces the concurrent outcome.  No other
order is tried: a state that only some other order explains breaks the
promise, and the report carries the witness replay's member-level
mismatches.

On a folded log (:data:`repro.core.history.FOLD_AFTER`) the replay
starts from the folded baseline and replays the retained suffix; the
folded prefix plus the suffix *is* the commit-order replay, so folding
cannot change the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.history import OperationLog, serial_replay, values_equal

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gtm import GlobalTransactionManager
    from repro.schedulers.base import SchedulerResult
    from repro.workload.spec import Workload


@dataclass
class RecordedEpisode:
    """Everything the oracle needs from one finished episode."""

    log: OperationLog
    #: Concurrent outcome: object -> member -> final value.
    final: dict[str, dict[str, Any]]
    #: Concurrent outcome: object -> exists flag.
    exists: dict[str, bool]


@dataclass
class OracleReport:
    """Outcome of one oracle check."""

    serializable: bool
    committed: int
    #: Serial orders replayed: always 1, the commit order.
    orders_tried: int = 1
    #: Member-level mismatches of the commit-order replay.
    mismatches: list[str] = field(default_factory=list)


def record_gtm(gtm: "GlobalTransactionManager") -> RecordedEpisode:
    """Record a finished GTM run from the manager's own operation log."""
    return RecordedEpisode(
        log=gtm.history,
        final={name: dict(obj.permanent)
               for name, obj in gtm.objects.items()},
        exists={name: obj.exists for name, obj in gtm.objects.items()},
    )


def record_baseline(workload: "Workload",
                    result: "SchedulerResult") -> RecordedEpisode:
    """Reconstruct an operation log for an optimistic run.

    The optimistic baseline keeps no operation log (the 2PL baseline is
    the GTM and keeps the kernel's: :func:`record_gtm`), but its committed
    work is fully determined by the workload profiles: every applied
    step of a committed transaction, in program order.  The commit
    order is the order in which the run committed them
    (:attr:`MetricsCollector.commit_order`), not their finish times:
    two commits at the same virtual instant are ordered as the engine
    dispatched them, which neither a txn id nor an arrival time tells.
    """
    log = OperationLog()
    for name, value in workload.initial_values.items():
        log.record_object(name, {"value": value}, True)
    by_id = {profile.txn_id: profile for profile in workload}
    for txn_id in result.collector.commit_order:
        for step in by_id[txn_id].steps:
            if step.apply_op:
                log.record_apply(txn_id, step.object_name,
                                 step.invocation)
        log.record_commit(txn_id)
    return RecordedEpisode(
        log=log,
        final={name: {"value": value}
               for name, value in result.final_values.items()},
        exists={name: True for name in result.final_values},
    )


def check_episode(recorded: RecordedEpisode) -> OracleReport:
    """Replay the commit order and compare it with the concurrent state."""
    mismatches = replay_mismatches(recorded)
    return OracleReport(serializable=not mismatches,
                        committed=recorded.log.committed,
                        mismatches=mismatches)


def replay_mismatches(recorded: RecordedEpisode) -> list[str]:
    """Serial-replay the commit order and diff against the concurrent
    state.

    A DELETE granted before, but committed after, an overtaking waiter
    (possible only through the sleep path) re-materializes objects; the
    replay compares member values only where both sides agree the
    object exists.
    """
    serial = serial_replay(recorded.log)
    problems: list[str] = []
    for name, members in recorded.final.items():
        serial_exists = serial.exists.get(name, True)
        actual_exists = recorded.exists.get(name, True)
        if actual_exists != serial_exists:
            problems.append(
                f"{name}: exists={actual_exists} but serial replay says "
                f"{serial_exists}")
            continue
        if not actual_exists:
            continue
        for member, actual in members.items():
            expected = serial.values[name][member]
            if not values_equal(actual, expected):
                problems.append(
                    f"{name}.{member}: concurrent={actual!r} "
                    f"serial={expected!r}")
    return problems
