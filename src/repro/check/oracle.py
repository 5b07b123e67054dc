"""Final-state serializability oracle.

Section V claims the GTM's schedules are serializable with the commit
order of incompatible operations as the witness.  The oracle checks the
claim the strong way: record every committed transaction's applied
operations and the concurrent final state, then re-execute the
transactions **serially** in candidate orders (plain semantics, no
virtual copies, no reconciliation) and demand that at least one serial
order reproduces the concurrent outcome exactly.

Candidate orders, cheapest first:

1. the global commit order — the paper's witness, which should succeed
   on every correct run;
2. for small episodes (<= :data:`MAX_EXHAUSTIVE` committed txns) every
   permutation;
3. for larger episodes, component-wise search: transactions with
   Table I-*compatible* operations commute under plain replay (that is
   Definition 1's premise), so the final state depends only on the
   relative order *within* each weakly-connected component of the
   conflict graph.  Each component (usually 2-3 transactions) is
   permuted exhaustively while the rest stay in commit order, and the
   per-component improvements compose because distinct components only
   share objects through mutually compatible operations.

If no candidate matches, the episode is not final-state serializable
and the report carries the member-level mismatches of the witness
replay.

On a folded log (:data:`repro.core.history.FOLD_AFTER`) every candidate
starts from the folded baseline and orders the retained suffix only.
The witness replay is unchanged — folded prefix plus suffix *is* the
commit-order replay — while the fallback search can no longer reorder a
folded transaction: folding can make the oracle stricter, never more
lenient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, permutations
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.compatibility import (
    DEFAULT_MATRIX,
    INDEPENDENT_MEMBERS,
    CompatibilityMatrix,
    LogicalDependence,
    invocations_compatible,
)
from repro.core.history import OperationLog, serial_replay, values_equal
from repro.metrics.collectors import Outcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gtm import GlobalTransactionManager
    from repro.schedulers.base import SchedulerResult
    from repro.workload.spec import Workload

#: Committed-transaction count up to which every permutation is tried
#: (6! = 720 serial replays worst case).
MAX_EXHAUSTIVE = 6


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
    orders_tried: int = 0
    #: A serial order that reproduces the concurrent state (when found).
    witness: tuple[str, ...] | None = None
    #: Member-level mismatches of the commit-order replay (when not).
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
    """Reconstruct an operation log for a 2PL / optimistic run.

    The baselines do not keep an operation log, but their committed
    work is fully determined by the workload profiles: every applied
    step of a committed transaction, in program order.  The commit
    order is the finish-time order of the committed timelines (ties
    broken by txn id — tied conflicting commits are impossible under
    strict 2PL, and for the optimistic baseline the permutation
    fallback absorbs any tie the reconstruction gets wrong).
    """
    log = OperationLog()
    for name, value in workload.initial_values.items():
        log.record_object(name, {"value": value}, True)
    by_id = {profile.txn_id: profile for profile in workload}
    committed = sorted(
        (t for t in result.collector.timelines.values()
         if t.outcome is Outcome.COMMITTED),
        key=lambda t: (t.finished, t.txn_id))
    for timeline in committed:
        profile = by_id[timeline.txn_id]
        for step in profile.steps:
            if step.apply_op:
                log.record_apply(profile.txn_id, step.object_name,
                                 step.invocation)
        log.record_commit(profile.txn_id)
    return RecordedEpisode(
        log=log,
        final={name: {"value": value}
               for name, value in result.final_values.items()},
        exists={name: True for name in result.final_values},
    )


def check_episode(recorded: RecordedEpisode,
                  matrix: CompatibilityMatrix = DEFAULT_MATRIX,
                  dependence: LogicalDependence = INDEPENDENT_MEMBERS,
                  max_orders: int = 1000) -> OracleReport:
    """Search for a serial order that explains the concurrent outcome."""
    committed = list(recorded.log.commit_order)
    report = OracleReport(serializable=False,
                          committed=recorded.log.committed)

    witness_mismatches = replay_mismatches(recorded, committed)
    report.orders_tried = 1
    if not witness_mismatches:
        report.serializable = True
        report.witness = tuple(committed)
        return report
    report.mismatches = witness_mismatches

    if len(committed) <= MAX_EXHAUSTIVE:
        for order in islice(permutations(committed), max_orders):
            if list(order) == committed:
                continue
            report.orders_tried += 1
            if not replay_mismatches(recorded, order):
                report.serializable = True
                report.witness = tuple(order)
                return report
        return report

    # Component-wise search.  Improving one component's internal order
    # cannot worsen another's objects (they only share compatible,
    # commuting operations), so per-component fixes compose greedily.
    order = list(committed)
    best = witness_mismatches
    for component in _conflict_components(recorded.log, committed,
                                          matrix, dependence):
        if len(component) < 2:
            continue
        positions = [i for i, txn in enumerate(order)
                     if txn in component]
        members = [order[i] for i in positions]
        for perm in permutations(members):
            if report.orders_tried >= max_orders:
                return report
            if list(perm) == members:
                continue
            candidate = list(order)
            for position, txn in zip(positions, perm):
                candidate[position] = txn
            report.orders_tried += 1
            mismatches = replay_mismatches(recorded, candidate)
            if len(mismatches) < len(best):
                best, order = mismatches, candidate
                if not best:
                    break
        if not best:
            break
    if not best:
        report.serializable = True
        report.witness = tuple(order)
    return report


def replay_mismatches(recorded: RecordedEpisode,
                      order: Sequence[str]) -> list[str]:
    """Serial-replay ``order`` and diff against the concurrent state."""
    serial = serial_replay(recorded.log, order=list(order))
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


def _conflict_components(log: OperationLog, committed: list[str],
                         matrix: CompatibilityMatrix,
                         dependence: LogicalDependence,
                         ) -> list[set[str]]:
    """Weakly-connected components of the committed-txn conflict graph.

    Two transactions are adjacent when they issued Table I-incompatible
    operations on the same object; transactions in distinct components
    commute under plain serial replay, so only the relative order
    *inside* a component can change the final state.
    """
    by_txn = log.ops

    def conflict(a: str, b: str) -> bool:
        for op_a in by_txn.get(a, ()):
            for op_b in by_txn.get(b, ()):
                if op_a.object_name != op_b.object_name:
                    continue
                if not invocations_compatible(op_a.invocation,
                                              op_b.invocation,
                                              matrix, dependence):
                    return True
        return False

    adjacency: dict[str, set[str]] = {t: set() for t in committed}
    for i, a in enumerate(committed):
        for b in committed[i + 1:]:
            if conflict(a, b):
                adjacency[a].add(b)
                adjacency[b].add(a)

    seen: set[str] = set()
    components: list[set[str]] = []
    for txn in committed:
        if txn in seen:
            continue
        component: set[str] = set()
        stack = [txn]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            component.add(node)
            stack.extend(adjacency[node] - seen)
        components.append(component)
    return components
