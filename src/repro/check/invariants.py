"""Structural invariant checks run after every fuzz episode.

The oracle validates *values*; these checks validate *bookkeeping*.
At the end of an episode the simulation is quiescent (no pending
events), so the GTM must be too: every transaction terminal, every
lock-table set empty, every deferred-commit queue drained.  A violation
means the protocol leaked state even though the run "worked" — exactly
the class of bug a final-state oracle cannot see.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.states import TransactionState, can_transition
from repro.errors import GTMError
from repro.metrics.collectors import Outcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gtm import GlobalTransactionManager
    from repro.metrics.collectors import MetricsCollector


def check_episode_invariants(gtm: "GlobalTransactionManager") -> list[str]:
    """Return every invariant violation found (empty = clean)."""
    violations: list[str] = []
    violations.extend(_object_invariants(gtm))
    violations.extend(_transaction_invariants(gtm))
    violations.extend(_quiescence_invariants(gtm))
    return violations


def _object_invariants(gtm: "GlobalTransactionManager") -> list[str]:
    violations = []
    for name, obj in gtm.objects.items():
        try:
            obj.check_invariants()
        except GTMError as exc:
            violations.append(str(exc))
        for entry in obj.waiting:
            if entry.invocation.member in obj.pending.get(entry.txn_id, {}):
                violations.append(
                    f"object {name!r}: {entry.txn_id!r} both granted and "
                    f"queued for member {entry.invocation.member!r}")
        try:
            # the incremental lock-set summary must equal a from-scratch
            # rebuild — any drift means a mutator bypassed the summary.
            obj.verify_summary()
        except GTMError as exc:
            violations.append(str(exc))
    return violations


def _transaction_invariants(gtm: "GlobalTransactionManager") -> list[str]:
    violations = []
    for txn_id, txn in gtm.transactions.items():
        if not txn.state.terminal:
            violations.append(
                f"txn {txn_id!r}: non-terminal at quiescence "
                f"({txn.state.value})")
        history = txn.state_history
        for source, target in zip(history, history[1:]):
            if not can_transition(source, target):
                violations.append(
                    f"txn {txn_id!r}: illegal recorded transition "
                    f"{source.value} -> {target.value}")
    for txn_id in gtm.history.commit_order:
        txn = gtm.transactions.get(txn_id)
        if txn is None or not txn.is_in(TransactionState.COMMITTED):
            violations.append(
                f"txn {txn_id!r}: in the commit order but not COMMITTED")
    return violations


def _quiescence_invariants(gtm: "GlobalTransactionManager") -> list[str]:
    violations = []
    for name, obj in gtm.objects.items():
        residents = {
            "pending": set(obj.pending),
            "waiting": {entry.txn_id for entry in obj.waiting},
            "committing": set(obj.committing),
            "aborting": set(obj.aborting),
            "sleeping": set(obj.sleeping),
            "X_read": set(obj.read),
            "X_new": set(obj.new),
        }
        for label, txn_ids in residents.items():
            if txn_ids:
                violations.append(
                    f"object {name!r}: leaked {label} entries at "
                    f"quiescence: {sorted(txn_ids)}")
    for name, queue in gtm.pipeline.deferred.items():
        if queue:
            violations.append(
                f"object {name!r}: deferred-commit queue not drained: "
                f"{list(queue)}")
    return violations


def check_liveness(collector: "MetricsCollector") -> list[str]:
    """Every transaction ended: a timeline still unfinished when the
    engine ran dry waits on something nothing will ever release (a
    standing deadlock, a lost wake-up).  The serializability oracle
    reads committed transactions only, so it cannot see this."""
    return [f"txn {txn_id!r}: neither committed nor aborted when the "
            f"engine ran dry (liveness)"
            for txn_id, timeline in collector.timelines.items()
            if timeline.outcome is Outcome.UNFINISHED]


def check_timeline_invariants(collector: "MetricsCollector") -> list[str]:
    """Validate every timeline's interval bookkeeping (empty = clean).

    Run after :meth:`MetricsCollector.finalize`, when no interval may
    remain open.  The rules are exactly the accounting bugs this layer
    has had: dangling interval starts, overlapping wait/sleep intervals
    (sleeping pre-empts waiting — the two are disjoint by definition),
    and totals drifting from the closed intervals that compose them.
    """
    violations: list[str] = []
    for txn_id, timeline in collector.timelines.items():
        if timeline._wait_started is not None:
            violations.append(
                f"timeline {txn_id!r}: wait interval still open after "
                f"finalize (started {timeline._wait_started})")
        if timeline._sleep_started is not None:
            violations.append(
                f"timeline {txn_id!r}: sleep interval still open after "
                f"finalize (started {timeline._sleep_started})")
        wait_sum = sleep_sum = 0.0
        for kind, start, end in timeline.intervals:
            if end < start:
                violations.append(
                    f"timeline {txn_id!r}: inverted {kind} interval "
                    f"[{start}, {end}]")
            if kind == "wait":
                wait_sum += end - start
            elif kind == "sleep":
                sleep_sum += end - start
            else:
                violations.append(
                    f"timeline {txn_id!r}: unknown interval kind {kind!r}")
        ordered = sorted(timeline.intervals, key=lambda i: (i[1], i[2]))
        for (_, _, prev_end), (kind, start, _) in zip(ordered, ordered[1:]):
            # touching is fine (a wait closes exactly when a sleep
            # opens); any real overlap double-counts time.
            if start < prev_end and not math.isclose(start, prev_end):
                violations.append(
                    f"timeline {txn_id!r}: {kind} interval starting at "
                    f"{start} overlaps the previous one ending {prev_end}")
        if not math.isclose(wait_sum, timeline.wait_time, abs_tol=1e-9):
            violations.append(
                f"timeline {txn_id!r}: wait_time {timeline.wait_time} != "
                f"closed-interval sum {wait_sum}")
        if not math.isclose(sleep_sum, timeline.sleep_time, abs_tol=1e-9):
            violations.append(
                f"timeline {txn_id!r}: sleep_time {timeline.sleep_time} "
                f"!= closed-interval sum {sleep_sum}")
    return violations
