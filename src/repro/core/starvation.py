"""Grant policies for the ⟨unlock, X⟩ event, including starvation control.

Algorithm 11 grants "∀ A ∈ θ(X_waiting − X_sleeping)" — θ selects which
waiters become pending at an unlock.  The baseline θ is FIFO: walk the
queue in arrival order and grant each waiter that conflicts with nothing
in the object's effective lock set held by other transactions nor with
anything granted earlier in the batch, stopping at the first blocked
waiter (no overtaking).

Section VII names the starvation problem — "incompatible transactions
that try to access resources locked by different compatible transactions"
can wait forever while a stream of mutually compatible transactions keeps
the object busy — and sketches two mitigations, both implemented here:

- :class:`LockDenyPolicy` — "the lock-deny on a given resource for
  compatible transaction[s], if in the resource queue there are a certain
  number of incompatible transactions that are in a waiting state": a
  fresh *invocation* is denied (sent to the queue) when too many
  incompatible waiters already queue, even if it is compatible with the
  current pending set;
- :class:`PriorityAgingPolicy` — "the introduction of a transaction
  priority": θ orders the queue by an effective priority that grows with
  waiting time, so a starving waiter eventually outranks younger arrivals.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.core.conflicts import ConflictChecker
from repro.core.objects import ManagedObject, WaitEntry
from repro.core.opclass import Invocation


class GrantPolicy(Protocol):
    """θ plus the optional invocation-time deny hook."""

    def select(self, obj: ManagedObject, candidates: Sequence[WaitEntry],
               checker: ConflictChecker, now: float) -> list[WaitEntry]:
        """Choose which waiters to grant when the object unlocks.

        A waiter is judged against the object's effective lock set
        (granted and committing ops, sleepers excluded) without its own
        entry, through ``checker.blocked_tester``.
        """
        ...

    def deny_fresh_invocation(self, obj: ManagedObject,
                              invocation: Invocation,
                              checker: ConflictChecker, now: float) -> bool:
        """Should a compatible fresh invocation be queued anyway?"""
        ...


class FifoGrantPolicy:
    """Baseline θ: FIFO with conflict-respecting overtaking.

    A waiter (the head included) is granted iff it is compatible with

    - the effective lock set of *other* transactions (pending −
      sleeping, plus committing) — the head is therefore *not*
      unconditionally granted: ⟨unlock, X⟩ also fires while compatible
      holders still operate, and overtaking them would break Table I;
    - every invocation granted earlier in this round; and
    - every *blocked* waiter queued ahead of it.

    The last rule is the fairness/liveness balance.  A waiter never
    overtakes an earlier waiter it conflicts with (overtaking would
    starve it — the Section VII pathology), but a request on an
    independent member may pass a blocked head.  Strict head-of-line
    blocking instead deadlocks: the stress harness found episodes where
    a *holder* queues behind a blocked head for a member that is free —
    the head waits on the holder, the holder waits on the queue, and the
    wait-for graph sees neither (it tracks holder waits, not
    queue-position waits).
    """

    def select(self, obj: ManagedObject, candidates: Sequence[WaitEntry],
               checker: ConflictChecker, now: float) -> list[WaitEntry]:
        granted: list[WaitEntry] = []
        # The batch and blocked-ahead sets are round accumulators backed
        # by per-member occupancy masks, so judging each waiter is O(1)
        # instead of pairwise against every earlier entry.  The holder
        # test is likewise built once per round: the checker hoists the
        # txn-independent summary counts out of the per-waiter loop.
        batch_set = checker.new_round_set()
        blocked_set = checker.new_round_set()
        blocked_by = checker.blocked_tester(obj)
        for entry in candidates:
            if blocked_by(entry.txn_id, entry.invocation) \
                    or batch_set.conflicts(entry.invocation) \
                    or blocked_set.conflicts(entry.invocation):
                blocked_set.add(entry.invocation)
            else:
                granted.append(entry)
                batch_set.add(entry.invocation)
        return granted

    def deny_fresh_invocation(self, obj: ManagedObject,
                              invocation: Invocation,
                              checker: ConflictChecker, now: float) -> bool:
        return False


class LockDenyPolicy(FifoGrantPolicy):
    """Section VII mitigation: deny fresh grants past a waiter threshold.

    When at least ``max_incompatible_waiters`` queued waiters are
    incompatible with a fresh invocation, the invocation is denied the
    fast path and queued behind them, bounding how long the incompatible
    waiters can be overtaken.
    """

    def __init__(self, max_incompatible_waiters: int = 3) -> None:
        if max_incompatible_waiters < 1:
            raise ValueError("max_incompatible_waiters must be >= 1")
        self.max_incompatible_waiters = max_incompatible_waiters

    def deny_fresh_invocation(self, obj: ManagedObject,
                              invocation: Invocation,
                              checker: ConflictChecker, now: float) -> bool:
        incompatible = sum(
            1 for entry in obj.waiting
            if entry.txn_id not in obj.sleeping
            and checker.in_conflict(invocation, entry.invocation))
        return incompatible >= self.max_incompatible_waiters


class PriorityAgingPolicy(FifoGrantPolicy):
    """Section VII mitigation: transaction priority with waiting-time aging.

    Effective priority = base priority + age · aging_rate.  Two effects:

    - at unlock time, θ re-orders the queue by decreasing effective
      priority (FIFO within ties via the arrival timestamp);
    - a *fresh* invocation is denied the fast path once some incompatible
      waiter's effective priority reaches ``deny_threshold`` — without
      this, a stream of mutually compatible transactions never lets the
      object drain and the queue ordering is moot.  The victim's maximum
      overtaking window is therefore ``deny_threshold / aging_rate``
      seconds.
    """

    def __init__(self, aging_rate: float = 1.0,
                 deny_threshold: float = 10.0,
                 priority_of: Callable[[str], int] | None = None) -> None:
        if aging_rate < 0:
            raise ValueError("aging_rate must be >= 0")
        if deny_threshold < 0:
            raise ValueError("deny_threshold must be >= 0")
        self.aging_rate = aging_rate
        self.deny_threshold = deny_threshold
        self._priority_of = priority_of or (lambda txn_id: 0)

    def _effective_priority(self, entry: WaitEntry, now: float) -> float:
        age = max(0.0, now - entry.arrival)
        return self._priority_of(entry.txn_id) + age * self.aging_rate

    def select(self, obj: ManagedObject, candidates: Sequence[WaitEntry],
               checker: ConflictChecker, now: float) -> list[WaitEntry]:
        ordered = sorted(
            candidates,
            key=lambda e: (-self._effective_priority(e, now), e.arrival))
        return super().select(obj, ordered, checker, now)

    def deny_fresh_invocation(self, obj: ManagedObject,
                              invocation: Invocation,
                              checker: ConflictChecker, now: float) -> bool:
        return any(
            self._effective_priority(entry, now) >= self.deny_threshold
            for entry in obj.waiting
            if entry.txn_id not in obj.sleeping
            and checker.in_conflict(invocation, entry.invocation))
