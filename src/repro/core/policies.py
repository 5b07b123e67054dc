"""Pluggable deadlock / starvation policing for the admission layer.

Section VII of the paper leaves deadlock handling open: "classical
approaches as timeout or wait for graphs techniques can be used to
detect the deadlock presence".  The seed implemented exactly one choice
(a wait-for graph with a victim heuristic) inline in the GTM; this
module turns the choice into a policy object consulted by the
:class:`~repro.core.admission.AdmissionController` whenever an
invocation must wait:

- :class:`WaitForGraphPolicy` — detection: maintain waiter→holder edges
  and break cycles with a :class:`~repro.ldbs.deadlock.VictimPolicy`
  (the seed behaviour, still the default);
- :class:`NoDeadlockPolicy` — trust the workload (the paper's
  single-object experiments cannot deadlock).

Starvation control is the other half of Section VII's policing; those
policies (θ reordering and lock-deny) live in
:mod:`repro.core.starvation` and are re-exported here so both policy
families share one import surface.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.ldbs.deadlock import (
    DeadlockDetector,
    DeadlockResolution,
    VictimPolicy,
)
from repro.core.starvation import (  # noqa: F401 - policy family re-export
    FifoGrantPolicy,
    GrantPolicy,
    LockDenyPolicy,
    PriorityAgingPolicy,
)

StartTimeOf = Callable[[str], float]


class DeadlockPolicy(Protocol):
    """Consulted by the admission controller on every blocked wait."""

    #: How many victims this policy has chosen so far.
    detections: int
    #: True while re-consulting about a waiter whose blockers did not
    #: change cannot name a victim; the re-police sweep then skips it.
    settled: bool

    def bind(self, start_time_of: StartTimeOf) -> None:
        """Wire the transaction begin-time lookup (done by the GTM)."""
        ...

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        """``waiter`` queued behind ``blockers``; return a victim or None."""
        ...

    def refresh_wait(self, waiter: str,
                     blockers: Sequence[str]) -> DeadlockResolution | None:
        """Replace ``waiter``'s recorded blockers and re-check (the
        re-police path); equivalent to ``on_stop_waiting`` followed by
        ``on_wait``, but detection policies may skip the cycle search
        when the blocker set is unchanged."""
        ...

    def on_stop_waiting(self, waiter: str) -> None:
        ...

    def on_finished(self, txn_id: str) -> None:
        ...


class _PolicyBase:
    """Shared defaults for the concrete policies."""

    #: Unknown policies are asked again about every stale waiter.
    settled = False

    def __init__(self) -> None:
        self.detections = 0

    def bind(self, start_time_of: StartTimeOf) -> None:
        pass  # a policy that names no victim needs no begin times

    def refresh_wait(self, waiter: str,
                     blockers: Sequence[str]) -> DeadlockResolution | None:
        self.on_stop_waiting(waiter)
        return self.on_wait(waiter, blockers)

    def on_stop_waiting(self, waiter: str) -> None:
        pass

    def on_finished(self, txn_id: str) -> None:
        pass


class NoDeadlockPolicy(_PolicyBase):
    """Never intervenes: waits are allowed to stand (or time out)."""

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        return None


class WaitForGraphPolicy(_PolicyBase):
    """Detection via the :class:`~repro.ldbs.deadlock.WaitForGraph`.

    The seed's inline behaviour: record the wait edges, search for a
    cycle through the waiter, and pick the victim with ``victim_policy``
    (youngest by default).
    """

    def __init__(self,
                 victim_policy: VictimPolicy = VictimPolicy.YOUNGEST) -> None:
        super().__init__()
        self.detector = DeadlockDetector(policy=victim_policy)

    def bind(self, start_time_of: StartTimeOf) -> None:
        # straight to the detector: a lookup that called back through
        # this policy would tie the policy into a reference cycle.
        self.detector.start_time_of = start_time_of

    @property
    def settled(self) -> bool:
        """The graph is known acyclic, so a refresh that keeps a
        waiter's edges finds no cycle."""
        return self.detector.graph.acyclic

    def on_wait(self, waiter: str,
                blockers: Sequence[str]) -> DeadlockResolution | None:
        resolution = self.detector.on_wait(waiter, blockers)
        if resolution is not None:
            self.detections += 1
        return resolution

    def refresh_wait(self, waiter: str,
                     blockers: Sequence[str]) -> DeadlockResolution | None:
        resolution = self.detector.refresh_wait(waiter, blockers)
        if resolution is not None:
            self.detections += 1
        return resolution

    def on_stop_waiting(self, waiter: str) -> None:
        self.detector.on_stop_waiting(waiter)

    def on_finished(self, txn_id: str) -> None:
        self.detector.on_finished(txn_id)
