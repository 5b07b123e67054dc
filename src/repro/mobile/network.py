"""Disconnection models.

The paper's emulation uses a single Bernoulli parameter β: a transaction
of the subtraction class disconnects during its execution with
probability β ("we suppose that all disconnections take place during the
transaction execution").  :class:`BernoulliDisconnection` reproduces
that; :class:`RenewalDisconnection` is the richer up/down renewal process
used by the extension benches (multiple disconnections per transaction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np


@dataclass(frozen=True)
class DisconnectionEvent:
    """One planned disconnection within a transaction's execution.

    ``at_fraction`` positions the disconnection within the transaction's
    service time (0 = at start, 1 = at the very end); ``duration`` is the
    virtual-time length of the outage.
    """

    at_fraction: float
    duration: float


class DisconnectionModel(Protocol):
    """Plans the disconnections one transaction will suffer."""

    def plan(self, rng: np.random.Generator,
             work_time: float) -> Sequence[DisconnectionEvent]:
        """Return the disconnections for a transaction with the given
        service time (possibly empty)."""
        ...


class BernoulliDisconnection:
    """The paper's β model: at most one disconnection, probability β.

    The outage starts at a uniform position inside the service time and
    lasts ``duration_mean`` seconds on average (exponential), matching
    the "disconnections take place during the transaction execution"
    assumption of Section VI-B.
    """

    def __init__(self, beta: float, duration_mean: float = 10.0,
                 fixed_duration: float | None = None) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta out of range: {beta}")
        if duration_mean <= 0:
            raise ValueError(f"duration_mean must be positive: "
                             f"{duration_mean}")
        self.beta = beta
        self.duration_mean = duration_mean
        self.fixed_duration = fixed_duration

    def plan(self, rng: np.random.Generator,
             work_time: float) -> Sequence[DisconnectionEvent]:
        if rng.random() >= self.beta:
            return ()
        duration = (self.fixed_duration if self.fixed_duration is not None
                    else float(rng.exponential(self.duration_mean)))
        return (DisconnectionEvent(at_fraction=float(rng.uniform(0.05, 0.95)),
                                   duration=duration),)


class RenewalDisconnection:
    """An alternating up/down renewal process.

    Up intervals are exponential with mean ``up_mean``; each outage lasts
    exponential ``down_mean``.  The plan contains every outage whose
    start falls within the transaction's service time.
    """

    def __init__(self, up_mean: float, down_mean: float,
                 max_events: int = 16) -> None:
        if up_mean <= 0 or down_mean <= 0:
            raise ValueError("up_mean and down_mean must be positive")
        self.up_mean = up_mean
        self.down_mean = down_mean
        self.max_events = max_events

    def plan(self, rng: np.random.Generator,
             work_time: float) -> Sequence[DisconnectionEvent]:
        events: list[DisconnectionEvent] = []
        elapsed = float(rng.exponential(self.up_mean))
        while elapsed < work_time and len(events) < self.max_events:
            duration = float(rng.exponential(self.down_mean))
            events.append(DisconnectionEvent(
                at_fraction=elapsed / work_time, duration=duration))
            elapsed += float(rng.exponential(self.up_mean))
        return tuple(events)
