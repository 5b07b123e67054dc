"""Clock implementations behind the :class:`Clock` protocol.

Two clocks, one contract: ``clock.now`` is a monotone float in seconds.

- :class:`VirtualClock` — simulated time, advanced explicitly by the
  discrete-event driver (:class:`~repro.sim.engine.SimulationEngine`);
- :class:`WallClock` — real time, read from a monotonic source and
  re-based so a fresh clock starts near 0.0 (which keeps wall-clock
  spans and virtual spans comparable in exports).

A clock that is *owned by a driver* refuses bare ``reset()`` calls:
rewinding an engine-shared clock underneath observers silently corrupts
their timelines (intervals opened before the reset would close at an
earlier time).  Resetting is the owning driver's job —
:meth:`~repro.sim.engine.SimulationEngine.reset` rewinds the clock and
the event queue *together*.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.errors import ClockError


@runtime_checkable
class Clock(Protocol):
    """Anything with a monotone ``now`` property (seconds as float)."""

    @property
    def now(self) -> float: ...


class VirtualClock:
    """A virtual clock measured in simulated seconds.

    The clock can only move forward.  The engine advances it as events
    are dispatched; user code reads it via :attr:`now`.
    """

    __slots__ = ("_now", "_owner")

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: the owning driver's class name, for the refusal message (the
        #: driver owns the clock, so the clock keeps no reference back).
        self._owner: str | None = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock to ``when``.

        Raises :class:`~repro.errors.ClockError` if ``when`` precedes the
        current time: the discrete-event invariant is that time is monotone.
        """
        if not (when >= self._now):  # also refuses NaN
            raise ClockError(
                f"cannot move clock backwards: {when} < {self._now}"
            )
        self._now = when

    def bind_driver(self, driver: object) -> None:
        """Hand ownership to a driver; bare :meth:`reset` is now illegal."""
        self._owner = type(driver).__name__

    def reset(self, start: float = 0.0) -> None:
        """Reset a *standalone* clock (reuse between runs).

        A clock bound to a driver must be reset through that driver
        (e.g. :meth:`SimulationEngine.reset`): rewinding time underneath
        a driver's observers and pending events corrupts their
        timelines, so the bare call raises :class:`ClockError`.
        """
        if self._owner is not None:
            raise ClockError(
                f"clock is owned by a {self._owner}; reset the driver, "
                f"not the clock")
        self._now = float(start)

    def _driver_reset(self, start: float = 0.0) -> None:
        """Reset on behalf of the owning driver (internal seam)."""
        self._now = float(start)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now!r})"


class WallClock:
    """Monotonic wall-clock time, re-based to start near 0.0.

    ``source`` is any zero-argument monotone float source —
    :func:`time.monotonic` by default, an asyncio ``loop.time`` for the
    live-service driver.  There is no ``reset``: wall time cannot
    rewind, which is exactly the property the observer layer relies on.
    """

    __slots__ = ("_source", "_origin")

    def __init__(self, source=time.monotonic) -> None:
        self._source = source
        self._origin = source()

    @property
    def now(self) -> float:
        """Seconds elapsed since this clock was created."""
        return self._source() - self._origin

    def source_time(self, when: float) -> float:
        """Map a clock time back to the underlying source's timescale
        (what ``loop.call_at`` wants)."""
        return self._origin + when

    def __repr__(self) -> str:
        return f"WallClock(now={self.now:.6f})"
