"""The wall-clock driver: the :class:`Driver` seam over asyncio.

Where the :class:`~repro.sim.engine.SimulationEngine` advances a
:class:`~repro.driver.clock.VirtualClock` by dispatching a heap of
events, this driver reads ``loop.time()`` (re-based to 0.0 at driver
creation) and delegates deferred callbacks to ``loop.call_at``.  The
two drivers expose the same surface — ``now``, ``schedule_at``,
``schedule_after``, cancellable handles whose callbacks receive the
driver — so timer code written for one runs unchanged under the other.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.errors import SimulationError
from repro.driver.clock import WallClock


class AsyncioTimer:
    """Handle for a callback scheduled on the event loop.

    Mirrors :class:`~repro.sim.engine.ScheduledEvent`'s cancel
    semantics: ``cancel()`` is idempotent and returns False once the
    callback has run; ``alive`` is True only while pending.
    """

    __slots__ = ("time", "label", "cancelled", "dispatched", "_handle")

    def __init__(self, time: float, label: str = "") -> None:
        self.time = time
        self.label = label
        self.cancelled = False
        self.dispatched = False
        self._handle: asyncio.TimerHandle | None = None

    def cancel(self) -> bool:
        if self.dispatched:
            return False
        if not self.cancelled:
            self.cancelled = True
            if self._handle is not None:
                self._handle.cancel()
        return True

    @property
    def alive(self) -> bool:
        return not (self.cancelled or self.dispatched)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "dispatched" if self.dispatched else "pending")
        label = f" {self.label!r}" if self.label else ""
        return f"<AsyncioTimer t={self.time}{label} {state}>"


class AsyncioDriver:
    """Wall-clock :class:`~repro.driver.base.Driver` over an event loop.

    Must be created while the loop is running (the service creates it
    in its startup coroutine).  Times are seconds since driver
    creation, so ``driver.now`` starts near 0.0 just like a fresh
    simulation — observers and exports see one coherent timescale
    either way.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self.clock = WallClock(source=self._loop.time)
        self._timers_dispatched = 0

    # -- inspection ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds of wall time since the driver was created."""
        return self.clock.now

    @property
    def events_dispatched(self) -> int:
        """Timer callbacks executed so far (parity with the engine)."""
        return self._timers_dispatched

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, when: float,
                    callback: Callable[["AsyncioDriver"], Any], *,
                    priority: int = 0, label: str = "") -> AsyncioTimer:
        """Run ``callback(driver)`` at driver time ``when``.

        ``priority`` is accepted for signature parity with the
        simulation engine; the loop's own timer ordering applies.
        """
        if not (when >= self.now):  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.now}")
        timer = AsyncioTimer(when, label)

        def _run() -> None:
            if timer.cancelled:
                return
            # the handle refers to this closure, which refers to the
            # timer: drop the handle, so a fired timer is freed on
            # release (a cancelled handle lets go of its callback).
            timer._handle = None
            timer.dispatched = True
            self._timers_dispatched += 1
            callback(self)

        timer._handle = self._loop.call_at(
            self.clock.source_time(when), _run)
        return timer

    def schedule_after(self, delay: float,
                       callback: Callable[["AsyncioDriver"], Any], *,
                       priority: int = 0, label: str = "") -> AsyncioTimer:
        """Run ``callback(driver)`` ``delay`` seconds from now."""
        if not (delay >= 0):
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback,
                                priority=priority, label=label)

    def __repr__(self) -> str:
        return (f"<AsyncioDriver now={self.now:.6f} "
                f"dispatched={self._timers_dispatched}>")
