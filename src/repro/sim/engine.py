"""The discrete-event engine: an ordered event queue plus a dispatcher."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock

Callback = Callable[["SimulationEngine"], Any]


class ScheduledEvent:
    """Handle for an event sitting in (or already popped from) the queue.

    The handle is the heap entry itself — ordering is (time, priority,
    sequence) via :meth:`__lt__` — so scheduling allocates one slotted
    object instead of an entry/handle pair.

    The handle supports cancellation: a cancelled event stays in the heap
    but is skipped by the dispatcher.  This gives O(1) cancel without heap
    surgery, which matters because lock-wait timeouts are cancelled far
    more often than they fire.  Cancellation reports back to the engine so
    its live-event count stays O(1) too.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "label",
                 "cancelled", "dispatched", "_engine")

    def __init__(self, time: float, priority: int, sequence: int,
                 callback: Callback, label: str = "",
                 engine: "SimulationEngine | None" = None) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.dispatched = False
        self._engine = engine

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.priority, self.sequence) < \
               (other.time, other.priority, other.sequence)

    def cancel(self) -> bool:
        """Cancel the event.  Returns False if it already ran."""
        if self.dispatched:
            return False
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                self._engine._on_cancelled()
        return True

    @property
    def alive(self) -> bool:
        """True while the event is pending (not cancelled, not dispatched)."""
        return not (self.cancelled or self.dispatched)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "dispatched" if self.dispatched else "pending")
        label = f" {self.label!r}" if self.label else ""
        return f"<ScheduledEvent t={self.time}{label} {state}>"


class SimulationEngine:
    """Owns the virtual clock and the event queue.

    Typical use::

        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda eng: print(eng.now))
        engine.run()

    Events with the same timestamp dispatch in (priority, insertion) order,
    which makes schedules fully deterministic.
    """

    #: Default priority; lower numbers dispatch first at equal timestamps.
    DEFAULT_PRIORITY = 0

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = VirtualClock(start_time)
        # The engine owns its clock: observers time their intervals off
        # it, so a bare clock.reset() mid-run would silently rewind
        # their timelines.  Resetting goes through engine.reset().
        self.clock.bind_driver(self)
        self._queue: list[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._events_dispatched = 0
        #: live (scheduled, not cancelled, not dispatched) events;
        #: maintained on push/cancel/dispatch so :attr:`pending` never
        #: scans the heap.
        self._live = 0
        self._running = False
        self._stopped = False

    # -- inspection ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    @property
    def events_dispatched(self) -> int:
        """Total callbacks executed so far."""
        return self._events_dispatched

    def peek(self) -> float | None:
        """Timestamp of the next live event, or None if the queue is drained."""
        self._drop_dead_head()
        if not self._queue:
            return None
        return self._queue[0].time

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, when: float, callback: Callback, *,
                    priority: int = DEFAULT_PRIORITY,
                    label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.clock.now}"
            )
        event = ScheduledEvent(when, priority, next(self._sequence),
                               callback, label, engine=self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule_after(self, delay: float, callback: Callback, *,
                       priority: int = DEFAULT_PRIORITY,
                       label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.clock.now + delay, callback,
                                priority=priority, label=label)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next live event.  Returns False when none remain."""
        self._drop_dead_head()
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self.clock.advance_to(event.time)
        event.dispatched = True
        self._live -= 1
        self._events_dispatched += 1
        event.callback(self)
        return True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        """Run until the queue drains, ``until`` is reached, or the event
        budget ``max_events`` is exhausted.  Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        dispatched = 0
        try:
            while not self._stopped:
                next_time = self.peek()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.clock.advance_to(until)
                    break
                if max_events is not None and dispatched >= max_events:
                    break
                self.step()
                dispatched += 1
        finally:
            self._running = False
        return self.clock.now

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to stop after the current event."""
        self._stopped = True

    def reset(self, start_time: float = 0.0) -> None:
        """Reset the engine for reuse: clock, queue, and counters together.

        This is the *only* way to rewind an engine's clock — resetting
        the clock alone would leave stale events in the queue and
        rewind time underneath any observer that timestamps off it.
        """
        if self._running:
            raise SimulationError("cannot reset a running engine")
        for event in self._queue:
            # outstanding handles must not read as alive after the
            # queue they lived in is gone
            event.cancelled = True
        self._queue.clear()
        self._sequence = itertools.count()
        self._events_dispatched = 0
        self._live = 0
        self._stopped = False
        self.clock._driver_reset(start_time)

    # -- internals ----------------------------------------------------------

    def _on_cancelled(self) -> None:
        """A queued event was cancelled (called by the event handle)."""
        self._live -= 1

    def _drop_dead_head(self) -> None:
        """Pop cancelled events off the heap head (lazy deletion)."""
        while self._queue and not self._queue[0].alive:
            heapq.heappop(self._queue)

    def __repr__(self) -> str:
        return (f"<SimulationEngine now={self.now} pending={self.pending} "
                f"dispatched={self._events_dispatched}>")
