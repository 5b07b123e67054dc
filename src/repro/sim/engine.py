"""The discrete-event engine: an ordered event queue plus a dispatcher."""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock

Callback = Callable[["SimulationEngine"], Any]


class ScheduledEvent:
    """Handle for an event sitting in (or already popped from) the queue.

    The heap entry is the tuple ``(time, priority, sequence, handle)``:
    ``sequence`` is unique, so tuple comparison settles the order in C
    and never reaches the handle.  (The handle used to *be* the entry,
    ordered by a Python ``__lt__`` — one allocation saved, fourteen
    Python comparisons per event paid; docs/perf/18-calls-per-transaction.md.)

    The handle supports cancellation: a cancelled event stays in the heap
    but is skipped by the dispatcher.  This gives O(1) cancel without heap
    surgery, which matters because lock-wait timeouts are cancelled far
    more often than they fire.  Cancellation reports back to the engine so
    its live-event count stays O(1) too.
    """

    __slots__ = ("time", "callback", "label", "cancelled", "dispatched",
                 "_engine")

    def __init__(self, time: float, callback: Callback, label: str,
                 engine: "SimulationEngine") -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.dispatched = False
        self._engine = engine

    def cancel(self) -> bool:
        """Cancel the event.  Returns False if it already ran."""
        if self.dispatched:
            return False
        if not self.cancelled:
            self.cancelled = True
            self._engine._live -= 1
        return True

    @property
    def alive(self) -> bool:
        """True while the event is pending (not cancelled, not dispatched)."""
        return not (self.cancelled or self.dispatched)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "dispatched" if self.dispatched else "pending")
        label = self.label
        if not label:
            # unlabelled (every process timer, every signal fire): named
            # after the callback and its owner, here, when somebody looks.
            label = getattr(self.callback, "__qualname__", "")
            owner = getattr(self.callback, "__self__", None)
            if owner is not None:
                label = f"{label} of {owner!r}"
        label = f" {label!r}" if label else ""
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
        #: ``read_clock()``: the current virtual time, read off the
        #: clock's slot by a C ``getattr`` — no Python frame per read.
        #: What the GTM's clock seam takes.
        self.read_clock: Callable[[], float] = partial(
            getattr, self.clock, "_now")
        self._queue: list[tuple[float, int, int, ScheduledEvent]] = []
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
        return self.clock._now

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
        head = self._live_head()
        return None if head is None else head.time

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, when: float, callback: Callback, *,
                    priority: int = DEFAULT_PRIORITY,
                    label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        # written so that NaN — for which every comparison is False —
        # is refused with everything else that is not "now or later".
        # The clock's slot is read directly: the engine owns its clock,
        # and a property read is one frame per scheduled event.
        now = self.clock._now
        if not (when >= now):
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {now}")
        event = ScheduledEvent(when, callback, label, self)
        heapq.heappush(self._queue,
                       (when, priority, next(self._sequence), event))
        self._live += 1
        return event

    def schedule_after(self, delay: float, callback: Callback, *,
                       priority: int = DEFAULT_PRIORITY,
                       label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if not (delay >= 0):
            raise SimulationError(f"negative delay: {delay}")
        when = self.clock._now + delay
        event = ScheduledEvent(when, callback, label, self)
        heapq.heappush(self._queue,
                       (when, priority, next(self._sequence), event))
        self._live += 1
        return event

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next live event.  Returns False when none remain."""
        event = self._live_head()
        if event is None:
            return False
        heapq.heappop(self._queue)
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
        # step() written out: one frame per event, not peek + step and
        # a head sweep under each.
        queue = self._queue
        clock = self.clock
        heappop = heapq.heappop
        dispatched = 0
        try:
            while not self._stopped:
                while queue and queue[0][3].cancelled:
                    heappop(queue)
                if not queue:
                    break
                when, _, _, event = queue[0]
                if until is not None and when > until:
                    clock.advance_to(until)
                    break
                if max_events is not None and dispatched >= max_events:
                    break
                heappop(queue)
                # the slot written directly (a frame per event saved);
                # advance_to is called only to refuse a step back.
                if not (when >= clock._now):
                    clock.advance_to(when)
                clock._now = when
                event.dispatched = True
                self._live -= 1
                self._events_dispatched += 1
                dispatched += 1
                event.callback(self)
        finally:
            self._running = False
        return clock._now

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
        for entry in self._queue:
            # outstanding handles must not read as alive after the
            # queue they lived in is gone
            entry[3].cancelled = True
        self._queue.clear()
        self._sequence = itertools.count()
        self._events_dispatched = 0
        self._live = 0
        self._stopped = False
        self.clock._driver_reset(start_time)

    # -- internals ----------------------------------------------------------

    def _live_head(self) -> ScheduledEvent | None:
        """The next live event, left queued; cancelled events ahead of
        it are popped on the way (lazy deletion)."""
        queue = self._queue
        while queue:
            event = queue[0][3]
            if not event.cancelled:
                return event
            heapq.heappop(queue)
        return None

    def __repr__(self) -> str:
        return (f"<SimulationEngine now={self.now} pending={self.pending} "
                f"dispatched={self._events_dispatched}>")
