"""Generator-based simulation processes.

A *process* is a Python generator driven by the engine.  The generator
yields command objects:

- :class:`Timeout` — suspend for a virtual-time delay;
- :class:`WaitEvent` — suspend until a :class:`Signal` fires (optionally
  with a timeout);
- another :class:`Process` — suspend until that process terminates.

The value sent back into the generator is the payload of the signal (or
``None`` for a timeout).  A :class:`Signal` is a broadcast one-shot
condition: any number of processes can wait on it, and ``fire(payload)``
resumes them all at the current virtual time.

This is the substrate the mobile-client emulation runs on: each client is
one process interleaving think times, operation submissions and
disconnection intervals.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.errors import ProcessError
from repro.sim.engine import ScheduledEvent, SimulationEngine

ProcessBody = Generator[Any, Any, Any]


class Timeout:
    """Command: suspend the process for ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not (delay >= 0):  # NaN fails every comparison: refuse it too
            raise ProcessError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Signal:
    """A broadcast condition processes can wait on.

    A signal may fire many times; each ``fire`` wakes the waiters that were
    registered at that moment.  The payload passed to :meth:`fire` becomes
    the value of the ``yield`` expression in each waiter.
    """

    __slots__ = ("name", "waiters", "fire_count", "last_payload")

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: the processes the next :meth:`fire` resumes.  A process
        #: joins it by yielding a :class:`WaitEvent`; others only read.
        self.waiters: list["Process"] = []
        self.fire_count = 0
        self.last_payload: Any = None

    def fire(self, payload: Any = None) -> int:
        """Wake all current waiters.  Returns how many were woken."""
        waiters, self.waiters = self.waiters, []
        self.fire_count += 1
        self.last_payload = payload
        for process in waiters:
            process._resume_from_signal(self, payload)
        return len(waiters)

    def _unregister(self, process: "Process") -> None:
        try:
            self.waiters.remove(process)
        except ValueError:
            pass

    @property
    def waiter_count(self) -> int:
        return len(self.waiters)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"<Signal{name} waiters={len(self.waiters)}>"


class WaitEvent:
    """Command: suspend until ``signal`` fires, or until ``timeout``.

    If the timeout elapses first the process is resumed with the sentinel
    :data:`WaitEvent.TIMED_OUT` as its yield value.
    """

    TIMED_OUT = object()

    __slots__ = ("signal", "timeout")

    def __init__(self, signal: Signal, timeout: float | None = None) -> None:
        self.signal = signal
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"WaitEvent({self.signal!r}, timeout={self.timeout!r})"


class Process:
    """A generator coroutine scheduled on a :class:`SimulationEngine`."""

    def __init__(self, engine: SimulationEngine, body: ProcessBody,
                 name: str = "", start_delay: float = 0.0) -> None:
        self.engine = engine
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self.error: BaseException | None = None
        # built by the first joiner: most processes never have one
        self._done_signal: Signal | None = None
        self._pending_timer: ScheduledEvent | None = None
        self._waiting_on: Signal | None = None
        engine.schedule_after(start_delay, self._advance)

    @property
    def done_signal(self) -> Signal:
        """Fires with the result when the process finishes."""
        if self._done_signal is None:
            self._done_signal = Signal(f"{self.name}.done")
        return self._done_signal

    # -- engine callbacks ---------------------------------------------------

    def _resume_from_timeout(self, _engine: SimulationEngine) -> None:
        if self._waiting_on is not None:
            self._waiting_on._unregister(self)
            self._waiting_on = None
        self._advance(None, WaitEvent.TIMED_OUT)

    def _resume_from_signal(self, signal: Signal, payload: Any) -> None:
        if self._waiting_on is not signal:
            return
        self._waiting_on = None
        if self._pending_timer is not None:
            self._pending_timer.cancel()
        self._advance(None, payload)

    # -- the driver ---------------------------------------------------------

    def _advance(self, _engine: SimulationEngine | None = None,
                 value: Any = None) -> None:
        """Resume the body with ``value`` and carry out the command it
        yields next.  The engine calls it at the start and when a timer
        ends (passing itself, unused), so that neither costs a frame
        more; a resume with a payload passes None for the engine."""
        if self.finished:
            return
        # whatever woke the process, its timer is spent or cancelled
        self._pending_timer = None
        try:
            command = self.body.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # propagate, but mark finished
            self._finish(error=exc)
            raise
        if isinstance(command, Timeout):
            self._pending_timer = self.engine.schedule_after(
                command.delay, self._advance)
        elif isinstance(command, WaitEvent):
            self._waiting_on = command.signal
            command.signal.waiters.append(self)
            if command.timeout is not None:
                self._pending_timer = self.engine.schedule_after(
                    command.timeout, self._resume_from_timeout)
        elif isinstance(command, Process):
            if command.finished:
                self.engine.schedule_after(
                    0.0, lambda _e, r=command.result: self._advance(_e, r))
            else:
                self._waiting_on = command.done_signal
                command.done_signal.waiters.append(self)
        else:
            error = ProcessError(
                f"process {self.name!r} yielded unknown command "
                f"{command!r}; expected Timeout, WaitEvent or Process")
            self._finish(error=error)
            raise error

    def _finish(self, result: Any = None,
                error: BaseException | None = None) -> None:
        self.finished = True
        self.result = result
        self.error = error
        if self._done_signal is not None:
            self._done_signal.fire(result)

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


def run_all(engine: SimulationEngine, bodies: Iterable[ProcessBody],
            until: float | None = None) -> list[Process]:
    """Convenience: wrap each generator in a Process and run the engine."""
    processes = [Process(engine, body) for body in bodies]
    engine.run(until=until)
    return processes
