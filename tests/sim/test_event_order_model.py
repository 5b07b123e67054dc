"""The engine against a model: a sorted list keyed (time, priority, sequence).

Random programs of ``schedule_at`` / ``schedule_after(0)`` from inside a
callback / ``cancel`` / ``step`` / ``run(until=…, max_events=…)`` /
``stop`` / ``reset`` — equal timestamps and mixed priorities included —
run on a :class:`SimulationEngine` and on the model below.  After every
rule the two must agree on the dispatch order, the clock, ``pending``,
``events_dispatched``, ``peek()`` and every handle's ``alive``.

Every episode trace and campaign digest in this repository rests on
that order, so this test does not know how the queue is represented:
it is what a change to the heap's entries has to pass unedited.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim.engine import SimulationEngine

PENDING, CANCELLED, DISPATCHED = "pending", "cancelled", "dispatched"

#: plain: log only; chain: also ``schedule_after(0)`` a plain child from
#: inside the callback; stop: also ask a running ``run()`` to stop.
KINDS = ("plain", "plain", "chain", "stop")
#: few distinct values, so equal timestamps are the common case.
DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5)
PRIORITIES = (-1, 0, 0, 1)


class _ModelEvent:
    def __init__(self, ident, time, priority, sequence, kind):
        self.ident = ident
        self.key = (time, priority, sequence)
        self.kind = kind
        self.state = PENDING
        self.handle = None  # the engine's, once scheduled


class EngineAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = SimulationEngine()
        self.events: list[_ModelEvent] = []
        self.engine_log: list[int] = []
        self.model_log: list[int] = []
        self.now = 0.0
        self.dispatched = 0
        self.sequence = 0
        self.stopped = False
        #: chain event -> the child the model added when it ran.
        self._child_of: dict[int, int] = {}

    # -- the model ----------------------------------------------------------

    def _new(self, time, priority, kind):
        event = _ModelEvent(len(self.events), time, priority,
                            self.sequence, kind)
        self.sequence += 1
        self.events.append(event)
        return event

    def _callback(self, event):
        def fire(engine):
            self.engine_log.append(event.ident)
            assert engine.now == event.key[0]
            if event.kind == "chain":
                # the model adds the child when it dispatches the parent
                child = self.events[self._child_of[event.ident]]
                child.handle = engine.schedule_after(
                    0.0, self._callback(child))
            elif event.kind == "stop":
                engine.stop()
        return fire

    def _live(self):
        return sorted((e for e in self.events if e.state == PENDING),
                      key=lambda e: e.key)

    def _model_dispatch(self, event):
        self.now = event.key[0]
        event.state = DISPATCHED
        self.dispatched += 1
        self.model_log.append(event.ident)
        if event.kind == "chain":
            child = self._new(self.now, SimulationEngine.DEFAULT_PRIORITY,
                              "plain")
            self._child_of[event.ident] = child.ident
        elif event.kind == "stop":
            self.stopped = True

    def _model_step(self):
        live = self._live()
        if not live:
            return False
        self._model_dispatch(live[0])
        return True

    def _model_run(self, until, max_events):
        self.stopped = False
        count = 0
        while not self.stopped:
            live = self._live()
            if not live:
                break
            if until is not None and live[0].key[0] > until:
                self.now = until
                break
            if max_events is not None and count >= max_events:
                break
            self._model_dispatch(live[0])
            count += 1
        return self.now

    # -- rules ----------------------------------------------------------------

    @rule(delay=st.sampled_from(DELAYS), priority=st.sampled_from(PRIORITIES),
          kind=st.sampled_from(KINDS), relative=st.booleans())
    def schedule(self, delay, priority, kind, relative):
        event = self._new(self.now + delay, priority, kind)
        if relative:
            event.handle = self.engine.schedule_after(
                delay, self._callback(event), priority=priority)
        else:
            event.handle = self.engine.schedule_at(
                self.now + delay, self._callback(event), priority=priority)
        assert event.handle.time == event.key[0]

    @precondition(lambda self: self.events)
    @rule(data=st.data())
    def cancel(self, data):
        event = data.draw(st.sampled_from(self.events))
        expected = event.state != DISPATCHED
        if event.state == PENDING:
            event.state = CANCELLED
        assert event.handle.cancel() is expected

    @rule()
    def step(self):
        # the model goes first: a chain callback looks its child up
        assert self._model_step() == self.engine.step()

    @rule(until=st.one_of(st.none(), st.sampled_from(DELAYS)),
          max_events=st.one_of(st.none(), st.integers(0, 4)))
    def run(self, until, max_events):
        if until is not None:
            until += self.now
        expected = self._model_run(until, max_events)
        assert self.engine.run(until=until, max_events=max_events) \
            == expected

    @rule()
    def reset(self):
        for event in self.events:
            if event.state == PENDING:
                event.state = CANCELLED
        self.now = 0.0
        self.dispatched = 0
        self.engine.reset()

    # -- agreement, after every rule -------------------------------------------

    @invariant()
    def agree(self):
        engine = self.engine
        assert self.engine_log == self.model_log
        assert engine.now == self.now
        assert engine.events_dispatched == self.dispatched
        live = self._live()
        assert engine.pending == len(live)
        assert engine.peek() == (live[0].key[0] if live else None)
        for event in self.events:
            assert event.handle.alive == (event.state == PENDING)


EngineAgainstModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestEngineAgainstModel = EngineAgainstModel.TestCase
