"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.process import Process, Timeout


class TestScheduling:
    def test_schedule_at_runs_callback_at_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(2.0, lambda e: seen.append(e.now))
        engine.run()
        assert seen == [2.0]

    def test_schedule_after_is_relative(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(1.0, lambda e: e.schedule_after(
            0.5, lambda e2: seen.append(e2.now)))
        engine.run()
        assert seen == [1.5]

    def test_schedule_in_past_raises(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda e: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, lambda e: None)

    def test_negative_delay_raises(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda e: None)

    def test_events_dispatch_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(3.0, lambda e: order.append("c"))
        engine.schedule_at(1.0, lambda e: order.append("a"))
        engine.schedule_at(2.0, lambda e: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_dispatches_in_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for label in "abc":
            engine.schedule_at(1.0,
                               lambda e, letter=label: order.append(letter))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(1.0, lambda e: order.append("low"), priority=5)
        engine.schedule_at(1.0, lambda e: order.append("high"), priority=-5)
        engine.run()
        assert order == ["high", "low"]


class TestHandleRepr:
    def test_a_given_label_is_shown(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(1.0, lambda e: None, label="bto:abc")
        assert repr(handle) == "<ScheduledEvent t=1.0 'bto:abc' pending>"

    def test_an_unlabelled_event_is_named_after_its_callback(self):
        # nobody formats a label per event; repr derives one on demand
        engine = SimulationEngine()

        def client():
            yield Timeout(2.0)

        process = Process(engine, client(), name="T7")
        engine.step()  # start: the process now sleeps on its timer
        text = repr(process._pending_timer)
        assert "Process._advance" in text and "'T7'" in text
        assert text.endswith("pending>")


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        engine = SimulationEngine()
        seen = []
        handle = engine.schedule_at(1.0, lambda e: seen.append("ran"))
        assert handle.cancel()
        engine.run()
        assert seen == []

    def test_cancel_after_dispatch_returns_false(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(1.0, lambda e: None)
        engine.run()
        assert not handle.cancel()

    def test_alive_reflects_state(self):
        engine = SimulationEngine()
        handle = engine.schedule_at(1.0, lambda e: None)
        assert handle.alive
        handle.cancel()
        assert not handle.alive

    def test_pending_skips_cancelled(self):
        engine = SimulationEngine()
        engine.schedule_at(1.0, lambda e: None)
        handle = engine.schedule_at(2.0, lambda e: None)
        handle.cancel()
        assert engine.pending == 1


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(1.0, lambda e: seen.append(1))
        engine.schedule_at(10.0, lambda e: seen.append(10))
        final = engine.run(until=5.0)
        assert seen == [1]
        assert final == 5.0
        # the 10.0 event is still pending
        assert engine.pending == 1

    def test_run_resumes_after_until(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(10.0, lambda e: seen.append(10))
        engine.run(until=5.0)
        engine.run()
        assert seen == [10]

    def test_max_events_budget(self):
        engine = SimulationEngine()
        seen = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda e: seen.append(e.now))
        engine.run(max_events=2)
        assert seen == [1.0, 2.0]

    def test_stop_inside_callback(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(1.0, lambda e: (seen.append(1), e.stop()))
        engine.schedule_at(2.0, lambda e: seen.append(2))
        engine.run()
        assert seen == [1]

    def test_run_returns_final_time(self):
        engine = SimulationEngine()
        engine.schedule_at(7.0, lambda e: None)
        assert engine.run() == 7.0

    def test_empty_run_returns_start_time(self):
        engine = SimulationEngine(start_time=3.0)
        assert engine.run() == 3.0

    def test_events_dispatched_counter(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0):
            engine.schedule_at(t, lambda e: None)
        engine.run()
        assert engine.events_dispatched == 2

    def test_step_returns_false_when_empty(self):
        assert not SimulationEngine().step()

    def test_peek_returns_next_live_time(self):
        engine = SimulationEngine()
        cancelled = engine.schedule_at(1.0, lambda e: None)
        engine.schedule_at(2.0, lambda e: None)
        cancelled.cancel()
        assert engine.peek() == 2.0

    def test_peek_empty_returns_none(self):
        assert SimulationEngine().peek() is None


class TestCascades:
    def test_callbacks_can_schedule_chains(self):
        engine = SimulationEngine()
        seen = []

        def tick(e, n=0):
            seen.append(e.now)
            if n < 4:
                e.schedule_after(1.0, lambda e2: tick(e2, n + 1))

        engine.schedule_at(0.0, tick)
        engine.run()
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_zero_delay_event_runs_same_timestamp(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(1.0, lambda e: e.schedule_after(
            0.0, lambda e2: seen.append(e2.now)))
        engine.run()
        assert seen == [1.0]
