"""Tests for the Clock protocol and its two implementations."""

import time

import pytest

from repro.driver import Clock, VirtualClock, WallClock
from repro.errors import ClockError


class TestClockProtocol:
    def test_virtual_clock_satisfies_protocol(self):
        assert isinstance(VirtualClock(), Clock)

    def test_wall_clock_satisfies_protocol(self):
        assert isinstance(WallClock(), Clock)

    def test_sim_module_reexports_the_same_classes(self):
        # Compatibility: repro.sim.clock must remain import-stable.
        from repro.sim.clock import VirtualClock as SimVirtualClock
        from repro.sim.clock import WallClock as SimWallClock
        assert SimVirtualClock is VirtualClock
        assert SimWallClock is WallClock


class TestWallClock:
    def test_origin_is_captured_at_construction(self):
        # construction reads the source once (100.0 becomes time zero)
        ticks = iter([100.0, 100.0, 100.5, 103.0])
        clock = WallClock(source=lambda: next(ticks))
        assert clock.now == 0.0
        assert clock.now == 0.5
        assert clock.now == 3.0

    def test_source_time_inverts_now(self):
        ticks = iter([100.0])
        clock = WallClock(source=lambda: next(ticks))
        assert clock.source_time(2.5) == 102.5

    def test_default_source_is_monotonic(self):
        clock = WallClock()
        first = clock.now
        time.sleep(0.001)
        assert clock.now >= first >= 0.0


class TestVirtualClockMonotone:
    def test_backwards_is_refused(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ClockError, match="backwards"):
            clock.advance_to(4.0)

    def test_nan_is_refused(self):
        # nan < now is False, and once now is nan every later check
        # passes too: time could then run backwards.
        clock = VirtualClock(5.0)
        with pytest.raises(ClockError):
            clock.advance_to(float("nan"))
        assert clock.now == 5.0
        clock.advance_to(6.0)
        with pytest.raises(ClockError):
            clock.advance_to(5.5)


class TestDriverOwnedReset:
    """Satellite (a): reset is explicit per-driver, not per-clock."""

    def test_unbound_clock_resets_directly(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        clock.reset()
        assert clock.now == 0.0

    def test_bound_clock_refuses_reset(self):
        from repro.sim.engine import SimulationEngine
        engine = SimulationEngine()
        engine.clock.advance_to(5.0)
        with pytest.raises(ClockError, match="owned by"):
            engine.clock.reset()
        # the clock did not move as a side effect of the refusal
        assert engine.clock.now == 5.0

    def test_engine_reset_resets_clock_and_queue(self):
        from repro.sim.engine import SimulationEngine
        engine = SimulationEngine()
        fired = []
        engine.schedule_after(1.0, lambda drv: fired.append(drv.now))
        engine.run()
        assert fired == [1.0]
        stale = engine.schedule_after(9.0, lambda drv: fired.append(-1))
        engine.reset()
        assert engine.clock.now == 0.0
        assert engine.events_dispatched == 0
        # the pre-reset event is gone: running again fires nothing
        engine.run()
        assert fired == [1.0]
        assert not stale.alive

    def test_engine_reset_to_custom_start(self):
        from repro.sim.engine import SimulationEngine
        engine = SimulationEngine()
        engine.schedule_after(2.0, lambda drv: None)
        engine.run()
        engine.reset(start_time=7.0)
        assert engine.clock.now == 7.0

    def test_reset_engine_schedules_and_runs_again(self):
        from repro.sim.engine import SimulationEngine
        engine = SimulationEngine()
        order = []
        engine.schedule_after(1.0, lambda drv: order.append("a"))
        engine.run()
        engine.reset()
        engine.schedule_after(1.0, lambda drv: order.append("b"))
        engine.run()
        assert order == ["a", "b"]
        assert engine.now == 1.0
