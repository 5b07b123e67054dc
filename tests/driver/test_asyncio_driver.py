"""Tests for the wall-time asyncio driver behind the Driver seam."""

import asyncio

import pytest

from repro.driver import Clock, Driver, TimerHandle
from repro.driver.asyncio_driver import AsyncioDriver
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine


def run(coro):
    return asyncio.run(coro)


class TestDriverProtocol:
    def test_simulation_engine_is_a_driver(self):
        engine = SimulationEngine()
        assert isinstance(engine, Driver)
        assert isinstance(engine.clock, Clock)

    def test_asyncio_driver_is_a_driver(self):
        async def check():
            driver = AsyncioDriver()
            assert isinstance(driver, Driver)
            assert isinstance(driver.clock, Clock)
        run(check())


class TestAsyncioDriver:
    def test_now_starts_near_zero(self):
        async def check():
            assert AsyncioDriver().now < 1.0
        run(check())

    def test_schedule_after_fires_with_driver_argument(self):
        async def check():
            driver = AsyncioDriver()
            fired = asyncio.Event()
            seen = []

            def callback(drv):
                seen.append(drv)
                fired.set()

            handle = driver.schedule_after(0.01, callback)
            assert isinstance(handle, TimerHandle)
            await asyncio.wait_for(fired.wait(), timeout=2.0)
            assert seen == [driver]
            assert not handle.alive
            assert driver.events_dispatched == 1
        run(check())

    def test_schedule_at_absolute_time(self):
        async def check():
            driver = AsyncioDriver()
            fired = asyncio.Event()
            driver.schedule_at(driver.now + 0.01,
                               lambda drv: fired.set())
            await asyncio.wait_for(fired.wait(), timeout=2.0)
        run(check())

    def test_cancel_prevents_dispatch(self):
        async def check():
            driver = AsyncioDriver()
            fired = []
            handle = driver.schedule_after(0.01,
                                           lambda drv: fired.append(1))
            assert handle.alive
            assert handle.cancel() is True
            assert not handle.alive
            # idempotent, same as ScheduledEvent: True until dispatched
            assert handle.cancel() is True
            await asyncio.sleep(0.03)
            assert fired == []
            assert driver.events_dispatched == 0
        run(check())

    def test_past_schedule_at_rejected(self):
        async def check():
            driver = AsyncioDriver()
            with pytest.raises(SimulationError):
                driver.schedule_at(driver.now - 1.0, lambda drv: None)
        run(check())

    def test_negative_delay_rejected(self):
        async def check():
            driver = AsyncioDriver()
            with pytest.raises(SimulationError):
                driver.schedule_after(-0.5, lambda drv: None)
        run(check())

    def test_nan_times_rejected(self):
        async def check():
            driver = AsyncioDriver()
            with pytest.raises(SimulationError):
                driver.schedule_at(float("nan"), lambda drv: None)
            with pytest.raises(SimulationError):
                driver.schedule_after(float("nan"), lambda drv: None)
        run(check())


class TestSeamEquivalence:
    """The same timer code runs under either driver."""

    @staticmethod
    def _arm(driver, log):
        driver.schedule_after(
            1.0, lambda drv: log.append(("one", round(drv.now, 3))))
        driver.schedule_after(
            2.0, lambda drv: log.append(("two", round(drv.now, 3))))

    def test_under_simulation_engine(self):
        engine = SimulationEngine()
        log = []
        self._arm(engine, log)
        engine.run()
        assert log == [("one", 1.0), ("two", 2.0)]

    def test_under_asyncio_driver_preserves_order(self):
        async def check():
            driver = AsyncioDriver()
            log = []
            # scaled down: wall seconds are real here
            driver.schedule_after(
                0.01, lambda drv: log.append("one"))
            driver.schedule_after(
                0.02, lambda drv: log.append("two"))
            await asyncio.sleep(0.1)
            return log
        assert run(check()) == ["one", "two"]
