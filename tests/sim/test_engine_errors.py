"""Error-path tests for the simulation engine and error hierarchy."""

import pytest

from repro.errors import (
    BackendConflictError,
    ProcessError,
    ReproError,
    SimulationError,
    SSTFailure,
    TransactionAborted,
)
from repro.sim.engine import SimulationEngine
from repro.sim.process import Timeout


class TestEngineErrorPaths:
    def test_reentrant_run_rejected(self):
        engine = SimulationEngine()
        seen = []

        def reenter(e):
            try:
                e.run()
            except SimulationError as exc:
                seen.append(str(exc))

        engine.schedule_at(1.0, reenter)
        engine.run()
        assert seen and "re-entrant" in seen[0]

    def test_engine_usable_after_callback_exception(self):
        engine = SimulationEngine()

        def boom(e):
            raise ValueError("callback failed")

        engine.schedule_at(1.0, boom)
        engine.schedule_at(2.0, lambda e: None)
        with pytest.raises(ValueError):
            engine.run()
        # the _running flag was released by the finally block
        assert engine.run() == 2.0


class TestNaNTimes:
    """``nan < now`` is False, so a ``when < now`` guard lets NaN in; the
    event dispatches last, ``engine.now`` reads nan, and from then on
    every monotonicity check passes — time can run backwards."""

    NAN = float("nan")

    def test_schedule_at_nan_raises(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(self.NAN, lambda e: None)
        assert engine.pending == 0

    def test_schedule_after_nan_raises(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(self.NAN, lambda e: None)
        assert engine.pending == 0

    def test_timeout_nan_raises(self):
        with pytest.raises(ProcessError):
            Timeout(self.NAN)

    def test_time_stays_monotone_after_the_refusals(self):
        engine = SimulationEngine()
        engine.schedule_at(2.0, lambda e: None)
        for schedule in (engine.schedule_at, engine.schedule_after):
            with pytest.raises(SimulationError):
                schedule(self.NAN, lambda e: None)
        assert engine.run() == 2.0
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda e: None)


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for error in (SimulationError("x"), BackendConflictError("T1"),
                      TransactionAborted("T1"), SSTFailure("T1")):
            assert isinstance(error, ReproError)

    def test_transaction_aborted_carries_reason(self):
        error = TransactionAborted("T1", reason="timeout")
        assert error.txn_id == "T1"
        assert "timeout" in str(error)

    def test_sst_failure_carries_reason(self):
        error = SSTFailure("T1", "constraint")
        assert "constraint" in str(error)
        assert error.txn_id == "T1"
