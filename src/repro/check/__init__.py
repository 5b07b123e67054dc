"""Correctness checking: seeded stress fuzzing + serializability oracle.

``python -m repro.check --seed 42 --episodes 1000 --scheduler gtm``
drives random multi-transaction episodes through a scheduler, then
verdicts every run with the final-state serializability oracle
(:mod:`repro.check.oracle`) and the structural invariant suite
(:mod:`repro.check.invariants`).  Failures are minimized by the
delta-debugging shrinker (:mod:`repro.check.shrinker`) into ready-to-
paste regression tests.  See ``docs/CHECKING.md``.

The package re-exports nothing: importing one module (the oracle, say)
must not drag in the fuzzers, the simulator and numpy.
"""
