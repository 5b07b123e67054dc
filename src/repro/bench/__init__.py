"""Experiment harness regenerating every table and figure of the paper.

Each experiment driver in :mod:`repro.bench.experiments` produces the
rows/series the corresponding paper artifact plots; the registry maps
experiment ids (``fig1``, ``fig2``, ``fig3``, ``table1``, ``table2``,
plus the ablations) to drivers, and ``python -m repro.bench <id>``
prints them.  The pytest-benchmark modules ``benchmarks/test_*.py``
time the same drivers and assert each artifact's shape; the live
service's end-to-end benchmark is ``benchmarks/e2e/`` (``BENCHMARK.json``).
"""

from repro.bench.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = ["EXPERIMENTS", "get_experiment", "list_experiments"]
