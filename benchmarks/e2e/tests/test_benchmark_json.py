"""BENCHMARK.json stays inside the driver's contract."""

import json
import re

import pytest

from conftest import ROOT
from e2e.workloads import WORKLOAD_NAMES

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_units_and_shapes(spec):
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_setup_metric_and_workload_names(spec):
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in spec["end_to_end"])}]
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
