"""A quick pass of the real command emits every metric it promises."""

import json
import subprocess
import sys

import pytest

from conftest import E2E, ROOT
from e2e.workloads import WORKLOAD_NAMES

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload, trace, seed=5):
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload,
         "--seed", str(seed), "--quick", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _run(workload, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == expected
    value = {name: entry["value"]
             for name, entry in result["metrics"].items()}
    assert value["service.error_frames"] == 0
    if workload == "paper_emulation":
        assert value["sim.run_calls"] > 0 and value["gtm.awake_calls"] > 0
        assert value["sst.execute_calls"] == 0
        assert value["protocol.decode_calls"] == 0
    else:
        assert value["sim.run_calls"] == 0
        assert value["sst.execute_calls"] > 0
        # self times and the residual add up to the timed window
        traced = sum(v for name, v in value.items()
                     if name.endswith("_self_s"))
        assert traced + value["transport.residual_s"] == pytest.approx(
            value["trace.window_s"])
        churn = workload == "wire_churn"
        assert (value["gtm.sleep_calls"] > 0) == churn
        assert (value["gtm.awake_calls"] > 0) == churn


def test_virtual_clock_metrics_repeat_exactly_traced_or_not():
    virtual = ("committed_share", "commit_latency_p50_ms",
               "within_limit_share")
    first = _run("paper_emulation", 0, seed=9)["metrics"]
    second = _run("paper_emulation", 0, seed=9)["metrics"]
    assert [first[m]["value"] for m in virtual] == [
        second[m]["value"] for m in virtual]
    traced = _run("paper_emulation", 1, seed=9)["metrics"]
    assert [first[m]["value"] for m in virtual] == [
        traced["sim." + m]["value"] for m in virtual]


def test_without_the_program_the_command_fails(tmp_path):
    bare = tmp_path / "benchmarks"
    bare.mkdir()
    import shutil
    shutil.copytree(E2E, bare / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "wire_uniform", "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
