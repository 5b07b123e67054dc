"""Smoke run of the GTM perf harness (``python -m repro.bench --profile``).

Not a paper artifact — this pins the acceptance bar of the conflict
kernel optimisation: the bitmask engine must beat the reference engine
by >=3x on the contended hot path, the throughput run must produce
byte-identical outcomes on every engine variant, MVCC reads must beat
locking reads on the read-heavy mix, and the embedded differential
campaign must report zero divergences.  Runs the ``smoke`` profile so
it stays inside the benchmark-suite budget.
"""

import json

from repro.bench.__main__ import main as bench_main
from repro.bench.perf import run_perf


def test_perf_smoke_meets_acceptance_bar():
    payload = run_perf("smoke")
    hot_path = payload["hot_path"]
    assert hot_path["speedup"] >= 3.0, (
        f"bitmask hot path only {hot_path['speedup']:.2f}x faster "
        f"than reference (need >=3x)")
    # the pump-regression gate: the bitmask engine's memoized blocked
    # tester must never be slower than the reference pairwise scan
    # (this regressed once — PR 7's committed baseline showed 0.92x).
    pump = payload["pump_microbench"]
    assert pump["speedup"] >= 1.0, (
        f"bitmask pump {pump['speedup']:.2f}x vs reference "
        f"(must be >= 1.0x)")
    assert payload["differential"]["divergences"] == 0
    assert payload["throughput"]["outcomes_identical"] is True
    # episode throughput: every tier must be divergence-free across all
    # engine variants and report positive rates.
    episodes = payload["episode_throughput"]
    assert {t["tier"] for t in episodes["tiers"]} == \
        {"light", "contended", "hotspot"}
    for tier_row in episodes["tiers"]:
        assert tier_row["outcomes_identical"] is True
        engines = {v["engine"] for v in tier_row["variants"]}
        assert engines == {"reference", "bitmask"}
        for variant in tier_row["variants"]:
            assert variant["episodes_per_sec"] > 0
    # lock-free READs must finish the read-heavy mix in less simulated
    # time than locking READs (deterministic: no wall clock involved).
    mvcc = payload["mvcc_reads"]
    assert mvcc["lock_free_reads"] > 0
    assert mvcc["mvcc_dominates"] is True, (
        f"sim makespan {mvcc['sim_makespan_mvcc_s']:.3f}s (mvcc) vs "
        f"{mvcc['sim_makespan_locking_s']:.3f}s (locking)")
    # every variant reports a full latency profile
    for variant in payload["throughput"]["variants"]:
        assert variant["ops_per_sec"] > 0
        assert variant["grant_latency_p99_us"] >= \
            variant["grant_latency_p50_us"] >= 0
    # observability: digest neutrality is a hard gate; the overhead
    # budget must tolerate the measurement noise of shared CI boxes.
    # The metric is a median of paired per-round ratios over a ~30 ms
    # campaign, and repeated runs on one container swing it 9-23%
    # while the true overhead sits near 10% (an earlier committed
    # baseline recorded 30.1% under the same estimator).  25% is the
    # tightest bound that doesn't flake; a genuine per-event regression
    # (e.g. an accidental O(n) in a hook) still trips it.
    obs = payload["observability"]
    assert obs["digests_identical"] is True
    assert obs["grants_total"] > 0
    assert obs["overhead_pct"] <= 25.0, (
        f"observability overhead {obs['overhead_pct']:.1f}% "
        f"exceeds the 25% noise-tolerant budget")


def test_bench_cli_writes_json_and_exits_clean(tmp_path):
    target = tmp_path / "BENCH_gtm.json"
    exit_code = bench_main(["--profile", "smoke", "--json", str(target)])
    assert exit_code == 0
    payload = json.loads(target.read_text())
    assert payload["profile"] == "smoke"
    assert payload["differential"]["divergences"] == 0
    assert "parallel_scaling" not in payload
