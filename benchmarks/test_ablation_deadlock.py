"""Ablation A3 — deadlock handling in the 2PL baseline
(paper Section VII: "timeout or wait for graphs techniques").

Crossing lock orders (X→Y vs Y→X) under strict 2PL.  The wait-for graph
aborts exactly one victim per cycle; a wait timeout added to it also
aborts innocent waiters under contention.  Prints the per-policy table.
"""

from repro.bench.experiments import ablations


def test_ablation_deadlock_policies(benchmark):
    results = benchmark(ablations.run_deadlock)
    print()
    print(ablations.render_deadlock(results))
    by_policy = {r.policy: r for r in results}
    wfg = by_policy["wait-for-graph"]
    assert wfg.deadlocks_detected > 0
    assert wfg.committed + wfg.aborted == 40
    # the graph-based policy wastes the least work
    for name, result in by_policy.items():
        assert wfg.committed >= result.committed
    # timeouts abort innocents as collateral
    assert by_policy["graph + timeout(3s)"].timeout_aborts > 0
