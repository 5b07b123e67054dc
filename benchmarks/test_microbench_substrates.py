"""Micro-benchmarks for the substrates under the GTM.

Not a paper artifact — these keep an eye on the building blocks so a
slow simulator or kernel doesn't silently distort the Fig. 3
emulation times.
"""

from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add
from repro.sim.engine import SimulationEngine


def test_bench_sim_engine_event_throughput(benchmark):
    def run_10k_events():
        engine = SimulationEngine()
        count = [0]

        def tick(e):
            count[0] += 1
            if count[0] < 10_000:
                e.schedule_after(0.001, tick)

        engine.schedule_at(0.0, tick)
        engine.run()
        return count[0]

    assert benchmark(run_10k_events) == 10_000


def test_bench_gtm_grant_commit_cycle(benchmark):
    def cycle():
        gtm = GlobalTransactionManager()
        gtm.create_object("X", value=0)
        for k in range(500):
            name = f"T{k}"
            gtm.begin(name)
            gtm.invoke(name, "X", add(1))
            gtm.apply(name, "X", add(1))
            gtm.request_commit(name)
        return gtm.object("X").permanent_value()

    assert benchmark(cycle) == 500
