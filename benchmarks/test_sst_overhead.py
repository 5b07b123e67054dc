"""Extension bench — the SST overhead the paper's model ignores.

Section VI-A: "the times are lower than 2PL ones because we do not take
into account the overhead due to the reconciliation operations and SST
execution."  In this reproduction SSTs are *instantaneous in virtual
time* by construction (they execute synchronously within the commit
event), so the paper's virtual-time results are unaffected — but the
SSTs consume real CPU.  This bench quantifies that real cost: the same
emulated workload with and without an LDBS-backed SST pipeline must
produce identical virtual-time statistics, while the wall-clock
difference *is* the reconciliation + SST overhead.
"""

import pytest

from repro.core.objects import ObjectBinding
from repro.core.sst import SSTExecutor
from repro.ldbs.backend import MemoryBackend
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.schedulers import GTMScheduler, GTMSchedulerConfig
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)

WORKLOAD_CONFIG = PaperWorkloadConfig(n_transactions=500, alpha=0.7,
                                      beta=0.05, seed=2008)


def build_ldbs_backing():
    """An LDBS with one row per workload object, plus the bindings."""
    backend = MemoryBackend()
    backend.create_table(TableSchema(
        "objects", (Column("id", ColumnType.INT),
                    Column("val", ColumnType.FLOAT)),
        primary_key="id"))
    names = WORKLOAD_CONFIG.object_names()
    backend.seed("objects", [
        {"id": index + 1, "val": WORKLOAD_CONFIG.initial_value}
        for index in range(len(names))])
    bindings = {name: ObjectBinding.cell("objects", index + 1, "val")
                for index, name in enumerate(names)}
    return backend, bindings


@pytest.fixture(scope="module")
def generated():
    return generate_paper_workload(WORKLOAD_CONFIG)


def test_bench_gtm_without_sst(benchmark, generated):
    result = benchmark(
        lambda: GTMScheduler(GTMSchedulerConfig()).run(generated.workload))
    assert result.stats.committed > 400


def test_bench_gtm_with_ldbs_sst(benchmark, generated):
    def run():
        backend, bindings = build_ldbs_backing()
        scheduler = GTMScheduler(GTMSchedulerConfig(
            sst_executor=SSTExecutor(backend),
            bindings=bindings))
        return scheduler.run(generated.workload)

    result = benchmark(run)
    assert result.stats.committed > 400
    # one SST per committed transaction actually hit the database
    assert result.extra["sst_executions"] == result.stats.committed


def test_virtual_time_identical_with_and_without_sst(generated):
    """SSTs cost real time only: the emulated metrics must not move."""
    plain = GTMScheduler(GTMSchedulerConfig()).run(generated.workload)
    backend, bindings = build_ldbs_backing()
    backed = GTMScheduler(GTMSchedulerConfig(
        sst_executor=SSTExecutor(backend),
        bindings=bindings)).run(generated.workload)
    assert plain.stats.avg_execution_time == pytest.approx(
        backed.stats.avg_execution_time)
    assert plain.stats.committed == backed.stats.committed
    assert plain.stats.abort_percentage == backed.stats.abort_percentage
    assert plain.final_values == backed.final_values
    # and the LDBS agrees with the middleware on every object
    rows = backend.dump()["objects"]
    for index, name in enumerate(WORKLOAD_CONFIG.object_names()):
        assert rows[index + 1]["val"] == backed.final_values[name]
