"""A dropped kernel is freed when it is dropped.

Ownership points one way: the scheduler owns its engine and its GTM,
the engine owns its clock, the GTM owns its subsystems, the service
owns its GTM and its backend, and none of them holds its owner
strongly (the two real back-calls, the facade's ``abort`` and the
service's bus tap, go through a weak reference).  So reference
counting frees the whole graph the moment its last reference goes, and
the cyclic collector never has to find a kernel, its objects, its
transactions or its log.

Every test runs with the collector switched off: a weak reference to
the GTM, the engine, the backend or the service must be dead as soon as
the last strong reference is dropped, and a ``gc.collect()`` afterwards
must find nothing.  The control leg puts one strong back-edge into the
facade and watches the check catch it.
"""

import asyncio
import contextlib
import gc
import types
import weakref

import pytest

# imported up front: sqlite3's import builds cycles of its own, which
# collector_off() must collect before a test starts, not find after
import repro.ldbs.sqlite_backend  # noqa: F401
from repro.check.fuzzer import FuzzConfig
from repro.check.runner import run_campaign
from repro.check.service_fuzzer import ServiceFuzzConfig, run_service_campaign
from repro.core import gtm as gtm_module
from repro.schedulers import gtm_scheduler
from repro.schedulers.gtm_scheduler import GTMScheduler, GTMSchedulerConfig
from repro.service.client import ServiceClient
from repro.service.server import memory_connector
from repro.sim.engine import SimulationEngine
from repro.workload.generator import (
    PaperWorkloadConfig,
    generate_paper_workload,
)
from tests.service.wire import make_server, settle

WORKLOAD = generate_paper_workload(PaperWorkloadConfig(
    n_transactions=60, beta=0.3, inactivity_probability=0.3,
    seed=5)).workload

EPISODES = 20
#: Seconds a dropped client may stay away in the service test.
BTO_S = 0.05


@contextlib.contextmanager
def collector_off():
    """Collect what came before, then keep the cyclic collector out."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def survivors(refs: dict[str, weakref.ref]) -> list[str]:
    return sorted(name for name, ref in refs.items() if ref() is not None)


def run_and_drop(config: GTMSchedulerConfig, monkeypatch):
    """Run the workload, drop the scheduler and its result, and return
    weak references to what the run built, with the commit count."""
    engines = []

    def engine(*args, **kwargs):
        built = SimulationEngine(*args, **kwargs)
        engines.append(weakref.ref(built))
        return built

    monkeypatch.setattr(gtm_scheduler, "SimulationEngine", engine)
    scheduler = GTMScheduler(config)
    result = scheduler.run(WORKLOAD)
    refs = {"scheduler": weakref.ref(scheduler),
            "gtm": weakref.ref(scheduler.last_gtm), "engine": engines[0]}
    if scheduler.last_backend is not None:
        refs["backend"] = weakref.ref(scheduler.last_backend)
    committed = len(result.collector.committed())
    del scheduler, result
    return refs, committed


@pytest.mark.parametrize("config", [
    GTMSchedulerConfig(),
    GTMSchedulerConfig(ldbs_backend="memory"),
    GTMSchedulerConfig(ldbs_backend="sqlite"),
    GTMSchedulerConfig(obs=True),
], ids=["virtual", "memory", "sqlite", "observed"])
def test_a_dropped_run_is_freed_by_reference_counting(config, monkeypatch):
    with collector_off():
        refs, committed = run_and_drop(config, monkeypatch)
        assert committed > 0
        assert survivors(refs) == []
        assert gc.collect() == 0


def test_a_strong_back_edge_is_caught(monkeypatch):
    """Control leg: a facade whose subsystems hold it strongly (its
    weak proxy swapped for the facade itself) survives the drop."""
    monkeypatch.setattr(gtm_module, "weakref",
                        types.SimpleNamespace(proxy=lambda facade: facade))
    with collector_off():
        refs, _ = run_and_drop(GTMSchedulerConfig(), monkeypatch)
        assert "gtm" in survivors(refs)
        assert gc.collect() > 0
    assert survivors(refs) == []


@pytest.mark.parametrize("backend", [None, "memory", "sqlite"])
def test_a_shut_down_service_is_freed(backend):
    """Behind the server, over the in-memory transport: a commit, a
    queued op, a client whose BTO timer fired, one whose timer is still
    armed at shutdown and one still connected when the server shuts
    down."""
    async def serve():
        service, server = make_server(bto_timeout=BTO_S,
                                      ldbs_backend=backend)
        connector = memory_connector(server)
        holder = ServiceClient(*await connector())
        await holder.hello()
        waiter = ServiceClient(*await connector())
        await waiter.hello()
        first = await holder.begin()
        await holder.op(first, "add", "x", 1)
        second = await waiter.begin()
        queued = asyncio.ensure_future(waiter.op(second, "assign", "x", 5))
        await settle()  # queued behind first
        await holder.commit(first)
        assert (await queued)["type"] == "granted"
        await waiter.commit(second)
        third = await waiter.begin()
        await waiter.op(third, "add", "y", 2)
        waiter.drop()  # ⟨sleep⟩, BTO timer armed ...
        await asyncio.sleep(3 * BTO_S)  # ... and fired
        assert service.metrics.counter("service_bto_aborts").total() == 1
        late = ServiceClient(*await connector())
        await late.hello()
        await late.op(await late.begin(), "add", "z", 1)
        late.drop()  # armed, cancelled by the shutdown
        await settle()
        fourth = await holder.begin()
        await holder.op(fourth, "add", "y", 3)
        await server.shutdown()
        await settle()
        refs = {"service": weakref.ref(service),
                "gtm": weakref.ref(service.gtm),
                "server": weakref.ref(server)}
        if service.backend is not None:
            refs["backend"] = weakref.ref(service.backend)
        return refs

    with collector_off():
        refs = asyncio.run(serve())
        assert survivors(refs) == []
        assert gc.collect() == 0


def test_a_gtm_campaign_leaves_nothing_to_the_collector():
    with collector_off():
        report = run_campaign(FuzzConfig(scheduler="gtm"), 42, EPISODES,
                              shrink_failures=False)
        assert report.ok
        assert gc.collect() == 0


def test_a_service_fuzz_campaign_leaves_nothing_to_the_collector():
    """Each connection of the episode runner is its session's sink, so
    a dropped one is freed too (a sink closure that pointed back at its
    connection left ten cycles an episode)."""
    with collector_off():
        report = run_service_campaign(ServiceFuzzConfig(), 42, EPISODES,
                                      shrink_failures=False)
        assert report.ok
        assert gc.collect() == 0
