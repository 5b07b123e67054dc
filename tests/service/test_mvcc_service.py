"""``mvcc_reads`` over the wire (the in-memory transport).

Lock-free reads keep their one cut across a concurrent commit, and an
``op`` whose transaction the kernel aborts is answered — and counted —
with the kernel's reason: a stale or evicted snapshot is not a deadlock.
"""

import asyncio

from repro.core.gtm import GTMConfig
from repro.ldbs.versions import RING_CAPACITY
from repro.service.client import ServiceClient
from tests.service.wire import make_server, settle


async def _clients(server, count):
    clients = [ServiceClient(server.connect_memory())
               for _ in range(count)]
    for client in clients:
        await client.hello()
    return clients


def _aborts(service):
    return {name: int(entry["series"][""])
            for name, entry in service.metrics.snapshot().items()
            if name.startswith("service_") and name.endswith("_aborts")}


async def _add_and_commit(client, *names):
    txn = await client.begin()
    for name in names:
        assert (await client.op(txn, "add", name, 1))["type"] == "granted"
    assert (await client.commit(txn))["type"] == "committed"


def test_reads_keep_one_cut_and_aborts_carry_the_kernel_reason():
    async def check():
        service, server = make_server(
            gtm_config=GTMConfig(mvcc_reads=True))
        for name in ("flight", "hotel", "car"):
            service.create_object(name, value=0)
        reader, writer = await _clients(server, 2)

        txn = await reader.begin()
        assert (await reader.op(txn, "read", "flight"))["value"] == 0
        await _add_and_commit(writer, "flight", "hotel")
        assert (await reader.op(txn, "read", "hotel"))["value"] == 0
        # promoting the stale snapshot of ``flight`` is refused
        reply = await reader.op(txn, "add", "flight", 1)
        assert (reply["type"], reply["reason"]) == \
            ("aborted", "certification-stale-snapshot")

        txn = await reader.begin()
        assert (await reader.op(txn, "read", "hotel"))["value"] == 1
        for _ in range(RING_CAPACITY):
            await _add_and_commit(writer, "car")
        reply = await reader.op(txn, "read", "car")
        assert (reply["type"], reply["reason"]) == \
            ("aborted", "snapshot-too-old")

        assert _aborts(service) == {
            "service_certification_stale_snapshot_aborts": 1,
            "service_snapshot_too_old_aborts": 1}
        await server.shutdown()
    asyncio.run(check())


def test_a_deadlock_victim_is_still_told_deadlock():
    async def check():
        service, server = make_server()
        for name in ("x", "y"):
            service.create_object(name, value=0)
        a, b = await _clients(server, 2)
        txn_a, txn_b = await a.begin(), await b.begin()
        assert (await a.op(txn_a, "assign", "x", 1))["type"] == "granted"
        assert (await b.op(txn_b, "assign", "y", 1))["type"] == "granted"
        waiting = asyncio.ensure_future(a.op(txn_a, "assign", "y", 2))
        await settle()
        reply = await b.op(txn_b, "assign", "x", 2)  # closes the cycle
        assert (reply["type"], reply["reason"]) == ("aborted", "deadlock")
        assert (await waiting)["type"] == "granted"
        assert _aborts(service) == {"service_deadlock_aborts": 1}
        await server.shutdown()
    asyncio.run(check())


def test_a_wounded_waiter_is_pushed_the_kernel_reason_and_counted_apart():
    async def check():
        service, server = make_server()
        for name in ("x", "y"):
            service.create_object(name, value=0)
        old, young = await _clients(server, 2)
        txn_old, txn_young = await old.begin(), await young.begin()
        assert (await old.op(txn_old, "assign", "x", 1))["type"] == \
            "granted"
        assert (await young.op(txn_young, "assign", "y", 1))["type"] == \
            "granted"
        waiting = asyncio.ensure_future(
            young.op(txn_young, "assign", "x", 2))
        await settle()
        # closes the cycle; the youngest, the waiter, is the victim
        assert (await old.op(txn_old, "assign", "y", 2))["type"] == \
            "granted"
        pushed = await waiting
        assert (pushed["type"], pushed["reason"]) == \
            ("aborted", "deadlock-victim")
        assert _aborts(service) == {"service_wounded_aborts": 1}
        await server.shutdown()
    asyncio.run(check())
