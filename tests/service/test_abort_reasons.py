"""Abort reasons over the wire (the in-memory transport).

An ``op`` whose transaction the kernel aborts is answered — and
counted — with the kernel's reason; a waiter wounded by another
transaction's request is pushed that reason and counted apart.
"""

import asyncio

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


def test_a_deadlock_victim_is_told_deadlock():
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
