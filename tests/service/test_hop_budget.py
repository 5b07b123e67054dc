"""The wire path's event-loop budget: callbacks scheduled per round trip.

Every ``loop.call_soon`` is a trip through the event loop's ready
queue, and what a frame costs outside the protocol is mostly those.
One request/response pair needs two: the server end of the link
receives the request in a turn of its own, and the requesting coroutine
wakes on its mailbox.  The reply is written in the handler's own turn
and routed into the mailbox by the client's ``data_received`` in that
same turn.  (A server read loop parked in ``readline`` and a client
reader task made it three; a writer task behind a queue, a forced yield
in ``drain`` and a queue per request made it six.)

The count is a property of the code path, not of timing, so it repeats
exactly and can be pinned.
"""

import asyncio

from repro.driver.asyncio_driver import AsyncioDriver
from repro.service import GTMService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer, memory_connector

ROUND_TRIP_BUDGET = 2
OPS_PER_TXN = 4


def test_callbacks_per_round_trip_stay_within_budget():
    async def check():
        service = GTMService(AsyncioDriver(), config=ServiceConfig())
        for index in range(OPS_PER_TXN):
            service.create_object(f"o{index}", value=1)
        server = ServiceServer(service)
        client = ServiceClient(*await memory_connector(server)())
        await client.hello()
        await client.ping()  # everything lazily built is built

        loop = asyncio.get_running_loop()
        scheduled = 0
        call_soon = loop.call_soon

        def counting_call_soon(callback, *args, **kwargs):
            nonlocal scheduled
            scheduled += 1
            return call_soon(callback, *args, **kwargs)

        loop.call_soon = counting_call_soon
        try:
            per_ping, per_txn = [], []
            for _ in range(3):
                scheduled = 0
                await client.ping()
                per_ping.append(scheduled)
                scheduled = 0
                txn = await client.begin()
                for index in range(OPS_PER_TXN):
                    reply = await client.op(txn, "add", f"o{index}", 1)
                    assert reply["type"] == "granted"
                reply = await client.commit(txn)
                assert reply["type"] == "committed"
                per_txn.append(scheduled)
        finally:
            del loop.call_soon

        assert len(set(per_ping)) == len(set(per_txn)) == 1  # repeats
        assert per_ping[0] == ROUND_TRIP_BUDGET
        # begin + the ops + commit, one round trip each
        assert per_txn[0] == ROUND_TRIP_BUDGET * (OPS_PER_TXN + 2)
        await client.bye()
        await server.shutdown()
    asyncio.run(check())
