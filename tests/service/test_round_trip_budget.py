"""A call budget for one wire transaction, both ends of the wire.

``test_call_budget.py`` counts the server between its two codecs; this
counts everything one event loop runs for a transaction over
``memory_connector``: the repository's own ``ServiceClient`` issuing
the requests, the in-memory transport, ``ServiceServer`` and
``GTMService`` answering them, and asyncio scheduling both sides.  The
transaction, the objects and the counting are that module's (begin,
four ops on distinct objects at the benchmark's 3 / 5 / 1 / 1 mix,
commit; ``sys.setprofile`` ``"call"`` events, so C functions — the
JSON codec, the C task and future — are not counted and the figure
repeats exactly).

Calls per transaction, 400 transactions over 64 objects, CPython 3.11:

=========================================  ======  ======  ==========
                                           memory  sqlite  no backend
=========================================  ======  ======  ==========
a request through ``op`` →                  705.3   691.9   648.0
``_request_followed`` → ``_send`` →
``_next_frame``; the pump after every
frame; the grant hook on every grant;
a request-path grant clearing wait-for
edges it cannot have; ``Fraction`` in
Eq. 2 on integers
one coroutine per request, work-gated      620.0   606.5   562.6
pump and grant hook, no edge clearing
on a fresh grant, Eq. 2 in integers
later server-side changes, the last an op   602.1   602.1   562.6
on a bound object that refuses an int
operand no float can hold (4 of these:
one helper frame per op)
one deadlock component (no wrapper         600.1   600.1   560.6
frame between a finished transaction
and the wait-for graph)
the codec in C (orjson: no                 588.1   588.1   548.6
``JSONDecoder.raw_decode`` frame per
decoded frame)
a request pays once (the server-side       543.2   543.2   503.7
rows of ``test_call_budget.py``; one
loop callback per turn for every server
end with a burst, which a lone client
pays as one per burst)
one commit-time lookup (the server-side    533.2   533.2   493.7
row of ``test_call_budget.py``)
budget (one frame per request above;       559.1   545.6   501.7
lowered by 12.0 with the codec in C, by
44.9 when a request paid once and by
10.0 with one commit-time lookup)
=========================================  ======  ======  ==========

What a re-added level costs, in calls per transaction: a frame per
request on either side (a helper under a verb, a ``_check_reply`` on a
good reply, a coroutine between the verb and its wait) is 6, on both
sides 12; a loop callback per round trip is 6 × (``call_soon``,
``Handle.__init__``, ``Handle._run``, ``get_debug``, ``_check_closed``)
and more; a drain frame between the turn's callback and the first
server end's delivery is 6.  The budgets leave room for a frame per
request on both sides (memory, SQLite) or on one (no backend), not for
a loop callback per round trip.  The intern table starts empty, as in
``test_call_budget.py``.
"""

import asyncio
import sys

import pytest

from repro.driver.asyncio_driver import AsyncioDriver
from repro.service import GTMService, ServiceConfig, protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer, memory_connector
from tests.service.test_call_budget import OBJECTS, TRANSACTIONS, _scripts

#: backend name (None = virtual service) -> calls per transaction.
ROUND_TRIP_BUDGETS = {"memory": 559.1, "sqlite": 545.6, None: 501.7}


async def _transact(client, script):
    txn = await client.begin()
    for op, name, operand in script:
        reply = await client.op(txn, op, name,
                                None if op == "read" else operand)
        assert reply["type"] == "granted", reply
    reply = await client.commit(txn)
    assert reply["type"] == "committed", reply


async def _calls_per_transaction(backend):
    service = GTMService(AsyncioDriver(), config=ServiceConfig(
        retire_finished=True, ldbs_backend=backend))
    for index in range(OBJECTS):
        service.create_object(f"o{index:03d}", value=1)
    server = ServiceServer(service)
    client = ServiceClient(*await memory_connector(server)())
    await client.hello()
    for script in _scripts(8):  # warm: statement caches, lazy imports
        await _transact(client, script)
    scripts = list(_scripts(TRANSACTIONS))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for script in scripts:
            await _transact(client, script)
    finally:
        sys.setprofile(previous)
    await client.bye()
    await server.shutdown()
    assert service.metrics.counter("service_error_frames").total() == 0
    return calls / TRANSACTIONS


@pytest.mark.parametrize("backend", ROUND_TRIP_BUDGETS, ids=str)
def test_a_round_trip_transaction_stays_inside_its_call_budget(backend,
                                                               monkeypatch):
    # the count starts from an empty intern table, whatever ran before
    monkeypatch.setattr(protocol, "_INTERNED", {})
    per_transaction = asyncio.run(_calls_per_transaction(backend))
    assert per_transaction <= ROUND_TRIP_BUDGETS[backend], (
        f"{per_transaction:.1f} Python-level calls per wire transaction, "
        f"client and server in one loop, on backend {backend!r}, budget "
        f"{ROUND_TRIP_BUDGETS[backend]:.1f}: see this module's docstring "
        f"for what each re-added level costs")
