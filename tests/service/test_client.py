"""Client-side routing: the mailbox and the reply/push race.

The test plays the server by hand over a :func:`memory_pair`, so it
decides exactly which frames reach the client in which loop turn.
"""

import asyncio

import pytest

from repro.service.client import ConnectionLost, ServiceClient, _Mailbox
from repro.service.server import memory_pair
from tests.service.wire import RawEnd


def run(coro):
    return asyncio.run(coro)


class ScriptedServer(RawEnd):
    """The server end of a memory pair, driven frame by frame.

    ``send(*frames)`` writes them back to back: they reach the client's
    mailboxes in this turn, before any consumer runs."""

    def __init__(self) -> None:
        client_end, server_end = memory_pair()
        super().__init__(server_end)
        self.client = ServiceClient(client_end)

    async def next_request(self) -> dict:
        return await self.next()

    async def begin(self, txn: str) -> None:
        """Walk the client through ``begin`` so it routes ``txn``."""
        begun = asyncio.ensure_future(self.client.begin())
        request = await self.next_request()
        self.send({"type": "begun", "txn": txn, "re": request["id"]})
        assert await begun == txn


class TestMailbox:
    def test_frames_queue_in_order_without_a_consumer(self):
        box = _Mailbox()
        box.put({"n": 1})
        box.put({"n": 2})
        assert [frame["n"] for frame in box.frames] == [1, 2]

    def test_put_wakes_the_parked_future_once(self):
        async def check():
            box = _Mailbox()
            box.waiter = asyncio.get_running_loop().create_future()
            waiter = box.waiter
            box.put({"n": 1})
            assert waiter.done() and box.waiter is None
            box.put({"n": 2})  # nobody parked: just queued
            assert len(box.frames) == 2
        run(check())

    def test_a_cancelled_consumer_loses_no_frame(self):
        async def check():
            server = ScriptedServer()
            box = _Mailbox()
            consumer = asyncio.ensure_future(
                server.client._next_frame(box))
            await asyncio.sleep(0)
            box.put({"n": 1})   # wakes the consumer...
            consumer.cancel()   # ...which is cancelled before it runs
            with pytest.raises(asyncio.CancelledError):
                await consumer
            assert await server.client._next_frame(box) == {"n": 1}
            assert box.waiter is None
        run(check())


class TestTwoFramesUnderOneId:
    def test_queued_then_granted_later(self):
        async def check():
            server = ScriptedServer()
            await server.begin("t1")
            op = asyncio.ensure_future(
                server.client.op("t1", "assign", "x", 1))
            fid = (await server.next_request())["id"]
            server.send({"type": "queued", "txn": "t1", "re": fid})
            await asyncio.sleep(0.01)
            assert not op.done()  # parked on the regrant
            server.send({"type": "granted", "txn": "t1", "value": 1,
                         "re": fid})
            assert (await op)["type"] == "granted"
            assert not server.client._replies  # the slot is released
        run(check())

    def test_queued_and_granted_in_one_turn(self):
        async def check():
            server = ScriptedServer()
            await server.begin("t1")
            op = asyncio.ensure_future(
                server.client.op("t1", "assign", "x", 1))
            fid = (await server.next_request())["id"]
            server.send({"type": "queued", "txn": "t1", "re": fid},
                        {"type": "granted", "txn": "t1", "value": 7,
                         "re": fid})
            reply = await op
            assert (reply["type"], reply["value"]) == ("granted", 7)
        run(check())

    def test_commit_pending_resolves_through_the_push(self):
        async def check():
            server = ScriptedServer()
            await server.begin("t1")
            commit = asyncio.ensure_future(server.client.commit("t1"))
            fid = (await server.next_request())["id"]
            server.send({"type": "commit-pending", "txn": "t1",
                         "re": fid})
            await asyncio.sleep(0.01)
            assert not commit.done()
            server.send({"type": "committed", "txn": "t1"})  # no `re`
            assert (await commit)["type"] == "committed"
        run(check())


class TestReplyRacesAbortPush:
    def test_abort_push_while_parked_ends_the_wait(self):
        async def check():
            server = ScriptedServer()
            await server.begin("t1")
            op = asyncio.ensure_future(
                server.client.op("t1", "assign", "x", 1))
            fid = (await server.next_request())["id"]
            server.send({"type": "queued", "txn": "t1", "re": fid})
            await asyncio.sleep(0.01)
            server.send({"type": "aborted", "txn": "t1",
                         "reason": "deadlock"})
            reply = await asyncio.wait_for(op, timeout=5.0)
            assert (reply["type"], reply["reason"]) == \
                ("aborted", "deadlock")
            assert "t1" not in server.client._txn_events  # released
        run(check())

    def test_reply_wins_when_both_arrive_in_one_turn(self):
        async def check():
            server = ScriptedServer()
            await server.begin("t1")
            op = asyncio.ensure_future(
                server.client.op("t1", "assign", "x", 1))
            fid = (await server.next_request())["id"]
            server.send({"type": "queued", "txn": "t1", "re": fid})
            await asyncio.sleep(0.01)
            # the push first on the wire, the reply right behind it
            server.send({"type": "aborted", "txn": "t1",
                         "reason": "wounded"},
                        {"type": "granted", "txn": "t1", "value": 1,
                         "re": fid})
            assert (await op)["type"] == "granted"
            # the event was not consumed: the next wait on the
            # transaction sees it
            commit = asyncio.ensure_future(server.client.commit("t1"))
            fid = (await server.next_request())["id"]
            server.send({"type": "commit-pending", "txn": "t1",
                         "re": fid})
            reply = await asyncio.wait_for(commit, timeout=5.0)
            assert (reply["type"], reply["reason"]) == \
                ("aborted", "wounded")
        run(check())

    def test_untracked_transaction_waits_on_the_reply_alone(self):
        async def check():
            server = ScriptedServer()
            commit = asyncio.ensure_future(server.client.commit("t9"))
            fid = (await server.next_request())["id"]
            server.send({"type": "commit-pending", "txn": "t9",
                         "re": fid})
            await asyncio.sleep(0.01)
            # not adopted: the push goes to the inbox, not to the wait
            server.send({"type": "committed", "txn": "t9"})
            await asyncio.sleep(0.01)
            assert not commit.done()
            assert (await server.client.inbox.get())["type"] == \
                "committed"
            server.send({"type": "committed", "txn": "t9", "re": fid})
            assert (await commit)["type"] == "committed"
        run(check())

    def test_lost_connection_poisons_a_parked_race(self):
        async def check():
            server = ScriptedServer()
            await server.begin("t1")
            op = asyncio.ensure_future(
                server.client.op("t1", "assign", "x", 1))
            fid = (await server.next_request())["id"]
            server.send({"type": "queued", "txn": "t1", "re": fid})
            await asyncio.sleep(0.01)
            server.transport.close()
            with pytest.raises(ConnectionLost):
                await asyncio.wait_for(op, timeout=5.0)
        run(check())


class TestHostileFrames:
    def test_an_unhashable_re_or_txn_goes_to_the_inbox(self):
        """A frame whose ``re`` or ``txn`` cannot be an id (a JSON list
        or object) answers no request and names no transaction: it goes
        to ``inbox`` like any unsolicited frame, and the connection
        survives it.  It used to raise ``TypeError`` out of
        ``data_received`` and cost the client its transport."""
        async def check():
            server = ScriptedServer()
            await server.begin("t1")
            server.send({"type": "granted", "re": [1]},
                        {"type": "aborted", "txn": {"id": "t1"}},
                        {"type": "shutdown"})
            client = server.client
            assert client.shutdown_seen
            assert [client.inbox.get_nowait()["type"] for _ in range(3)] \
                == ["granted", "aborted", "shutdown"]
            # the link is still up: a request round-trips
            ping = asyncio.ensure_future(client.ping())
            fid = (await server.next_request())["id"]
            server.send({"type": "pong", "re": fid})
            assert await asyncio.wait_for(ping, timeout=5.0) == \
                {"type": "pong", "re": fid}
        run(check())

    def test_a_line_nested_past_the_recursion_limit_is_dropped(self):
        """A line nested 1000 deep (2 KB, far under the frame limit)
        made ``json.loads`` raise ``RecursionError`` out of
        ``data_received``, which cost the client its transport; it is
        an undecodable line like any other now."""
        async def check():
            server = ScriptedServer()
            ping = asyncio.ensure_future(server.client.ping())
            fid = (await server.next_request())["id"]
            server.send(b'{"type":"pong","x":' + b"[" * 1000 + b"]" * 1000
                        + b"}\n", {"type": "pong", "re": fid})
            assert await asyncio.wait_for(ping, timeout=5.0) == \
                {"type": "pong", "re": fid}
        run(check())
