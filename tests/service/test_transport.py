"""The transport contract, property by property (docs/SERVICE.md §2–§3).

What ``server.py``'s docstring promises, pinned on both transports
where the property is the transport's and on the in-memory pair where
it is about loop turns: framing (split frames, several frames in one
chunk, the frame limit, end of stream mid-frame), who runs in whose
turn, a receiver that raises, and the client's write flow control.
"""

import asyncio
import gc
import json

import pytest

from repro.core.states import TransactionState
from repro.service import SessionState
from repro.service.client import ConnectionLost, ServiceClient
from repro.service.protocol import MAX_FRAME_BYTES, encode_frame
from repro.service.server import (
    MemoryTransport,
    memory_connector,
    memory_pair,
)
from tests.service.wire import (
    LOST,
    TRANSPORTS,
    RawEnd,
    make_server,
    open_raw,
    settle,
    stub_connection,
    wait_until_detached,
)


def run(coro):
    return asyncio.run(coro)


async def greeted(server, kind: str) -> RawEnd:
    raw = await open_raw(server, kind)
    raw.send({"type": "hello", "id": 1})
    assert (await raw.next())["type"] == "welcome"
    return raw


@pytest.mark.parametrize("kind", TRANSPORTS)
class TestFraming:
    def test_a_frame_split_across_reads_is_one_frame(self, kind):
        async def check():
            service, server = make_server()
            raw = await greeted(server, kind)
            data = encode_frame({"type": "ping", "id": "split"})
            for piece in (data[:1], data[1:9], data[9:-1]):
                raw.send(piece)
                await asyncio.sleep(0.005)  # its own read on the far side
                assert not raw.events  # nothing is answered early
            raw.send(data[-1:] + data[:5])  # ...and the next one begins
            assert await raw.next() == {"type": "pong", "re": "split"}
            raw.send(data[5:])
            assert await raw.next() == {"type": "pong", "re": "split"}
            assert service.metrics.counter("service_frames").total() == 2
            await server.shutdown()
        run(check())

    def test_frames_in_one_chunk_are_answered_in_order(self, kind):
        async def check():
            service, server = make_server()
            raw = await open_raw(server, kind)
            raw.send(b"".join(encode_frame(frame) for frame in (
                {"type": "hello", "id": 1}, {"type": "ping", "id": 2},
                {"type": "begin", "id": 3}, {"type": "ping", "id": 4},
                {"type": "bye", "id": 5}, {"type": "ping", "id": 6})))
            replies = await raw.until_lost()
            # in order (the open transaction's abort is pushed ahead of
            # the goodbye), and nothing after `bye` is handled
            assert [(frame["type"], frame.get("re"))
                    for frame in replies] == [
                ("welcome", 1), ("pong", 2), ("begun", 3), ("pong", 4),
                ("aborted", None), ("goodbye", 5)]
            assert service.metrics.counter("service_frames").total() == 4
            await server.shutdown()
        run(check())

    def test_end_of_stream_mid_frame_sleeps_the_session(self, kind):
        async def check():
            service, server = make_server(bto_timeout=30.0)
            service.create_object("x", value=0)
            raw = await greeted(server, kind)
            raw.send({"type": "begin", "id": 2})
            txn = (await raw.next())["txn"]
            # a whole op frame but for its newline, then the drop
            raw.send(encode_frame({
                "type": "op", "txn": txn, "op": "add", "object": "x",
                "operand": 5, "id": 3})[:-1])
            await asyncio.sleep(0.005)
            raw.transport.close()
            await wait_until_detached(service)
            (session,) = service.sessions.values()
            assert session.state is SessionState.DETACHED
            assert service.gtm.transaction(txn).is_in(
                TransactionState.SLEEPING)
            # the unterminated tail was not a frame: only `begin` ran
            counter = service.metrics.counter
            assert counter("service_frames").total() == 1
            assert counter("service_disconnects").total() == 1
            await server.shutdown()
        run(check())

    @pytest.mark.parametrize("terminated", [False, True])
    def test_an_overlong_line_is_answered_then_the_link_closed(
            self, kind, terminated):
        async def check():
            service, server = make_server()
            raw = await greeted(server, kind)
            # never parsed: valid JSON, but one byte over the limit
            line = b'{"type":"ping","pad":"' + b"x" * MAX_FRAME_BYTES
            line = line[:MAX_FRAME_BYTES - 2] + b'"}'
            assert json.loads(line) and len(line) == MAX_FRAME_BYTES
            raw.send(line + (b" \n" if terminated else b" "),
                     {"type": "ping", "id": "after"})
            (error,) = await raw.until_lost()
            assert (error["type"], error["code"]) == \
                ("error", "wire/malformed")
            assert str(MAX_FRAME_BYTES) in error["message"]
            assert service.metrics.counter("service_frames").total() == 0
            # a dropped link, not a closed session
            await wait_until_detached(service)
            await server.shutdown()
        run(check())

    def test_a_line_at_the_limit_is_a_frame(self, kind):
        async def check():
            service, server = make_server()
            raw = await greeted(server, kind)
            line = b'{"type":"ping","id":7,"pad":"' + b"x" * MAX_FRAME_BYTES
            line = line[:MAX_FRAME_BYTES - 3] + b'"}\n'
            assert len(line) == MAX_FRAME_BYTES
            raw.send(line)
            assert await raw.next() == {"type": "pong", "re": 7}
            await server.shutdown()
        run(check())

    def test_a_garbage_line_is_answered_and_the_link_survives(self, kind):
        async def check():
            service, server = make_server()
            raw = await greeted(server, kind)
            raw.send(b"{nope}\n", b"\xff\xfe\n", b"[1,2]\n",
                     {"type": "ping", "id": 9})
            codes = [(await raw.next())["code"] for _ in range(3)]
            assert codes == ["wire/malformed"] * 3
            assert await raw.next() == {"type": "pong", "re": 9}
            (session,) = service.sessions.values()
            assert session.connected
            await server.shutdown()
        run(check())

    def test_a_line_nested_past_the_recursion_limit_is_answered(self, kind):
        # 2 KB, far under the frame limit: json.loads raised
        # RecursionError on it, which killed the connection unanswered
        async def check():
            service, server = make_server()
            raw = await greeted(server, kind)
            raw.send(b'{"type":"ping","x":' + b"[" * 1000 + b"]" * 1000
                     + b"}\n", {"type": "ping", "id": 2})
            error = await raw.next()
            assert (error["type"], error["code"]) == \
                ("error", "wire/malformed")
            assert "nests too deep" in error["message"]
            assert await raw.next() == {"type": "pong", "re": 2}
            (session,) = service.sessions.values()
            assert session.connected
            await server.shutdown()
        run(check())


class TestTurns:
    def test_every_complete_frame_is_handled_in_the_receiving_turn(self):
        async def check():
            service, server = make_server()
            conn, transport = stub_connection(server)
            ping = encode_frame({"type": "ping", "id": 2})
            conn.data_received(
                encode_frame({"type": "hello", "id": 1}) + ping + ping[:4])
            # no await since: both replies were written in that call
            assert [json.loads(data)["type"]
                    for data in transport.written] == ["welcome", "pong"]
            conn.data_received(ping[4:] + ping)
            assert len(transport.written) == 4
        run(check())

    def test_the_handler_does_not_run_inside_send(self):
        async def check():
            service, server = make_server()
            client = ServiceClient(server.connect_memory())
            await client.hello()
            handled = service.metrics.counter("service_frames")
            ping = asyncio.ensure_future(client.ping())
            await asyncio.sleep(0)  # the request ran up to its wait
            (fid, box), = client._replies.items()
            # written, not yet received: the server end has its own turn
            assert handled.total() == 0 and not box.frames
            await asyncio.sleep(0)
            # ...in which it handled the frame, replied, and the reply
            # was routed into the mailbox before the request woke
            assert handled.total() == 1 and not ping.done()
            assert list(box.frames) == [{"type": "pong", "re": fid}]
            assert await ping == {"type": "pong", "re": fid}
            await server.shutdown()
        run(check())

    def test_two_clients_hammering_one_server_interleave(self):
        async def check():
            service, server = make_server()
            order: list[str] = []

            async def hammer(name: str) -> None:
                client = ServiceClient(server.connect_memory())
                await client.hello()
                for _ in range(50):
                    await client.ping()
                    order.append(name)
                await client.bye()

            await asyncio.gather(hammer("a"), hammer("b"))
            # a round trip cannot finish without yielding, so neither
            # client ever gets more than one reply ahead of the other
            lead = 0
            for name in order:
                lead += 1 if name == "a" else -1
                assert abs(lead) <= 1
            await server.shutdown()
        run(check())

    def test_a_raising_receiver_loses_its_link_not_the_service(self):
        class Choker(RawEnd):
            def data_received(self, data: bytes) -> None:
                raise RuntimeError("choked on " + repr(data[:16]))

        async def check():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context))
            service, server = make_server(bto_timeout=30.0)
            choker = Choker(server.connect_memory())
            choker.send({"type": "hello", "id": 1})
            await asyncio.sleep(0)
            # the welcome was written inside `connect`, the receiver
            # raised under it, and `connect` never saw the exception
            (session,) = service.sessions.values()
            assert session.connected
            assert service.metrics.counter("service_connects").total() == 1
            assert [type(context["exception"]) for context in reported] \
                == [RuntimeError]
            # a dead peer: the link goes, the session sleeps
            assert await choker.next() == LOST
            assert session.state is SessionState.DETACHED
            # and the service serves on
            client = ServiceClient(server.connect_memory())
            await client.hello()
            assert (await client.ping())["type"] == "pong"
            await client.bye()
            await server.shutdown()
        run(check())


class Recorder(RawEnd):
    """A raw client end that logs, under its name, each receive."""

    def __init__(self, transport, name: str, log: list) -> None:
        super().__init__(transport)
        self.name, self.log = name, log

    def data_received(self, data: bytes) -> None:
        self.log.append(self.name)
        super().data_received(data)


def counting_deliveries(loop) -> list:
    """Patch ``loop.call_soon`` to log every in-memory delivery it is
    asked to schedule; ``del loop.call_soon`` undoes it."""
    scheduled = []
    call_soon = loop.call_soon

    def counting(callback, *args, **kwargs):
        if getattr(callback, "__func__", None) is MemoryTransport._deliver:
            scheduled.append(callback.__self__)
        return call_soon(callback, *args, **kwargs)

    loop.call_soon = counting
    return scheduled


class TestOneDeliveryPerTurn:
    """Every server end that received a burst in a turn is delivered by
    one loop callback, in the order the ends first received bytes
    (docs/SERVICE.md §2)."""

    CLIENTS = 16

    async def clients(self, server, log):
        raws = []
        for index in range(self.CLIENTS):
            raw = Recorder(server.connect_memory(), f"c{index}", log)
            raw.send({"type": "hello", "id": 0})
            raws.append(raw)
        for raw in raws:
            assert (await raw.next())["type"] == "welcome"
        log.clear()
        return raws

    def test_sixteen_bursts_in_one_turn_take_one_callback(self):
        async def check():
            service, server = make_server()
            log: list[str] = []
            raws = await self.clients(server, log)
            loop = asyncio.get_running_loop()
            scheduled = counting_deliveries(loop)
            try:
                for raw in reversed(raws):  # arrival order, not creation
                    raw.send({"type": "ping", "id": raw.name})
                await asyncio.sleep(0)
            finally:
                del loop.call_soon
            # one callback, on the end that received bytes first
            assert scheduled == [raws[-1].transport._peer]
            assert log == [raw.name for raw in reversed(raws)]
            for raw in raws:
                assert await raw.next() == {"type": "pong", "re": raw.name}
            await server.shutdown()
        run(check())

    def test_an_end_closed_while_listed_is_skipped(self):
        async def check():
            service, server = make_server()
            log: list[str] = []
            first, second = (await self.clients(server, log))[:2]
            first.send({"type": "ping", "id": 1})
            second.send({"type": "ping", "id": 2})
            # the end that opened the turn goes before it is delivered
            first.transport._peer.abort()
            assert await second.next() == {"type": "pong", "re": 2}
            assert await first.next() == LOST
            assert first.events == [] and log == ["c1"]
            # the second ping was handled, the lost one not (``hello``
            # goes through ``connect``, which this counter does not see)
            assert service.metrics.counter("service_frames").total() == 1
            await server.shutdown()
        run(check())

    def test_bytes_written_during_the_drain_arrive_next_turn_in_order(self):
        class Echo(Recorder):
            """Sends two more pings from inside its first receive."""

            def data_received(self, data: bytes) -> None:
                super().data_received(data)
                if self.log.count(self.name) == 1:
                    self.send({"type": "ping", "id": "a2"},
                              {"type": "ping", "id": "a3"})

        async def check():
            service, server = make_server()
            log: list[str] = []
            raws = await self.clients(server, log)
            first = Echo(raws[0].transport, "echo", log)
            first.send({"type": "ping", "id": "a1"})
            raws[1].send({"type": "ping", "id": "b1"})
            handled = service.metrics.counter("service_frames")
            await asyncio.sleep(0)  # one turn: the drain ran
            assert log == ["echo", "c1"]
            assert handled.total() == 2  # a2 and a3 wait for a turn
            await asyncio.sleep(0)
            assert handled.total() == 4
            assert [frame["re"] for frame in first.events] == \
                ["a1", "a2", "a3"]
            await server.shutdown()
        run(check())


class TestClientFlowControl:
    """A request's write never waits for the peer — unless the transport
    said ``pause_writing``, and then only until ``resume_writing`` or
    the end of the transport.

    The peer is a hand-held end whose reading is paused, and it answers
    blind: a ``pong`` written back lands in the request's mailbox at
    once, so a request that is not done has not finished its write."""

    PAD = "x" * (MAX_FRAME_BYTES // 2)

    def request(self, client):
        # the client numbers its requests 1, 2, ... in the order made
        return asyncio.ensure_future(
            client.request({"type": "ping", "pad": self.PAD}))

    def test_send_parks_only_while_writing_is_paused(self):
        async def check():
            client_end, server_end = memory_pair()
            peer = RawEnd(server_end)
            client = ServiceClient(client_end)
            server_end.pause_reading()  # a peer that stopped reading
            first = self.request(client)
            await settle()
            assert client._writable is None  # still under the mark
            peer.send({"type": "pong", "re": 1})
            assert (await asyncio.wait_for(first, 1.0))["re"] == 1
            # the second frame crosses it: this request and the next park
            parked = [self.request(client) for _ in range(2)]
            await settle()
            peer.send({"type": "pong", "re": 2}, {"type": "pong", "re": 3})
            await settle()
            assert not any(request.done() for request in parked)
            assert client_end.get_write_buffer_size() > MAX_FRAME_BYTES
            server_end.resume_reading()
            await asyncio.wait_for(asyncio.gather(*parked), 1.0)
            assert [frame["id"] for frame in peer.events] == [1, 2, 3]
            # and a request after the buffer drained writes at once
            last = self.request(client)
            await settle()
            peer.send({"type": "pong", "re": 4})
            await asyncio.wait_for(last, 1.0)
        run(check())

    def test_parked_send_raises_when_the_transport_dies(self):
        async def check():
            client_end, server_end = memory_pair()
            peer = RawEnd(server_end)
            client = ServiceClient(client_end)
            server_end.pause_reading()
            first = self.request(client)
            await settle()
            peer.send({"type": "pong", "re": 1})
            await first
            parked = self.request(client)
            await settle()
            assert not parked.done()
            server_end.abort()  # the peer will read no more
            with pytest.raises(ConnectionLost):
                await asyncio.wait_for(parked, 1.0)
            with pytest.raises(ConnectionLost):
                await self.request(client)
        run(check())

    def test_a_cancelled_sender_does_not_release_the_others(self):
        async def check():
            client_end, server_end = memory_pair()
            peer = RawEnd(server_end)
            client = ServiceClient(client_end)
            server_end.pause_reading()
            first = self.request(client)
            await settle()
            peer.send({"type": "pong", "re": 1})
            await first
            cancelled, second = (self.request(client) for _ in range(2))
            await settle()
            peer.send({"type": "pong", "re": 3})
            cancelled.cancel()
            await settle()
            assert cancelled.cancelled() and not second.done()
            server_end.resume_reading()
            assert (await asyncio.wait_for(second, 1.0))["re"] == 3
        run(check())


class TestLostLinks:
    """An in-memory end that delivered ``connection_lost`` lets go of
    its protocol and its peer, so a dropped link is freed by reference
    counting — the cyclic collector never has to find it."""

    DROPS = 20

    def test_drop_and_resume_cycles_leave_no_cyclic_garbage(self):
        async def cycle(connector, token, index):
            client = ServiceClient(*await connector())
            await client.hello(token)
            txn = await client.begin()
            await client.op(txn, "add", f"o{index % 4}", 1)
            client.drop()  # the mobile client's outage
            await settle()
            return client.token

        async def check():
            service, server = make_server(bto_timeout=30.0)
            for index in range(4):
                service.create_object(f"o{index}", value=1)
            connector = memory_connector(server)
            token = await cycle(connector, None, 0)
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                for index in range(self.DROPS):
                    await cycle(connector, token, index)
                gc.collect()
                garbage = [type(thing).__name__ for thing in gc.garbage]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            assert garbage == []
            assert service.metrics.counter("service_resumes").total() \
                == self.DROPS
            await server.shutdown()
        run(check())

    def test_a_lost_end_is_still_safe_to_use(self):
        async def check():
            client_end, server_end = memory_pair()
            client, server = RawEnd(client_end), RawEnd(server_end)
            server_end.pause_reading()
            client.send({"type": "ping", "id": 1})
            client_end.close()
            assert await client.next() == LOST
            assert await server.next() == LOST
            for end in (client_end, server_end):
                assert end._protocol is None and end._peer is None
                end.write(b"late\n")
                assert end.get_write_buffer_size() == 0
                end.resume_reading()
                end.abort()
                end.close()
                assert end.is_closing()
            assert client.events == server.events == []
        run(check())
