"""End-to-end tests over real asyncio transports.

Everything the session tests prove under the simulator is proven here
under the wall-clock driver: full client conversations over both the
in-memory duplex pair and real TCP sockets, drop ⇒ ⟨sleep⟩ ⇒ reconnect
⇒ ⟨awake⟩, backpressure-by-disconnection, graceful shutdown, and a
small in-process load campaign validated by the serializability
oracle.  (No pytest-asyncio here: each test drives its own loop via
``asyncio.run``.)
"""

import asyncio
import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.check.oracle import check_episode, record_gtm
from repro.core.states import TransactionState
from repro.errors import GTMError, TokenInUse, WireFormatError
from repro.service import GTMService, SessionState
from repro.service.client import ConnectionLost, ServiceClient
from repro.service.protocol import decode_frame, encode_frame
from repro.service.server import memory_connector
from tests.service.wire import (
    LOST,
    StubTransport,
    listening,
    make_server,
    open_raw,
    settle,
    stub_connection,
    tcp_connector,
    wait_until_detached,
)


def run(coro):
    return asyncio.run(coro)


class TestMemoryTransport:
    def test_full_conversation(self):
        async def check():
            service, server = make_server()
            service.create_object("x", value=10)
            client = ServiceClient(server.connect_memory())
            welcome = await client.hello()
            assert welcome["type"] == "welcome"
            txn = await client.begin()
            reply = await client.op(txn, "add", "x", 5)
            assert reply["type"] == "granted"
            assert reply["value"] == 15
            reply = await client.commit(txn)
            assert reply["type"] == "committed"
            assert (await client.ping())["type"] == "pong"
            await client.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 15
        run(check())

    def test_two_clients_conflict_queues_then_grants(self):
        async def check():
            service, server = make_server()
            service.create_object("x", value=0)
            a = ServiceClient(server.connect_memory())
            b = ServiceClient(server.connect_memory())
            await a.hello()
            await b.hello()
            txn_a = await a.begin()
            txn_b = await b.begin()
            assert (await a.op(txn_a, "assign", "x", 1))["type"] == \
                "granted"
            # b's conflicting assign parks; a's commit releases it and
            # the late grant push resolves b's op() await.
            op_b = asyncio.ensure_future(b.op(txn_b, "assign", "x", 2))
            await settle()
            assert not op_b.done()
            assert (await a.commit(txn_a))["type"] == "committed"
            granted = await asyncio.wait_for(op_b, timeout=5.0)
            assert granted["type"] == "granted"
            assert (await b.commit(txn_b))["type"] == "committed"
            await a.bye()
            await b.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 2
        run(check())

    def test_wire_errors_cross_as_taxonomy(self):
        async def check():
            service, server = make_server()
            client = ServiceClient(server.connect_memory())
            await client.hello()
            txn = await client.begin()
            with pytest.raises(WireFormatError):
                await client.request({"type": "op", "txn": txn,
                                      "op": "increment"})
            with pytest.raises(GTMError):
                await client.request({"type": "commit",
                                      "txn": "not-mine"})
            await client.abort(txn)
            await client.bye()
            await server.shutdown()
        run(check())


class TestTCPTransport:
    def test_full_conversation_over_sockets(self):
        async def check():
            service, server = make_server()
            service.create_object("x", value=1)
            host, port = await server.start_tcp()
            connector = tcp_connector(host, port)
            client = ServiceClient(*await connector())
            await client.hello()
            txn = await client.begin()
            assert (await client.op(txn, "mul", "x", 3))["value"] == 3
            assert (await client.commit(txn))["type"] == "committed"
            await client.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 3
        run(check())

    def test_drop_sleep_reconnect_awake_commit(self):
        async def check():
            service, server = make_server(bto_timeout=30.0)
            service.create_object("x", value=0)
            host, port = await server.start_tcp()
            connector = tcp_connector(host, port)
            client = ServiceClient(*await connector())
            await client.hello()
            token = client.token
            txn = await client.begin()
            await client.op(txn, "add", "x", 7)
            client.drop()
            await settle()

            resumed = ServiceClient(*await connector())
            welcome = await resumed.hello(token)
            assert welcome["resumed"] is True
            assert welcome["awake"] == [{"txn": txn, "survived": True}]
            resumed.adopt(txn)
            assert (await resumed.commit(txn))["type"] == "committed"
            await resumed.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 7
        run(check())

    def test_many_sessions_settle_and_are_oracle_clean(self):
        """CI's many-session real-socket load: 24 sessions x 3
        transactions over TCP, distinct objects per transaction, every
        fourth transaction drops after its first grant and resumes."""
        sessions, txns_each, objects = 24, 3, 16
        outcomes: list[str] = []

        async def resume(connector, token) -> ServiceClient:
            while True:
                client = ServiceClient(*await connector())
                try:
                    await client.hello(token)
                    return client
                except TokenInUse:  # old transport's EOF not seen yet
                    await client.close()
                    await asyncio.sleep(0.001)

        async def session(index: int, connector) -> None:
            rng = random.Random(index)
            client = ServiceClient(*await connector())
            await client.hello()
            for number in range(txns_each):
                names = rng.sample(range(objects), 3)
                drops = (index * txns_each + number) % 4 == 0
                txn = await client.begin()
                outcome = None
                for position, name in enumerate(names):
                    if drops and position == 1:
                        client.drop()
                        await asyncio.sleep(0.001)
                        client = await resume(connector, client.token)
                        (verdict,) = [v for v in client.last_welcome["awake"]
                                      if v["txn"] == txn]
                        if not verdict["survived"]:
                            outcome = "aborted"
                            break
                        client.adopt(txn)
                    op = rng.choice(("add", "assign", "mul"))
                    reply = await client.op(txn, op, f"o{name:02d}",
                                            rng.randrange(1, 10))
                    if reply["type"] == "aborted":
                        outcome = "aborted"
                        break
                if outcome is None:
                    outcome = (await client.commit(txn))["type"]
                outcomes.append(outcome)
            await client.bye()

        async def check():
            service, server = make_server(bto_timeout=30.0,
                                          retire_finished=True)
            for name in range(objects):
                service.create_object(f"o{name:02d}", value=1)
            host, port = await server.start_tcp()
            connector = tcp_connector(host, port)
            await asyncio.wait_for(asyncio.gather(*(
                session(index, connector) for index in range(sessions))),
                timeout=60.0)
            await server.shutdown()
            return service

        service = run(check())
        assert len(outcomes) == sessions * txns_each
        assert set(outcomes) <= {"committed", "aborted"}
        assert outcomes.count("committed") > 0
        counter = service.metrics.counter
        assert counter("service_error_frames").total() == 0
        assert counter("service_resumes").total() \
            == sessions * txns_each // 4
        assert check_episode(record_gtm(service.gtm)).serializable

    def test_double_connect_rejected(self):
        async def check():
            service, server = make_server()
            host, port = await server.start_tcp()
            connector = tcp_connector(host, port)
            first = ServiceClient(*await connector())
            await first.hello()
            second = ServiceClient(*await connector())
            with pytest.raises(TokenInUse):
                await second.hello(first.token)
            # the holder is unaffected
            assert (await first.ping())["type"] == "pong"
            await second.close()
            await first.bye()
            await server.shutdown()
        run(check())


def fat_ping(fid: int) -> bytes:
    """A ping whose pong is ~32 KiB: a few of them outgrow any
    transport buffer, so a reader that stops reading is soon behind."""
    return encode_frame({"type": "ping", "id": f"{fid:06d}" + "x" * 32000})


def assert_detached_asleep(service: GTMService, txn: str) -> None:
    (session,) = service.sessions.values()
    assert session.state is SessionState.DETACHED
    assert service.gtm.transaction(txn).is_in(TransactionState.SLEEPING)
    assert service.metrics.counter(
        "service_outbox_overflows").value() == 1.0


class TestBackpressure:
    def test_outbox_overflow_forces_detach(self):
        async def check():
            service, server = make_server(max_outbox=2)
            conn, transport = stub_connection(server)
            transport.buffered = StubTransport.HIGH_WATER + 1
            # the peer is not reading: two frames over the mark are
            # written, the third overflows
            for _ in range(3):
                conn.sink({"type": "pong"})
            assert len(transport.written) == 2
            assert transport.aborted  # the backlog goes with the transport
            assert conn._closing
            assert service.metrics.counter(
                "service_outbox_overflows").value() == 1.0
            # overflow is terminal for the sink: further frames drop
            transport.buffered = 0
            conn.sink({"type": "pong"})
            assert len(transport.written) == 2
            assert service.metrics.counter(
                "service_outbox_overflows").value() == 1.0
        run(check())

    def test_frame_order_survives_congestion(self):
        async def check():
            service, server = make_server(max_outbox=3)
            conn, transport = stub_connection(server)
            levels = [0, 0, 101, 500, 101, 0, 101, 101, 101, 100]
            for serial, level in enumerate(levels):
                transport.buffered = level
                conn.sink({"type": "pong", "re": serial})
            # uncongested -> congested -> uncongested: every frame is
            # written at once and in order, and a buffer that fell back
            # under the mark starts the count over (3 + 3 frames over
            # the mark here, never more than 3 in a row)
            assert [decode_frame(data)["re"]
                    for data in transport.written] \
                == list(range(len(levels)))
            assert not conn._closing
        run(check())

    def test_overflowed_connection_sleeps_its_session(self):
        async def check():
            service, server = make_server(max_outbox=1)
            raw = await open_raw(server, "memory")
            raw.send({"type": "hello", "id": 1})
            await raw.next()  # welcome
            raw.send({"type": "begin", "id": 2})
            txn = (await raw.next())["txn"]
            # a burst of replies nobody reads: once they pass the
            # high-water mark, one more frame is allowed, the next
            # aborts the transport
            raw.transport.pause_reading()
            raw.send(*(fat_ping(fid) for fid in range(3, 11)))
            await asyncio.sleep(0)  # the server end's turn: the burst
            counter = service.metrics.counter("service_outbox_overflows")
            assert counter.value() == 1.0
            # ...but the detach waits for the connection's own turn:
            # the overflowing push may have left mid-cascade
            (session,) = service.sessions.values()
            assert session.connected
            await asyncio.sleep(0)
            assert_detached_asleep(service, txn)
            # the backlog went with the transport: a reader that wakes
            # up now finds the link gone and nothing to read
            raw.transport.resume_reading()
            assert await raw.until_lost() == []
            await server.shutdown()
        run(check())

    def test_slow_tcp_reader_is_detached_and_can_resume(self):
        async def check():
            service, server = make_server(max_outbox=2, bto_timeout=30.0)
            service.create_object("x", value=0)
            raw = await open_raw(server, "tcp", rcvbuf=4096)
            raw.send({"type": "hello", "id": 1})
            token = (await raw.next())["token"]
            raw.send({"type": "begin", "id": 2})
            txn = (await raw.next())["txn"]
            raw.send({"type": "op", "txn": txn, "op": "add",
                      "object": "x", "operand": 5, "id": 3})
            assert (await raw.next())["type"] == "granted"
            # stop reading; keep asking
            raw.transport.pause_reading()
            sent = 0
            (session,) = service.sessions.values()
            while session.connected and sent < 4000:
                raw.send(fat_ping(sent))
                sent += 1
                await asyncio.sleep(0)
            await wait_until_detached(service)
            assert_detached_asleep(service, txn)
            # the backlog was discarded with the connection: fewer
            # pongs than pings arrive before the stream ends
            raw.transport.resume_reading()
            assert len(await raw.until_lost()) < sent

            # slow reader = disconnected reader: the work survives
            resumed = ServiceClient(
                *await tcp_connector(*await listening(server))())
            welcome = await resumed.hello(token)
            assert welcome["awake"] == [{"txn": txn, "survived": True}]
            resumed.adopt(txn)
            assert (await resumed.commit(txn))["type"] == "committed"
            await resumed.bye()
            await server.shutdown()
            assert service.gtm.object("x").permanent_value() == 5
        run(check())


class TestGracefulShutdown:
    def test_clients_get_shutdown_push_and_streams_close(self):
        async def check():
            service, server = make_server()
            host, port = await server.start_tcp()
            client = ServiceClient(*await tcp_connector(host, port)())
            await client.hello()
            txn = await client.begin()
            await server.shutdown()
            await settle()
            assert client.shutdown_seen
            # unfinished work was aborted server-side
            assert service.gtm.transaction(txn).state.terminal
            # and the listening socket is gone
            with pytest.raises((ConnectionError, OSError)):
                await tcp_connector(host, port)()
            await client.close()
        run(check())

    async def check_shutdown_push_precedes_end_of_stream(self, kind):
        service, server = make_server()
        raw = await open_raw(server, kind)
        raw.send({"type": "hello", "id": 1})
        await raw.next()  # welcome
        await server.shutdown()
        assert (await raw.next())["type"] == "shutdown"
        assert await raw.next() == LOST

    def test_shutdown_push_precedes_end_of_stream(self):
        run(self.check_shutdown_push_precedes_end_of_stream("memory"))

    def test_shutdown_push_precedes_end_of_stream_over_tcp(self):
        run(self.check_shutdown_push_precedes_end_of_stream("tcp"))

    def test_hello_rejected_while_shutting_down(self):
        async def check():
            service, server = make_server()
            service.shutdown()
            client = ServiceClient(server.connect_memory())
            with pytest.raises(GTMError, match="shutting down"):
                await client.hello()
            await client.close()
            await server.shutdown()
        run(check())


class TestInProcessLoad:
    def test_connection_lost_poisons_outstanding_requests(self):
        async def check():
            service, server = make_server()
            client = ServiceClient(server.connect_memory())
            await client.hello()
            txn = await client.begin()
            request = asyncio.ensure_future(client.op(txn, "read", "x"))
            client.drop()
            with pytest.raises(ConnectionLost):
                await asyncio.wait_for(request, timeout=5.0)
            await settle()
            await server.shutdown()
        run(check())

    def test_memory_connector_matches_direct_connect(self):
        async def check():
            service, server = make_server()
            connector = memory_connector(server)
            client = ServiceClient(*await connector())
            assert (await client.hello())["type"] == "welcome"
            await client.bye()
            await server.shutdown()
        run(check())


class TestServiceMain:
    def test_python_m_repro_service_serves_a_transaction(self):
        """``python -m repro.service`` on port 0: one transaction
        through ``tcp_connector``, then SIGINT shuts it down cleanly."""
        async def check():
            served = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.service", "--port", "0",
                "--objects", "2", stdout=asyncio.subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
            banner = (await served.stdout.readline()).decode()
            host, port = re.search(r"listening on (\S+):(\d+)", banner).groups()
            client = ServiceClient(*await tcp_connector(host, int(port))())
            await client.hello()
            txn = await client.begin()
            assert (await client.op(txn, "add", "o00000", 2))["value"] == 3
            assert (await client.commit(txn))["type"] == "committed"
            served.send_signal(signal.SIGINT)
            pushed = await asyncio.wait_for(client.inbox.get(), 10.0)
            assert pushed == {"type": "shutdown"}
            assert await asyncio.wait_for(served.wait(), 10.0) == 0
        run(check())

    def test_sigint_right_after_the_banner_shuts_down_cleanly(self):
        """A SIGINT sent the moment the "listening" line is read used to
        land before the handlers were installed: a KeyboardInterrupt
        traceback and a non-zero exit instead of the clean shutdown."""
        served = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--objects", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        try:
            # Poll the pipe rather than block on it: a blocked reader
            # wakes late enough to hide the window.
            fd = served.stdout.fileno()
            os.set_blocking(fd, False)
            banner = b""
            deadline = time.monotonic() + 10.0
            while not banner.endswith(b"\n") \
                    and time.monotonic() < deadline:
                with contextlib.suppress(BlockingIOError):
                    banner += os.read(fd, 4096) or b""
            served.send_signal(signal.SIGINT)
            os.set_blocking(fd, True)
            rest, errors = served.communicate(timeout=10.0)
        finally:
            served.kill()
            served.wait()
        assert b"listening on" in banner
        assert rest == b"shutting down...\n", errors.decode()
        assert served.returncode == 0, errors.decode()

    def test_the_service_imports_no_numerics(self):
        """The middleware sits beside mobile clients: numpy alone is a
        third of its idle footprint, and nothing it runs needs it (the
        SST failure injector builds its generator on the first draw).
        A fresh interpreter, because the test process has numpy."""
        probe = ("import repro.service.__main__, repro.service.client, sys; "
                 "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
