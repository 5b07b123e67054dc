"""The asyncio transport: TCP server and in-memory stream pairs.

One connection = one reader loop; there is no writer task.  The
transport is deliberately thin: every decision lives in the
synchronous :class:`~repro.service.core.GTMService`, which is why the
session state machine can be tested under the simulator while this
module only shuttles bytes.

A reply is written in the loop turn of the handler that produced it:
the sink encodes the frame and calls the transport's ``write``, which
never blocks, so the transport's own write buffer is the outbox.
Backpressure: frames written while that buffer sits above its
high-water mark (the peer is not reading) are counted, and after
``max_outbox`` of them the client is forcibly detached and its backlog
discarded — which the protocol already models as ⟨sleep⟩, so a slow
reader degrades into a disconnected one instead of growing the heap.

The in-memory transport (:func:`memory_pair`) is the same duplex
stream discipline without file descriptors, so load runs can hold
thousands of concurrent sessions without touching the fd limit, and
unit tests can run a full client/server conversation in one loop.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.errors import ReproError, WireFormatError
from repro.service.core import GTMService
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
)


# ---------------------------------------------------------------------------
# in-memory duplex transport
# ---------------------------------------------------------------------------


class MemoryWriter:
    """Write end of an in-memory stream, duck-typed to StreamWriter and
    to its ``transport``: the write buffer is whatever the peer has not
    yet read from its :class:`asyncio.StreamReader`."""

    __slots__ = ("_reader", "_closed", "_peer")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._closed = False
        #: the opposite direction's writer (see :func:`memory_pair`):
        #: a peer that closed it reads no more.
        self._peer = self

    def write(self, data: bytes) -> None:
        if not self._closed:
            self._reader.feed_data(data)

    async def drain(self) -> None:
        # StreamWriter.drain's contract: return at once unless the
        # peer's unread buffer is over its limit; then yield to the
        # peer (same loop) until it caught up or either end closed.
        while (self.get_write_buffer_size() > MAX_FRAME_BYTES
               and not self._closed and not self._peer._closed):
            await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._reader.feed_eof()

    abort = close

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None

    @property
    def transport(self) -> "MemoryWriter":
        return self

    def get_write_buffer_size(self) -> int:
        return len(self._reader._buffer)

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return 0, MAX_FRAME_BYTES


def memory_pair() -> tuple[tuple[asyncio.StreamReader, MemoryWriter],
                           tuple[asyncio.StreamReader, MemoryWriter]]:
    """A connected duplex pair: ``(client_side, server_side)``.

    Each side is a ``(reader, writer)`` tuple with the stream API the
    server and client already speak — no sockets, no fds.
    """
    to_server = asyncio.StreamReader(limit=MAX_FRAME_BYTES)
    to_client = asyncio.StreamReader(limit=MAX_FRAME_BYTES)
    client_writer, server_writer = (MemoryWriter(to_server),
                                    MemoryWriter(to_client))
    client_writer._peer, server_writer._peer = server_writer, client_writer
    return (to_client, client_writer), (to_server, server_writer)


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------


class ServiceServer:
    """Serves a :class:`GTMService` over asyncio streams."""

    def __init__(self, service: GTMService) -> None:
        self.service = service
        self._tcp_server: asyncio.AbstractServer | None = None
        self._connections: set["_Connection"] = set()
        self._shutting_down = False

    # -- lifecycle ------------------------------------------------------

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> tuple[str, int]:
        """Listen on TCP; returns the bound ``(host, port)``."""
        self._tcp_server = await asyncio.start_server(
            self._on_connection, host, port, limit=MAX_FRAME_BYTES)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def connect_memory(self) -> tuple[asyncio.StreamReader, MemoryWriter]:
        """Open an in-memory connection; returns the client side."""
        client_side, server_side = memory_pair()
        asyncio.ensure_future(self._on_connection(*server_side))
        return client_side

    async def shutdown(self) -> None:
        """Graceful stop: no new connections, notify, flush, close."""
        self._shutting_down = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        self.service.shutdown()
        for conn in list(self._connections):
            conn.request_close()
        while self._connections:
            await asyncio.sleep(0.01)

    # -- per-connection machinery --------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: Any) -> None:
        conn = _Connection(self, reader, writer)
        self._connections.add(conn)
        try:
            await conn.run()
        finally:
            self._connections.discard(conn)


class _Connection:
    """One live transport: a reader loop, and a sink that writes."""

    def __init__(self, server: ServiceServer,
                 reader: asyncio.StreamReader, writer: Any) -> None:
        self.server = server
        self.service = server.service
        self.reader = reader
        self.writer = writer
        transport = writer.transport
        self._buffered = transport.get_write_buffer_size
        self._high_water = transport.get_write_buffer_limits()[1]
        #: frames written since the buffer last rose over the mark.
        self._congested = 0
        self.session = None
        self._closing = False

    # The service-facing sink: synchronous, never blocks the handler.
    def sink(self, frame: dict[str, Any]) -> None:
        if self._closing:
            return
        if self._buffered() <= self._high_water:
            self._congested = 0
        elif self._congested < self.service.config.max_outbox:
            self._congested += 1
        else:
            # Slow reader: degrade to a disconnect (= ⟨sleep⟩).  The
            # backlog would never flush, so it goes with the transport;
            # the detach is left to the read loop's own turn — the
            # service may be mid-cascade when this push goes out.
            self.service.metrics.counter("service_outbox_overflows").inc()
            self.writer.transport.abort()
            self.request_close()
            return
        self.writer.write(encode_frame(frame))

    def request_close(self) -> None:
        self._closing = True
        # Unblock a read loop parked in readline().
        try:
            self.reader.feed_eof()
        except (AssertionError, RuntimeError):
            pass

    async def run(self) -> None:
        try:
            await self._read_loop()
        finally:
            self._closing = True
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (OSError, ConnectionError):
                pass
            if (self.session is not None
                    and self.session.sink == self.sink):
                # Dropped (or overflowed) without `bye`: ⟨sleep⟩.
                self.service.disconnect(self.session)

    async def _read_loop(self) -> None:
        while not self._closing:
            try:
                line = await self.reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                self.sink(error_frame(WireFormatError(
                    f"frame exceeds {MAX_FRAME_BYTES} bytes")))
                return
            except (OSError, ConnectionError):
                return
            if not line:
                return  # EOF: the peer dropped
            try:
                frame = decode_frame(line)
            except ReproError as exc:
                self.sink(error_frame(exc))
                continue
            if self.session is None:
                self.session = self.service.connect(frame, self.sink)
                if self.session is None:
                    return  # rejected hello; error frame is written
            else:
                self.service.handle(self.session, frame)
                if not self.session.connected:
                    return  # `bye` closed the session


# ---------------------------------------------------------------------------
# connector helpers (used by the client and the load harness)
# ---------------------------------------------------------------------------


Connector = Callable[[], Any]


def tcp_connector(host: str, port: int) -> Connector:
    async def _connect():
        return await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES)
    return _connect


def memory_connector(server: ServiceServer) -> Connector:
    async def _connect():
        return server.connect_memory()
    return _connect
