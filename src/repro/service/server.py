"""The asyncio transport: TCP server and in-memory transport pairs.

A connection is an :class:`asyncio.Protocol`: there is no reader
coroutine and no writer task.  The transport is deliberately thin:
every decision lives in the synchronous
:class:`~repro.service.core.GTMService`, which is why the session state
machine can be tested under the simulator while this module only
shuttles bytes.  What it guarantees, on TCP and in memory alike:

- **One turn per request.**  ``data_received`` cuts the complete lines
  off a small buffer and runs decode → ``connect``/``handle`` → sink →
  ``transport.write`` for every one of them before it returns; replies
  are written in the handler's own turn and never block, so the
  transport's write buffer is the outbox.
- **Backpressure by disconnection.**  Frames written while that buffer
  sits above its high-water mark (the peer is not reading) are counted,
  and after ``max_outbox`` of them the transport is aborted, its
  backlog discarded and ``service_outbox_overflows`` bumped; the
  session is detached when the transport reports the loss, in the
  connection's own turn (the service may be mid-cascade when the push
  goes out) — which the protocol already models as ⟨sleep⟩, so a slow
  reader degrades into a disconnected one instead of growing the heap.
- **Frame limit before parsing.**  A line longer than
  ``MAX_FRAME_BYTES``, complete or still missing its newline, is
  answered with one ``WireFormatError`` frame and the connection closed;
  any other bad line is answered and the connection survives.
- **Loss is ⟨sleep⟩, once.**  End of stream, a drop or an overflow ends
  in ``connection_lost``, which calls ``service.disconnect`` only while
  the session's sink is still this connection's (a session resumed
  elsewhere is left alone).  An unterminated last line is discarded.

The in-memory transport (:func:`memory_pair`) is the same discipline
without file descriptors, so load runs can hold thousands of concurrent
sessions without touching the fd limit, and unit tests can run a full
client/server conversation in one loop.
"""

from __future__ import annotations

import asyncio
import weakref
from typing import Any, Callable

from repro.errors import ReproError, WireFormatError
from repro.service.core import GTMService
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    split_lines,
)
from repro.service.session import SessionState

_CONNECTED = SessionState.CONNECTED


# ---------------------------------------------------------------------------
# in-memory duplex transport
# ---------------------------------------------------------------------------


#: Per event loop, the server ends that received a burst the loop has
#: not delivered yet, in the order they first received bytes.  A loop
#: turn drains its list in one callback (see :class:`MemoryTransport`).
_DUE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class MemoryTransport:
    """One end of an in-memory link, duck-typed to an asyncio transport.

    The write buffer is whatever the peer has not received yet.  The
    client end receives in the writer's turn (its ``data_received`` only
    fills mailboxes and sets futures); the server end receives in a
    later turn, so a handler never runs on a client's stack, a round
    trip cannot finish without yielding, and a push sent mid-cascade
    cannot re-enter the service.

    One callback per loop turn delivers every server end with a burst,
    in arrival order: an end that receives bytes joins its loop's due
    list, and the first to join schedules the turn's ``call_soon`` on
    its own ``_deliver``, which empties the list, delivers itself and
    then the ends that joined after it.  A lone connection pays what
    one callback per burst cost.  An end closed while listed is
    skipped; bytes written to an end whose delivery already ran in
    this turn wait for the next one.  The list holds an end only until
    its turn, so it keeps no lost link alive.

    Once ``connection_lost`` has been delivered an end lets go of its
    protocol and its peer, as asyncio's own transports drop
    ``_protocol``: a lost link leaves no reference cycle behind, so
    reference counting frees it and not the cyclic collector.  Every
    method stays safe to call on a lost end.
    """

    __slots__ = ("_loop", "_due", "_protocol", "_peer", "_inbound",
                 "_scheduled", "_reading", "_write_paused", "_closed")

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 due: "list[MemoryTransport] | None") -> None:
        self._loop = loop
        #: the loop's due list (a server end), or None: the end receives
        #: in the writer's turn (a client end).
        self._due = due
        self._protocol: asyncio.BaseProtocol = asyncio.Protocol()
        self._peer = self  # the opposite end (see :func:`memory_pair`)
        self._inbound = b""  # written by the peer, not yet received
        self._scheduled = False
        self._reading = True
        self._write_paused = False
        self._closed = False

    def set_protocol(self, protocol: asyncio.BaseProtocol) -> None:
        self._protocol = protocol

    def write(self, data: bytes) -> None:
        if self._closed:
            return
        peer = self._peer
        if peer._closed:
            return
        peer._inbound += data
        if peer._reading:
            due = peer._due
            if due is None:
                peer._deliver()
                return
            if not peer._scheduled:
                peer._scheduled = True
                if not due:
                    self._loop.call_soon(peer._deliver, due)
                due.append(peer)
        if (len(peer._inbound) > MAX_FRAME_BYTES
                and not self._write_paused):
            self._write_paused = True
            self._protocol.pause_writing()

    def _deliver(self, due: "list[MemoryTransport] | None" = None) -> None:
        """Hand what arrived to the protocol.  Given its loop's due
        list, this end opened the turn: it takes the listed ends out
        first, then delivers itself and every end that joined after it.
        An end that receives bytes after its own delivery ran therefore
        joins the next turn's list, in order behind what it had."""
        self._scheduled = False
        if due is not None:
            later = due[1:]
            due.clear()
        if not self._closed and self._reading and self._inbound:
            data, self._inbound = self._inbound, b""
            try:
                peer = self._peer
                if peer._write_paused:
                    peer._write_paused = False
                    peer._protocol.resume_writing()
                self._protocol.data_received(data)
            except Exception as exc:
                # As on a socket: a protocol that raises is a dead link,
                # never an exception inside whoever wrote the bytes, nor
                # one that keeps the ends listed after it undelivered.
                self._loop.call_exception_handler({
                    "message": "receiver failed on an in-memory transport",
                    "exception": exc, "protocol": self._protocol})
                self.abort()
        if due is not None:
            for end in later:
                end._deliver()

    def pause_reading(self) -> None:
        self._reading = False

    def resume_reading(self) -> None:
        self._reading = True
        self._deliver()

    def close(self) -> None:
        """Both protocols see ``connection_lost``, each in a turn of
        its own, the peer after what was already on its way to it."""
        if not self._closed:
            self._closed = True
            self._loop.call_soon(self._lose)
            self._loop.call_soon(self._peer._hang_up)

    def _hang_up(self) -> None:
        if not self._closed:
            self._closed = True
            self._lose()

    def _lose(self) -> None:
        try:
            self._protocol.connection_lost(None)
        finally:
            self._protocol = self._peer = None
            self._inbound = b""

    def abort(self) -> None:
        peer = self._peer
        if peer is not None:
            peer._inbound = b""  # the backlog goes with the transport
        self.close()

    def is_closing(self) -> bool:
        return self._closed

    def get_write_buffer_size(self) -> int:
        peer = self._peer
        return 0 if peer is None else len(peer._inbound)

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return 0, MAX_FRAME_BYTES


def memory_pair() -> tuple[MemoryTransport, MemoryTransport]:
    """A connected link: ``(client_end, server_end)``, each waiting for
    its protocol (``set_protocol``) — no sockets, no fds."""
    loop = asyncio.get_running_loop()
    due = _DUE.get(loop)
    if due is None:
        due = _DUE[loop] = []
    client_end = MemoryTransport(loop, None)
    server_end = MemoryTransport(loop, due)
    client_end._peer, server_end._peer = server_end, client_end
    return client_end, server_end


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------


class ServiceServer:
    """Serves a :class:`GTMService` over asyncio transports."""

    def __init__(self, service: GTMService) -> None:
        self.service = service
        self._tcp_server: asyncio.AbstractServer | None = None
        self._connections: set["_Connection"] = set()

    # -- lifecycle ------------------------------------------------------

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> tuple[str, int]:
        """Listen on TCP; returns the bound ``(host, port)``."""
        self._tcp_server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def connect_memory(self) -> MemoryTransport:
        """Open an in-memory connection; returns the client end."""
        client_end, server_end = memory_pair()
        conn = _Connection(self)
        server_end.set_protocol(conn)
        conn.connection_made(server_end)
        return client_end

    async def shutdown(self) -> None:
        """Graceful stop: no new connections, notify, flush, close."""
        if self._tcp_server is not None:
            self._tcp_server.close()
        self.service.shutdown()
        for conn in list(self._connections):
            conn.request_close()
        while self._connections:
            await asyncio.sleep(0.01)
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()


class _Connection(asyncio.Protocol):
    """One live transport: its receiving end, and a sink that writes."""

    def __init__(self, server: ServiceServer) -> None:
        self.server = server
        self.service = server.service
        self.session = None
        self._buffer = b""  # the unterminated tail of what was received
        #: frames written since the buffer last rose over the mark.
        self._congested = 0
        self._closing = False

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self._buffered = transport.get_write_buffer_size
        self._high_water = transport.get_write_buffer_limits()[1]
        self.server._connections.add(self)

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
            # backlog would never flush, so it goes with the transport,
            # which reports the loss in a turn of this connection's own.
            self.service.metrics.counter("service_outbox_overflows").inc()
            self._closing = True
            self.transport.abort()
            return
        self.transport.write(encode_frame(frame))

    def request_close(self) -> None:
        """Stop handling; the transport flushes what was written."""
        self._closing = True
        self.transport.close()

    def data_received(self, data: bytes) -> None:
        lines, self._buffer = split_lines(self._buffer + data)
        for line in lines:
            if self._closing:
                return
            # the line has lost its newline: one byte of the limit is it
            if len(line) >= MAX_FRAME_BYTES:
                self._refuse_oversize()
                return
            try:
                frame = decode_frame(line)
            except ReproError as exc:
                self.sink(error_frame(exc))
                continue
            session = self.session
            if session is None:
                self.session = self.service.connect(frame, self.sink)
                if self.session is None:
                    self.request_close()  # rejected; the error is written
            else:
                self.service.handle(session, frame)
                if session.state is not _CONNECTED:
                    self.request_close()  # `bye` closed the session
        if len(self._buffer) > MAX_FRAME_BYTES:
            self._refuse_oversize()

    def _refuse_oversize(self) -> None:
        self.sink(error_frame(WireFormatError(
            f"frame exceeds {MAX_FRAME_BYTES} bytes")))
        self.request_close()

    def connection_lost(self, exc: Exception | None) -> None:
        self._closing = True
        self.server._connections.discard(self)
        if (self.session is not None
                and self.session.sink == self.sink):
            # Dropped (or overflowed) without `bye`: ⟨sleep⟩.
            self.service.disconnect(self.session)


# ---------------------------------------------------------------------------
# connector helpers (used by the client and the load harness)
# ---------------------------------------------------------------------------


#: Opens one link and returns the arguments of ``ServiceClient``: the
#: transport, on which the client installs itself as the protocol (the
#: server never speaks first, so nothing can arrive before it has).
Connector = Callable[[], Any]


def memory_connector(server: ServiceServer) -> Connector:
    async def _connect():
        return (server.connect_memory(),)
    return _connect
