"""A link end held by hand, for the transport tests.

:class:`RawEnd` is the protocol of one transport end — the client end
of ``server.connect_memory()`` or of a TCP connection, or either end of
a bare ``memory_pair()`` — and plays no protocol of its own: it records
what arrives, in order, and writes what the test tells it to.  Its
framing is deliberately not the program's (``bytes.split`` and
``json.loads``, not ``split_lines`` and ``decode_frame``).
"""

import asyncio
import json
import socket

from repro.driver.asyncio_driver import AsyncioDriver
from repro.service import GTMService, ServiceConfig
from repro.service.protocol import encode_frame
from repro.service.server import Connector, ServiceServer, _Connection

#: The event a :class:`RawEnd` records when its transport is gone.
LOST = "connection lost"

TRANSPORTS = ("memory", "tcp")


def tcp_connector(host: str, port: int) -> Connector:
    """Opens TCP links to ``host:port`` (the in-memory twin is
    ``repro.service.server.memory_connector``)."""
    async def _connect():
        transport, _ = await asyncio.get_running_loop().create_connection(
            asyncio.Protocol, host, port)
        return (transport,)
    return _connect


def make_server(**config) -> tuple[GTMService, ServiceServer]:
    service = GTMService(AsyncioDriver(), config=ServiceConfig(**config))
    return service, ServiceServer(service)


async def settle() -> None:
    """Yield a few times so scheduled callbacks and tasks have run."""
    for _ in range(10):
        await asyncio.sleep(0)


async def wait_until_detached(service: GTMService) -> None:
    """Yield to the server until its one session lost its transport."""
    (session,) = service.sessions.values()
    for _ in range(400):
        if not session.connected:
            return
        await asyncio.sleep(0.005)
    raise AssertionError("the session is still connected")


class RawEnd(asyncio.Protocol):
    def __init__(self, transport) -> None:
        self.transport = transport
        #: decoded frames in arrival order, then ``LOST``.
        self.events: list = []
        self._buffer = b""
        self._news = asyncio.Event()
        transport.set_protocol(self)

    def data_received(self, data: bytes) -> None:
        *lines, self._buffer = (self._buffer + data).split(b"\n")
        self.events.extend(json.loads(line) for line in lines)
        self._news.set()

    def connection_lost(self, exc) -> None:
        self.events.append(LOST)
        self._news.set()

    def send(self, *frames) -> None:
        """Write frames (dicts are encoded, bytes go out as they are)
        back to back, in this turn."""
        for frame in frames:
            self.transport.write(frame if isinstance(frame, bytes)
                                 else encode_frame(frame))

    async def next(self, timeout: float = 5.0):
        """The next event: a frame, or ``LOST``."""
        while not self.events:
            self._news.clear()
            await asyncio.wait_for(self._news.wait(), timeout)
        return self.events.pop(0)

    async def until_lost(self, timeout: float = 5.0) -> list:
        """Every frame that arrives before the transport is gone."""
        frames = []
        while (event := await self.next(timeout)) != LOST:
            frames.append(event)
        return frames


async def open_raw(server: ServiceServer, kind: str,
                   rcvbuf: int | None = None) -> RawEnd:
    """A hand-held client end on ``server``, over ``kind`` (one of
    ``TRANSPORTS``); TCP starts the listener on first use."""
    if kind == "memory":
        return RawEnd(server.connect_memory())
    host, port = await listening(server)
    if rcvbuf is None:
        return RawEnd(*await tcp_connector(host, port)())
    # a small receive buffer, so the kernel absorbs little
    loop = asyncio.get_running_loop()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setblocking(False)
    await loop.sock_connect(sock, (host, port))
    transport, _ = await loop.create_connection(asyncio.Protocol, sock=sock)
    return RawEnd(transport)


async def listening(server: ServiceServer) -> tuple[str, int]:
    """The server's TCP address; starts the listener on first use."""
    if server._tcp_server is None:
        await server.start_tcp()
    return server._tcp_server.sockets[0].getsockname()[:2]


class StubTransport:
    """Records writes; the test says how full the write buffer is."""

    HIGH_WATER = 100

    def __init__(self) -> None:
        self.written: list[bytes] = []
        self.buffered = 0
        self.aborted = False

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return 0, self.HIGH_WATER

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def abort(self) -> None:
        self.aborted = True

    close = abort


def stub_connection(server) -> tuple[_Connection, StubTransport]:
    conn, transport = _Connection(server), StubTransport()
    conn.connection_made(transport)
    return conn, transport
