"""An asyncio client for the GTM wire protocol.

The client is the receiving end of its transport (an
:class:`asyncio.Protocol`): ``data_received`` decodes and routes inbound
frames in the turn they arrive, so a reply wakes the requesting
coroutine directly — there is no reader task in between:

- a frame whose ``re`` matches an outstanding request lands in that
  request's mailbox (a *mailbox*, not a future, because a queued op
  produces two frames under one id: ``queued`` now, ``granted`` when
  the admission layer regrants);
- ``committed``/``aborted``/``granted`` pushes for a known transaction
  land in that transaction's mailbox (how a ``commit-pending``
  resolves, and how an op waiting on a grant learns its transaction was
  wounded);
- everything else (``shutdown``, unsolicited errors, a frame whose
  ``re`` or ``txn`` is no id at all) goes to ``inbox``.

A request is one coroutine, :meth:`ServiceClient._exchange`, from the
caller's ``await`` to its reply: the verbs are plain methods that build
their frame and return that coroutine, the write is a plain call that
parks only while the transport has paused writing, and the wait on the
request's mailbox is inline.

``error`` frames resolve to the exception class they encode
(:func:`~repro.service.protocol.frame_to_exception`), so a server-side
:class:`~repro.errors.ProtocolError` raises as a ProtocolError here —
the taxonomy crosses the wire intact.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any, Awaitable

from repro.errors import GTMError
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    frame_to_exception,
    split_lines,
)

#: Pushes that belong in a transaction's mailbox.
_TXN_PUSHES = frozenset({"committed", "aborted", "granted"})
#: Verb -> the provisional reply its exchange awaits through.
_PROVISIONAL = {"op": "queued", "commit": "commit-pending"}


class ConnectionLost(GTMError):
    """The transport died while a request was outstanding."""


class _Mailbox:
    """Frames for one consumer: a deque plus one parked future, which
    :meth:`ServiceClient._next_frame` may park in several mailboxes at
    once (a reply raced against a push, without a task per side)."""

    __slots__ = ("frames", "waiter")

    def __init__(self) -> None:
        self.frames: deque[dict[str, Any]] = deque()
        self.waiter: asyncio.Future | None = None

    def put(self, frame: dict[str, Any]) -> None:
        self.frames.append(frame)
        waiter = self.waiter
        if waiter is not None:
            self.waiter = None
            if not waiter.done():
                waiter.set_result(None)


class ServiceClient(asyncio.Protocol):
    """One connection's view of the service."""

    def __init__(self, transport: Any) -> None:
        self.transport = transport
        self.token: str | None = None
        #: the last ``welcome`` frame (awake verdicts, outage outcomes).
        self.last_welcome: dict[str, Any] | None = None
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.shutdown_seen = False
        self._loop = asyncio.get_running_loop()
        self._sequence = itertools.count(1)
        self._replies: dict[Any, _Mailbox] = {}
        self._txn_events: dict[str, _Mailbox] = {}
        self._buffer = b""  # the unterminated tail of what was received
        self._lost = transport.is_closing()
        #: parked senders wait on it while ``pause_writing`` is in force.
        self._writable: asyncio.Future | None = None
        self._closed = self._loop.create_future()
        transport.set_protocol(self)

    # -- the transport's callbacks ---------------------------------------

    def data_received(self, data: bytes) -> None:
        lines, self._buffer = split_lines(self._buffer + data)
        replies = self._replies
        for line in lines:
            try:
                frame = decode_frame(line)
            except GTMError:
                continue  # a hostile/buggy server; drop the line
            try:
                box = replies.get(frame.get("re"))
            except TypeError:  # an unhashable "re" answers no request
                box = None
            if box is None:
                self._route_push(frame)
            else:
                box.put(frame)
        if len(self._buffer) > MAX_FRAME_BYTES:
            self.transport.abort()  # a line no frame can be

    def pause_writing(self) -> None:
        self._writable = self._loop.create_future()

    def resume_writing(self) -> None:
        waiter, self._writable = self._writable, None
        if waiter is not None:
            waiter.set_result(None)

    def connection_lost(self, exc: Exception | None) -> None:
        self._lost = True
        poison = {"type": "error", "code": "gtm/error",
                  "message": "connection lost"}
        for box in (*self._replies.values(),
                    *self._txn_events.values()):
            box.put(poison)
        self.inbox.put_nowait(poison)
        self.resume_writing()
        if not self._closed.done():
            self._closed.set_result(None)

    # -- plumbing -------------------------------------------------------

    def _route_push(self, frame: dict[str, Any]) -> None:
        """A frame that answers no outstanding request."""
        frame_type = frame["type"]
        if frame_type == "shutdown":
            self.shutdown_seen = True
        elif frame_type in _TXN_PUSHES:
            try:
                box = self._txn_events.get(frame.get("txn"))
            except TypeError:  # an unhashable "txn" names no transaction
                box = None
            if box is not None:
                box.put(frame)
                return
        self.inbox.put_nowait(frame)

    def _error(self, frame: dict[str, Any]) -> BaseException:
        """The exception an ``error`` reply stands for."""
        if frame.get("message") == "connection lost" and (
                "code" in frame and self._lost):
            return ConnectionLost("connection lost mid-request")
        return frame_to_exception(frame)

    async def _drain(self) -> None:
        """Park while the transport has paused writing (shielded: the
        future is shared by every parked sender)."""
        await asyncio.shield(self._writable)
        if self._lost:
            raise ConnectionLost("transport died while paused")

    async def _next_frame(self, *boxes: _Mailbox) -> dict[str, Any]:
        """The next frame from any of ``boxes``; when several hold one,
        the earliest-listed mailbox wins and the others keep theirs."""
        while True:
            for box in boxes:
                if box.frames:
                    return box.frames.popleft()
            waiter = self._loop.create_future()
            for box in boxes:
                box.waiter = waiter
            try:
                await waiter
            finally:
                for box in boxes:
                    if box.waiter is waiter:
                        box.waiter = None

    async def _exchange(self, frame: dict[str, Any],
                        tracked: bool = False) -> Any:
        """Send ``frame``, which the client built (it gets its ``id``
        here), and await its direct reply.

        ``tracked`` marks the transaction verbs.  A provisional reply
        (``queued`` to an op, ``commit-pending`` to a commit) is awaited
        through to the follow-up frame — the regrant or the deferred
        outcome — racing it against the transaction's mailbox (an
        abort push while parked must not hang us); when both raced in,
        the reply is returned and the push stays in that mailbox.
        ``begin`` opens the transaction's mailbox and returns its id;
        the transaction's end closes it.
        """
        if self._lost:
            raise ConnectionLost("transport is gone")
        verb = frame.get("type")
        provisional = _PROVISIONAL.get(verb) if tracked else None
        txn_id = frame.get("txn")
        events = None if provisional is None \
            else self._txn_events.get(txn_id)
        fid = frame["id"] = next(self._sequence)
        replies = self._replies[fid] = _Mailbox()
        try:
            self.transport.write(encode_frame(frame))
            if self._writable is not None:
                await self._drain()
            frames = replies.frames
            while not frames:
                waiter = replies.waiter = self._loop.create_future()
                await waiter
            reply = frames.popleft()
            if reply["type"] == provisional:
                reply = await self._next_frame(
                    *((replies,) if events is None else (replies, events)))
        finally:
            del self._replies[fid]
        if reply["type"] == "error":
            raise self._error(reply)
        if tracked:
            if verb == "begin":
                txn_id = reply["txn"]
                self._txn_events.setdefault(txn_id, _Mailbox())
                return txn_id
            if verb != "op" or reply["type"] == "aborted":
                self._txn_events.pop(txn_id, None)
        return reply

    def request(self, frame: dict[str, Any]) -> Awaitable[dict[str, Any]]:
        """Send one request (a copy of ``frame``) and await its direct
        reply."""
        return self._exchange({**frame})

    # -- protocol verbs -------------------------------------------------

    async def hello(self, token: str | None = None) -> dict[str, Any]:
        frame: dict[str, Any] = {"type": "hello"}
        if token is not None:
            frame["token"] = token
        welcome = await self._exchange(frame)
        self.token = welcome["token"]
        self.last_welcome = welcome
        return welcome

    def adopt(self, txn_id: str) -> None:
        """Start routing pushes for a transaction begun on an earlier
        connection (reconnect with surviving work)."""
        if txn_id not in self._txn_events:
            self._txn_events[txn_id] = _Mailbox()

    def begin(self, txn_id: str | None = None) -> Awaitable[str]:
        """⟨begin, A⟩; the awaited result is the transaction id."""
        frame: dict[str, Any] = {"type": "begin"}
        if txn_id is not None:
            frame["txn"] = txn_id
        return self._exchange(frame, True)

    def op(self, txn_id: str, op: str, object_name: str,
           operand: Any = None,
           member: str = "value") -> Awaitable[dict[str, Any]]:
        """⟨op, X, A⟩ through to its *final* outcome: ``granted`` or
        ``aborted`` (a ``queued`` reply is awaited through)."""
        frame = {"type": "op", "txn": txn_id, "op": op,
                 "object": object_name, "member": member}
        if operand is not None:
            frame["operand"] = operand
        return self._exchange(frame, True)

    def commit(self, txn_id: str) -> Awaitable[dict[str, Any]]:
        """⟨commit, A⟩ through to ``committed`` or ``aborted``."""
        return self._exchange({"type": "commit", "txn": txn_id}, True)

    def abort(self, txn_id: str) -> Awaitable[dict[str, Any]]:
        return self._exchange({"type": "abort", "txn": txn_id}, True)

    def sleep(self) -> Awaitable[dict[str, Any]]:
        return self._exchange({"type": "sleep"})

    def awake(self) -> Awaitable[dict[str, Any]]:
        return self._exchange({"type": "awake"})

    def ping(self) -> Awaitable[dict[str, Any]]:
        return self._exchange({"type": "ping"})

    async def bye(self) -> dict[str, Any]:
        reply = await self._exchange({"type": "bye"})
        await self.close()
        return reply

    # -- teardown -------------------------------------------------------

    async def close(self) -> None:
        """Close the transport (abrupt unless ``bye`` was sent first)
        and wait until it reported the loss."""
        self.drop()
        await self._closed

    def drop(self) -> None:
        """Abandon the transport without closing handshakes — the
        load harness's simulated connection loss."""
        self._lost = True
        self.transport.close()
