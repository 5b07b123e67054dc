"""An asyncio client for the GTM wire protocol.

The client is the receiving end of its transport (an
:class:`asyncio.Protocol`): ``data_received`` decodes and routes inbound
frames in the turn they arrive, so a reply wakes the requesting
coroutine directly — there is no reader task in between:

- a frame whose ``re`` matches an outstanding request lands in that
  request's mailbox (a *mailbox*, not a future, because a queued op
  produces two frames under one id: ``queued`` now, ``granted`` when
  the admission layer regrants);
- ``committed``/``aborted`` pushes for a known transaction land in
  that transaction's mailbox (how a ``commit-pending`` resolves, and
  how an op waiting on a grant learns its transaction was wounded);
- everything else (``shutdown``, unsolicited errors) goes to ``inbox``.

``error`` frames resolve to the exception class they encode
(:func:`~repro.service.protocol.frame_to_exception`), so a server-side
:class:`~repro.errors.ProtocolError` raises as a ProtocolError here —
the taxonomy crosses the wire intact.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any

from repro.errors import GTMError
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    frame_to_exception,
    split_lines,
)


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
        self._sequence = itertools.count(1)
        self._replies: dict[Any, _Mailbox] = {}
        self._txn_events: dict[str, _Mailbox] = {}
        self._buffer = b""  # the unterminated tail of what was received
        self._lost = transport.is_closing()
        #: parked senders wait on it while ``pause_writing`` is in force.
        self._writable: asyncio.Future | None = None
        self._closed = asyncio.get_running_loop().create_future()
        transport.set_protocol(self)

    # -- the transport's callbacks ---------------------------------------

    def data_received(self, data: bytes) -> None:
        lines, self._buffer = split_lines(self._buffer + data)
        for line in lines:
            try:
                frame = decode_frame(line)
            except GTMError:
                continue  # a hostile/buggy server; drop the line
            self._route(frame)
        if len(self._buffer) > MAX_FRAME_BYTES:
            self.transport.abort()  # a line no frame can be

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

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

    def _route(self, frame: dict[str, Any]) -> None:
        re = frame.get("re")
        if re is not None and re in self._replies:
            self._replies[re].put(frame)
            return
        if frame.get("type") == "shutdown":
            self.shutdown_seen = True
        txn = frame.get("txn")
        if (txn is not None and frame.get("type") in
                ("committed", "aborted", "granted")
                and txn in self._txn_events):
            self._txn_events[txn].put(frame)
            return
        self.inbox.put_nowait(frame)

    def _check_reply(self, frame: dict[str, Any]) -> dict[str, Any]:
        if frame.get("type") == "error":
            if frame.get("message") == "connection lost" and (
                    "code" in frame and self._lost):
                raise ConnectionLost("connection lost mid-request")
            raise frame_to_exception(frame)
        return frame

    async def _send(self, frame: dict[str, Any]) -> None:
        if self._lost:
            raise ConnectionLost("transport is gone")
        self.transport.write(encode_frame(frame))
        if self._writable is not None:
            # The transport's buffer is over its mark: wait for it to
            # drain (shielded: the future is shared by every sender).
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
            waiter = asyncio.get_running_loop().create_future()
            for box in boxes:
                box.waiter = waiter
            try:
                await waiter
            finally:
                for box in boxes:
                    if box.waiter is waiter:
                        box.waiter = None

    async def request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one request and await its direct reply."""
        fid = next(self._sequence)
        frame = {**frame, "id": fid}
        replies = self._replies[fid] = _Mailbox()
        try:
            await self._send(frame)
            return self._check_reply(await self._next_frame(replies))
        finally:
            del self._replies[fid]

    async def _request_followed(self, frame: dict[str, Any],
                                txn_id: str,
                                pending_type: str) -> dict[str, Any]:
        """Request whose reply may be provisional (``queued`` /
        ``commit-pending``): wait for the follow-up frame — the regrant
        or the deferred outcome — racing it against the transaction's
        event stream (an abort push while parked must not hang us).
        When both raced in, the reply is returned and the event stays
        in the transaction's mailbox."""
        fid = next(self._sequence)
        frame = {**frame, "id": fid}
        replies = self._replies[fid] = _Mailbox()
        events = self._txn_events.get(txn_id)
        try:
            await self._send(frame)
            reply = self._check_reply(await self._next_frame(replies))
            if reply.get("type") != pending_type:
                return reply
            boxes = (replies,) if events is None else (replies, events)
            return self._check_reply(await self._next_frame(*boxes))
        finally:
            del self._replies[fid]

    # -- protocol verbs -------------------------------------------------

    async def hello(self, token: str | None = None) -> dict[str, Any]:
        frame: dict[str, Any] = {"type": "hello"}
        if token is not None:
            frame["token"] = token
        welcome = await self.request(frame)
        self.token = welcome["token"]
        self.last_welcome = welcome
        return welcome

    def adopt(self, txn_id: str) -> None:
        """Start routing pushes for a transaction begun on an earlier
        connection (reconnect with surviving work)."""
        if txn_id not in self._txn_events:
            self._txn_events[txn_id] = _Mailbox()

    def release(self, txn_id: str) -> None:
        self._txn_events.pop(txn_id, None)

    async def begin(self, txn_id: str | None = None) -> str:
        frame: dict[str, Any] = {"type": "begin"}
        if txn_id is not None:
            frame["txn"] = txn_id
        reply = await self.request(frame)
        txn = reply["txn"]
        self.adopt(txn)
        return txn

    async def op(self, txn_id: str, op: str, object_name: str,
                 operand: Any = None,
                 member: str = "value") -> dict[str, Any]:
        """⟨op, X, A⟩ through to its *final* outcome: ``granted`` or
        ``aborted`` (a ``queued`` reply is awaited through)."""
        frame = {"type": "op", "txn": txn_id, "op": op,
                 "object": object_name, "member": member}
        if operand is not None:
            frame["operand"] = operand
        result = await self._request_followed(frame, txn_id, "queued")
        if result.get("type") == "aborted":
            self.release(txn_id)
        return result

    async def commit(self, txn_id: str) -> dict[str, Any]:
        """⟨commit, A⟩ through to ``committed`` or ``aborted``."""
        result = await self._request_followed(
            {"type": "commit", "txn": txn_id}, txn_id, "commit-pending")
        self.release(txn_id)
        return result

    async def abort(self, txn_id: str) -> dict[str, Any]:
        result = await self.request({"type": "abort", "txn": txn_id})
        self.release(txn_id)
        return result

    async def sleep(self) -> dict[str, Any]:
        return await self.request({"type": "sleep"})

    async def awake(self) -> dict[str, Any]:
        return await self.request({"type": "awake"})

    async def ping(self) -> dict[str, Any]:
        return await self.request({"type": "ping"})

    async def bye(self) -> dict[str, Any]:
        reply = await self.request({"type": "bye"})
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
