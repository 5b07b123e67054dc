"""Shared/exclusive lock manager with FIFO queues and upgrades.

This is the classical strict two-phase-locking lock manager of the 2PL
*baseline scheduler* the paper compares against.  Locks are taken on
opaque hashable resource ids (the baseline locks object names).

Grant policy:

- S is compatible with S; X is compatible with nothing.
- Requests queue FIFO.  A request is granted when it is compatible with
  all current holders *and* no incompatible request is ahead of it in the
  queue (no queue-jumping, which prevents writer starvation).
- An S->X *upgrade* is granted as soon as the upgrader is the only holder;
  upgrades take precedence over queued requests to avoid the classic
  upgrade deadlock when possible.  Two simultaneous upgraders on one
  resource do deadlock, exactly as in textbook 2PL — that is the
  wait-for-graph's job (:mod:`repro.ldbs.deadlock`) to detect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.errors import LockError, LockUpgradeError

ResourceId = Hashable


class LockMode(enum.Enum):
    """Lock modes: shared (read) and exclusive (write)."""

    S = "S"
    X = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.S and other is LockMode.S


@dataclass(slots=True)
class LockRequest:
    """A queued lock request."""

    txn_id: str
    mode: LockMode
    #: True when this is an S->X upgrade by a current holder.
    upgrade: bool = False
    #: Called with (txn_id, resource) when the request is granted.
    on_grant: Callable[[str, ResourceId], None] | None = None


class _ResourceState:
    """Holders and waiters for one resource.

    A resource has a state only while someone holds or awaits it, and
    it gets one the moment its first holder is granted.
    """

    __slots__ = ("holders", "queue")

    def __init__(self, txn_id: str, mode: LockMode) -> None:
        self.holders: dict[str, LockMode] = {txn_id: mode}
        self.queue: list[LockRequest] = []


class LockManager:
    """Table of per-resource lock state.

    The manager is *asynchronous*: :meth:`acquire` either grants
    immediately (returns True) or queues the request (returns False) and
    later fires ``on_grant`` when a release makes the grant possible.
    This style plugs directly into the discrete-event engine — the grant
    callback resumes the waiting simulated transaction.
    """

    def __init__(self) -> None:
        self._resources: dict[ResourceId, _ResourceState] = {}

    # -- inspection ----------------------------------------------------------

    def holders(self, resource: ResourceId) -> dict[str, LockMode]:
        state = self._resources.get(resource)
        return dict(state.holders) if state else {}

    def waiters(self, resource: ResourceId) -> tuple[str, ...]:
        state = self._resources.get(resource)
        return tuple(req.txn_id for req in state.queue) if state else ()

    def mode_held(self, txn_id: str, resource: ResourceId) -> LockMode | None:
        state = self._resources.get(resource)
        return state.holders.get(txn_id) if state else None

    def resources_held_by(self, txn_id: str) -> tuple[ResourceId, ...]:
        return tuple(resource for resource, state in self._resources.items()
                     if txn_id in state.holders)

    def blockers_of(self, txn_id: str,
                    resource: ResourceId) -> tuple[str, ...]:
        """Transactions that ``txn_id`` is waiting on for ``resource``.

        Used to build wait-for-graph edges: the blockers are the current
        incompatible holders plus incompatible requests queued ahead.
        """
        state = self._resources.get(resource)
        if state is None:
            return ()
        request = next((r for r in state.queue if r.txn_id == txn_id), None)
        if request is None:
            return ()
        blockers: list[str] = []
        for holder, mode in state.holders.items():
            if holder == txn_id:
                continue
            if not request.mode.compatible_with(mode):
                blockers.append(holder)
        for ahead in state.queue:
            if ahead.txn_id == txn_id:
                break
            if (not request.mode.compatible_with(ahead.mode)
                    or not ahead.mode.compatible_with(request.mode)):
                blockers.append(ahead.txn_id)
        return tuple(dict.fromkeys(blockers))

    # -- acquire / release ---------------------------------------------------

    def acquire(self, txn_id: str, resource: ResourceId, mode: LockMode,
                on_grant: Callable[[str, ResourceId], None] | None = None,
                ) -> bool:
        """Request ``mode`` on ``resource`` for ``txn_id``.

        Returns True if granted synchronously.  Otherwise the request is
        queued and ``on_grant`` fires when it is eventually granted.
        Re-acquiring an already-held compatible mode is a no-op grant;
        holding S and requesting X queues an upgrade.
        """
        state = self._resources.get(resource)
        if state is None:
            # uncontended: granted with no request built or queued
            self._resources[resource] = _ResourceState(txn_id, mode)
            return True
        held = state.holders.get(txn_id)

        if held is not None:
            if held is mode or (held is LockMode.X and mode is LockMode.S):
                return True  # already strong enough
            # S -> X upgrade
            if held is not LockMode.S or mode is not LockMode.X:
                raise LockUpgradeError(
                    f"unsupported upgrade {held} -> {mode} by {txn_id!r}")
            if len(state.holders) == 1:
                state.holders[txn_id] = LockMode.X
                return True
            if any(r.txn_id == txn_id for r in state.queue):
                raise LockError(
                    f"{txn_id!r} already has a queued request on {resource!r}")
            # Upgrades go to the queue head so they win over fresh requests.
            state.queue.insert(0, LockRequest(txn_id, mode, upgrade=True,
                                              on_grant=on_grant))
            return False

        if any(r.txn_id == txn_id for r in state.queue):
            raise LockError(
                f"{txn_id!r} already has a queued request on {resource!r}")

        if self._grantable(state, txn_id, mode, position=len(state.queue)):
            state.holders[txn_id] = mode
            return True
        state.queue.append(LockRequest(txn_id, mode, on_grant=on_grant))
        return False

    def release(self, txn_id: str, resource: ResourceId) -> tuple[str, ...]:
        """Release ``txn_id``'s lock on ``resource``.

        Returns the txn ids granted as a consequence (their ``on_grant``
        callbacks have already fired).
        """
        state = self._resources.get(resource)
        if state is None or txn_id not in state.holders:
            raise LockError(
                f"{txn_id!r} holds no lock on {resource!r}")
        del state.holders[txn_id]
        granted = self._pump(resource, state)
        self._gc(resource, state)
        return granted

    def release_all(self, txn_id: str) -> tuple[ResourceId, ...]:
        """Release every lock and cancel every queued request of ``txn_id``.

        This is the strict-2PL end-of-transaction release (also the abort
        path).  Returns the resources that were released.
        """
        released: list[ResourceId] = []
        resources = self._resources
        for resource in tuple(resources):
            state = resources.get(resource)
            if state is None:
                continue
            if not state.queue:
                # nobody waits here: nothing to cancel, nobody to grant
                if txn_id in state.holders:
                    del state.holders[txn_id]
                    released.append(resource)
                    if not state.holders:
                        del resources[resource]
                continue
            before = len(state.queue)
            state.queue = [r for r in state.queue if r.txn_id != txn_id]
            touched = before != len(state.queue)
            if txn_id in state.holders:
                del state.holders[txn_id]
                released.append(resource)
                touched = True
            if touched:
                self._pump(resource, state)
                self._gc(resource, state)
        return tuple(released)

    def cancel_request(self, txn_id: str, resource: ResourceId) -> bool:
        """Remove a queued (not yet granted) request, e.g. on wait timeout."""
        state = self._resources.get(resource)
        if state is None:
            return False
        before = len(state.queue)
        state.queue = [r for r in state.queue if r.txn_id != txn_id]
        removed = len(state.queue) != before
        if removed:
            self._pump(resource, state)
            self._gc(resource, state)
        return removed

    # -- internals -----------------------------------------------------------

    def _grantable(self, state: _ResourceState, txn_id: str,
                   mode: LockMode, position: int) -> bool:
        """Can ``txn_id``'s request for ``mode`` (at queue ``position``)
        be granted right now?"""
        for holder, held in state.holders.items():
            if holder == txn_id:
                continue  # upgrade: ignore own S hold
            if not mode.compatible_with(held):
                return False
        for ahead in state.queue[:position]:
            if (not mode.compatible_with(ahead.mode)
                    or not ahead.mode.compatible_with(mode)):
                return False
        return True

    def _pump(self, resource: ResourceId,
              state: _ResourceState) -> tuple[str, ...]:
        """Grant queued requests that have become compatible, in order."""
        granted: list[str] = []
        progress = True
        while progress:
            progress = False
            for index, request in enumerate(state.queue):
                if self._grantable(state, request.txn_id, request.mode,
                                   position=index):
                    state.queue.pop(index)
                    state.holders[request.txn_id] = request.mode
                    granted.append(request.txn_id)
                    if request.on_grant is not None:
                        request.on_grant(request.txn_id, resource)
                    progress = True
                    break
                if not request.upgrade:
                    # FIFO discipline: a blocked non-upgrade request blocks
                    # everything behind it.
                    break
        return tuple(granted)

    def _gc(self, resource: ResourceId, state: _ResourceState) -> None:
        if not state.holders and not state.queue:
            self._resources.pop(resource, None)

    def __repr__(self) -> str:
        busy = sum(1 for s in self._resources.values() if s.holders or s.queue)
        return f"<LockManager resources={busy}>"
