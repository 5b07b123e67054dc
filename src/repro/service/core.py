""":class:`GTMService` — the transport-agnostic frame handler.

This is the live-service counterpart of the discrete-event schedulers:
where :mod:`repro.schedulers.gtm_scheduler` drives the GTM from
simulated client processes, the service drives the *same*
:class:`~repro.core.gtm.GlobalTransactionManager` from wire frames.
It is deliberately synchronous and transport-free — the asyncio server
(:mod:`repro.service.server`) feeds it decoded frames, and the session
state-machine tests feed it frames under a
:class:`~repro.sim.engine.SimulationEngine` driver, where BTO timers
fire at exact virtual instants.

Delivery model: every outbound frame — direct replies and server
pushes alike — goes through the session's *sink* (one ordered stream
per session).  A detached session has no sink: the paper's ⟨sleep⟩
carries **state**, not messages, across the outage.  That state
includes request correlation — a late grant (or apply error) for a
request id the client is still awaiting is *held* on the session and
replayed right after the reconnect welcome, and transaction outcomes
land in ``session.finished`` for the welcome frame.  Only
uncorrelated pushes to a session that can never resume (expired,
closed) are dropped.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import isfinite
from types import MappingProxyType
from typing import Any, Iterable

from repro.errors import (
    GTMError,
    ProtocolError,
    ReproError,
    SessionError,
    SSTFailure,
    WireFormatError,
)
from repro.core.events import GTMObserver
from repro.core.gtm import GlobalTransactionManager, GrantOutcome
from repro.core.objects import ManagedObject, ObjectBinding
from repro.core.opclass import OperationClass
from repro.core.sst import SSTExecutor
from repro.core.states import TransactionState
from repro.ldbs.backend import LDBSBackend, create_backend
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.obs.registry import MetricsRegistry
from repro.service.protocol import build_invocation, error_frame
from repro.service.session import Session, SessionState, SessionStore

_TS = TransactionState

#: Shared LDBS home for service-managed objects: one row per object,
#: keyed by the (TEXT) object name.  Service objects arrive over the
#: wire, so their names need not be SQL identifiers — a per-object
#: table (the scheduler scheme) would reject them.
_OBJECTS_TABLE = "gtm_objects"
#: The column map every value-only binding shares (read-only, so one
#: map serves every object instead of one dict apiece).
_VALUE_COLUMNS = MappingProxyType({"value": "value"})


def _refuse_unfit_ints(name: str, values: Iterable[Any], what: str) -> None:
    """Refuse an int no float can hold: an LDBS value column is a FLOAT,
    so such a value fails the row it is written to."""
    for value in values:
        if isinstance(value, int):
            try:
                float(value)
            except OverflowError:
                raise GTMError(
                    f"object {name!r}: a {value.bit_length()}-bit "
                    f"{what} does not fit a float") from None


@dataclass
class ServiceConfig:
    """Service-layer tunables (the protocol knobs live in the ``gtm``'s
    GTMConfig)."""

    #: Seconds a detached session may stay away before its sleeping
    #: transactions are aborted (the paper's bounded time-out for
    #: sleepers).  None disarms the timer: sleepers wait forever.
    bto_timeout: float | None = 60.0
    #: Per-session outbox bound: frames a transport may take on while
    #: its write buffer is already over its high-water mark.  A client
    #: that stops reading past this is forcibly detached — backpressure
    #: by disconnection, which the protocol already models as ⟨sleep⟩.
    max_outbox: int = 1024
    #: Create unknown objects on first reference (value 0).  Off, an
    #: op on an unknown object is an error frame.
    auto_create_objects: bool = True
    #: Drop terminal transactions from the GTM's registry once their
    #: outcome is delivered; off, the registry keeps every transaction
    #: for the life of the service.  The operation log — what the
    #: oracle replays — is bounded either way: it drops an aborted
    #: transaction's operations and folds old commits into its baseline.
    retire_finished: bool = False
    #: LDBS backend name (see :func:`repro.ldbs.backend_names`).  When
    #: set — and no explicit ``gtm`` is passed to the service — commits
    #: run real SSTs against that backend: value-only objects are bound
    #: to rows of the shared ``gtm_objects`` table (objects with custom
    #: members, or non-numeric values, stay virtual: their commits run
    #: no SST).  None keeps the whole service virtual.
    ldbs_backend: str | None = None


class _ServiceObserver(GTMObserver):
    """Bus tap: async grants and transaction outcomes become pushes.

    The service owns the GTM, whose bus owns this tap, so the tap holds
    the service weakly; a ``gtm=`` passed in can outlive the service,
    and a tap whose service is gone does nothing.
    """

    def __init__(self, service: "GTMService") -> None:
        self._service = weakref.ref(service)
        self._pending_ops = service._pending_ops

    def on_grant(self, txn, obj, invocation, now):
        # a grant with no op queued is synchronous: its reply covers it
        if self._pending_ops:
            service = self._service()
            if service is not None:
                service._on_grant_hook(txn, obj, invocation)

    def on_global_commit(self, txn, now):
        service = self._service()
        if service is not None:
            service._on_finished(txn.txn_id, "committed", "")

    def on_global_abort(self, txn, now, reason):
        service = self._service()
        if service is not None:
            service._on_finished(txn.txn_id, "aborted", reason)


class GTMService:
    """Applies wire frames to a GTM under a driver (sim or asyncio)."""

    def __init__(self, driver: Any,
                 gtm: GlobalTransactionManager | None = None,
                 config: ServiceConfig | None = None) -> None:
        self.driver = driver
        self.config = config or ServiceConfig()
        self.backend: LDBSBackend | None = None
        if gtm is None and self.config.ldbs_backend is not None:
            self.backend = create_backend(self.config.ldbs_backend)
            self.backend.create_table(TableSchema(
                _OBJECTS_TABLE,
                (Column("name", ColumnType.TEXT),
                 Column("value", ColumnType.FLOAT, nullable=True)),
                primary_key="name"))
            gtm = GlobalTransactionManager(
                clock=driver.clock, sst_executor=SSTExecutor(self.backend))
        self.gtm = gtm or GlobalTransactionManager(clock=driver.clock)
        #: txn id -> {(object, member): FIFO of request ids} for
        #: queued ops (a list, so repeat ops on one member both get
        #: their late grant pushed); empty while no op is queued.
        self._pending_ops: dict[str, dict[tuple[str, str], list[Any]]] = {}
        self.gtm.subscribe(_ServiceObserver(self))
        self.sessions = SessionStore()
        self.metrics = MetricsRegistry()
        # The counters every frame or transaction bumps, resolved once
        # to their unlabelled series (by name, each bump is a registry
        # probe plus a kind check; through ``Counter.inc``, a call): a
        # bump is ``series[""] = series.get("", 0.0) + 1.0``.
        counter = self.metrics.counter
        self._frames = counter("service_frames").series
        self._txn_begun = counter("service_txn_begun").series
        self._ops_granted = counter("service_ops_granted").series
        self._txn_finished = {
            outcome: counter(f"service_txn_{outcome}").series
            for outcome in ("committed", "aborted")}
        #: txn id -> owning session.
        self._txn_session: dict[str, Session] = {}
        #: transactions whose ⟨commit, A⟩ is deferred behind another
        #: committer; completed via try_finish_commit in :meth:`_pump`
        #: (never the O(all-transactions) pump_commits scan).
        self._pending_commits: set[str] = set()
        #: txn id whose direct reply is being produced right now; its
        #: own outcome push is suppressed (the reply covers it).
        self._responding_txn: str | None = None
        #: why the kernel aborted ``_responding_txn``, for that reply.
        self._responding_reason = ""
        #: finished txn ids awaiting retirement (config.retire_finished).
        self._retire: list[str] = []
        self._shutting_down = False

    # ------------------------------------------------------------------
    # setup helpers (server-side, not wire-reachable)
    # ------------------------------------------------------------------

    def create_object(self, name: str, value: Any = 0,
                      members: dict[str, Any] | None = None) -> None:
        """Register a managed object before (or while) serving.  A name
        the GTM already holds, a NaN or infinite initial value, or an
        int no float can hold, is refused before the GTM or the backend
        is touched."""
        initials = (value, *(members or {}).values())
        for initial in initials:
            # as build_invocation refuses non-finite operands: the
            # memory LDBS would hold NaN, SQLite NULL
            if isinstance(initial, float) and not isfinite(initial):
                raise GTMError(
                    f"object {name!r}: initial value must be finite, "
                    f"not {initial!r}")
        _refuse_unfit_ints(name, initials, "initial value")
        if name in self.gtm.lock_table:
            raise GTMError(f"object {name!r} already registered")
        binding = None
        if members is None:
            binding = self._bind_object(name, value, exists=True)
        self.gtm.create_object(name, value=value, members=members,
                               binding=binding)

    def _bind_object(self, name: str, value: Any,
                     exists: bool) -> ObjectBinding | None:
        """LDBS row binding for a value-only object (None = virtual).

        Existing objects get their row seeded; INSERT shells get the
        binding only — the committed SST inserts the row.
        """
        if self.backend is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None  # non-numeric objects stay virtual
        if exists:
            self.backend.seed(_OBJECTS_TABLE,
                              [{"name": name, "value": float(value)}])
        return ObjectBinding(table=_OBJECTS_TABLE, key=name,
                             member_columns=_VALUE_COLUMNS)

    def _ensure_object(self, name: Any,
                       op_class: OperationClass) -> ManagedObject:
        if not isinstance(name, str) or not name:
            raise WireFormatError(f"op object must be a string: {name!r}")
        obj = self.gtm.lock_table.objects.get(name)
        if obj is None:
            if not self.config.auto_create_objects:
                raise GTMError(f"unknown object {name!r}")
            # INSERT expects a shell it can bring into existence.
            exists = op_class is not OperationClass.INSERT
            binding = self._bind_object(name, 0, exists=exists)
            obj = self.gtm.create_object(name, value=0, exists=exists,
                                         binding=binding)
        return obj

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------

    def connect(self, frame: dict[str, Any],
                sink) -> Session | None:
        """A transport presented its ``hello``.  Returns the attached
        session, or None when the hello was rejected (the reject error
        frame has already been written to ``sink``)."""
        fid = frame.get("id")
        if frame.get("type") != "hello":
            sink(error_frame(
                WireFormatError("first frame must be 'hello'"), re=fid))
            return None
        if self._shutting_down:
            sink(error_frame(
                SessionError("server is shutting down"), re=fid))
            return None
        token = frame.get("token")
        try:
            if token is None:
                session = self.sessions.create()
                resumed = False
            else:
                if not isinstance(token, str):
                    raise WireFormatError(
                        f"token must be a string: {token!r}")
                session = self.sessions.resume(token)
                resumed = True
        except ReproError as exc:
            self.metrics.counter("service_hello_rejected").inc()
            sink(error_frame(exc, re=fid))
            return None

        if session.bto_timer is not None:
            session.bto_timer.cancel()
            session.bto_timer = None

        # Buffer pushes produced by the ⟨awake⟩ revalidation (queue-jump
        # regrants) so the welcome frame stays first on the stream.
        buffered: list[dict[str, Any]] = []
        session.sink = buffered.append
        awake_results = []
        if resumed:
            awake_results = self._awake_all(session)
        welcome: dict[str, Any] = {
            "type": "welcome", "token": session.token,
            "resumed": resumed,
        }
        if fid is not None:
            welcome["re"] = fid
        if resumed:
            welcome["awake"] = awake_results
            # Outcomes that landed while the client was unreachable.
            welcome["finished"] = dict(sorted(session.finished.items()))
            session.finished.clear()
        session.sink = sink
        sink(welcome)
        # Correlated pushes held across the outage go out first (they
        # predate the ⟨awake⟩ revalidation's own pushes).
        for pushed in session.held:
            sink(pushed)
        session.held.clear()
        for pushed in buffered:
            sink(pushed)
        self.metrics.counter("service_connects").inc()
        if resumed:
            self.metrics.counter("service_resumes").inc()
        self._pump()
        return session

    def disconnect(self, session: Session) -> None:
        """The transport dropped without ``bye``: ⟨sleep⟩ + BTO timer."""
        if session.state is not SessionState.CONNECTED:
            return
        self.sessions.detach(session)
        for txn_id in sorted(session.txns):
            txn = self.gtm.transactions.get(txn_id)
            if txn is not None and txn.is_in(_TS.ACTIVE, _TS.WAITING):
                self.gtm.sleep(txn_id)
        if self.config.bto_timeout is not None and not self._shutting_down:
            # a shutting-down service closes the transports itself; a
            # timer armed for them would only keep it alive until fired.
            session.bto_timer = self.driver.schedule_after(
                self.config.bto_timeout,
                lambda _driver, s=session: self._bto_fire(s),
                label=f"bto:{session.token}")
        self.metrics.counter("service_disconnects").inc()
        self._pump()

    def _bto_fire(self, session: Session) -> None:
        """The detached session overstayed: abort its sleepers."""
        if session.state is not SessionState.DETACHED:
            return
        aborted: list[str] = []
        for txn_id in sorted(session.txns):
            txn = self.gtm.transactions.get(txn_id)
            if txn is not None and txn.is_in(_TS.SLEEPING):
                self.gtm.abort(txn_id, reason="bto-timeout")
                aborted.append(txn_id)
        self.sessions.expire(session, tuple(aborted))
        self.metrics.counter("service_bto_expiries").inc()
        self.metrics.counter("service_bto_aborts").inc(len(aborted))
        self._pump()

    def shutdown(self) -> None:
        """Graceful stop: notify clients, abort unfinished work, pump."""
        self._shutting_down = True
        for session in list(self.sessions.values()):
            if session.bto_timer is not None:
                session.bto_timer.cancel()
                session.bto_timer = None
            if session.connected:
                session.send({"type": "shutdown"})
        for txn_id in sorted(self._txn_session):
            txn = self.gtm.transactions.get(txn_id)
            if txn is None or txn.state.terminal:
                continue
            if txn.is_in(_TS.COMMITTING):
                continue  # let the pump finish staged commits
            self.gtm.abort(txn_id, reason="shutdown")
        self._pump()
        if self.backend is not None:
            self.backend.close()

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------

    def handle(self, session: Session, frame: dict[str, Any]) -> None:
        """Apply one decoded client frame; replies go to the sink."""
        fid = frame.get("id")
        series = self._frames
        series[""] = series.get("", 0.0) + 1.0
        try:
            frame_type = frame.get("type")
            if frame_type == "ping":
                self._reply(session, {"type": "pong"}, fid)
            elif frame_type == "begin":
                self._handle_begin(session, frame, fid)
            elif frame_type == "op":
                self._handle_op(session, frame, fid)
            elif frame_type == "commit":
                self._handle_commit(session, frame, fid)
            elif frame_type == "abort":
                self._handle_abort(session, frame, fid)
            elif frame_type == "sleep":
                self._handle_sleep(session, fid)
            elif frame_type == "awake":
                self._handle_awake(session, fid)
            elif frame_type == "bye":
                self._handle_bye(session, fid)
            elif frame_type == "hello":
                raise ProtocolError("hello", "session already attached")
            else:
                raise WireFormatError(
                    f"unknown frame type {frame_type!r}")
        except ReproError as exc:
            self.metrics.counter("service_error_frames").inc()
            session.send(error_frame(exc, re=fid))
        finally:
            self._responding_txn = None
        if self._pending_commits or self._retire or self.sessions.dead:
            self._pump()

    def _reply(self, session: Session, frame: dict[str, Any],
               fid: Any) -> None:
        if fid is not None:
            frame["re"] = fid
        session.send(frame)

    def _own_txn(self, session: Session, frame: dict[str, Any]) -> str:
        txn_id = frame.get("txn")
        if not isinstance(txn_id, str):
            raise WireFormatError(f"txn must be a string: {txn_id!r}")
        owner = self._txn_session.get(txn_id)
        if owner is not session:
            # Unknown and foreign transactions are indistinguishable on
            # purpose: a session cannot probe other sessions' ids.
            raise GTMError(f"unknown transaction {txn_id!r}")
        # the id string the GTM already holds, not this frame's copy:
        # the operation log keeps whichever it is given until it folds.
        return self.gtm.transactions[txn_id].txn_id

    # -- verbs ----------------------------------------------------------

    def _handle_begin(self, session: Session, frame: dict[str, Any],
                      fid: Any) -> None:
        txn_id = frame.get("txn")
        if txn_id is None:
            txn_id = session.next_txn_id()
        elif not isinstance(txn_id, str) or not txn_id:
            raise WireFormatError(
                f"txn must be a non-empty string: {txn_id!r}")
        if txn_id in self.gtm.transactions:
            raise ProtocolError("begin",
                                f"transaction {txn_id!r} exists")
        self._responding_txn = txn_id
        self.gtm.begin(txn_id)
        session.txns.add(txn_id)
        self._txn_session[txn_id] = session
        series = self._txn_begun
        series[""] = series.get("", 0.0) + 1.0
        self._reply(session, {"type": "begun", "txn": txn_id}, fid)

    def _handle_op(self, session: Session, frame: dict[str, Any],
                   fid: Any) -> None:
        txn_id = self._own_txn(session, frame)
        invocation = build_invocation(frame)
        obj = self._ensure_object(frame.get("object"), invocation.op_class)
        # the name string the lock table already holds, not this
        # frame's copy (as _own_txn does for transaction ids).
        object_name = obj.name
        if obj.binding is not None:
            # refused before invoke: granted, it would fail the commit's
            # SST and leave the transaction Committing, the object held
            operand = invocation.operand
            _refuse_unfit_ints(object_name,
                               operand.values() if type(operand) is dict
                               else (operand,), "operand")
        self._responding_txn = txn_id
        outcome = self.gtm.invoke(txn_id, object_name, invocation)
        if outcome == GrantOutcome.GRANTED:
            value = self.gtm.apply(txn_id, object_name, invocation)
            series = self._ops_granted
            series[""] = series.get("", 0.0) + 1.0
            self._reply(session, {
                "type": "granted", "txn": txn_id,
                "object": object_name, "member": invocation.member,
                "value": value}, fid)
        elif outcome == GrantOutcome.QUEUED:
            txn = self.gtm.transactions.get(txn_id)
            if txn is None or txn.state.terminal:
                # The admission cascade (victim aborts → unlock pump →
                # re-policing) chose *this* transaction as a later
                # victim after queueing it: QUEUED describes a
                # transaction that no longer exists.  Its outcome push
                # was suppressed (we are its direct reply), so report
                # the abort here.
                self._reply_op_aborted(session, txn_id, fid)
            elif txn.is_in(_TS.ACTIVE):
                # The same end-of-tick cascade can instead *grant* the
                # just-queued request (a victim's teardown pumped the
                # unlock queue before invoke returned).  The grant hook
                # saw no pending entry — the request id is not filed
                # yet — so nothing was applied or pushed: apply and
                # answer it here, or the id would dangle forever.
                value = self.gtm.apply(txn_id, object_name, invocation)
                series = self._ops_granted
                series[""] = series.get("", 0.0) + 1.0
                self._reply(session, {
                    "type": "granted", "txn": txn_id,
                    "object": object_name, "member": invocation.member,
                    "value": value}, fid)
            else:
                self._pending_ops.setdefault(txn_id, {}).setdefault(
                    (object_name, invocation.member), []).append(fid)
                self.metrics.counter("service_ops_queued").inc()
                self._reply(session, {
                    "type": "queued", "txn": txn_id,
                    "object": object_name,
                    "member": invocation.member}, fid)
        else:  # GrantOutcome.ABORTED
            self._reply_op_aborted(session, txn_id, fid)

    def _reply_op_aborted(self, session: Session, txn_id: str,
                          fid: Any) -> None:
        """The kernel aborted the transaction inside ``invoke``, as a
        deadlock victim: answer with the reason and count it."""
        reason = self._responding_reason
        if reason == "deadlock-victim":
            reason = "deadlock"  # the wire's name for it
        self.metrics.counter(
            f"service_{reason.replace('-', '_')}_aborts").inc()
        self._reply(session, {"type": "aborted", "txn": txn_id,
                              "reason": reason}, fid)

    def _handle_commit(self, session: Session, frame: dict[str, Any],
                       fid: Any) -> None:
        txn_id = self._own_txn(session, frame)
        self._responding_txn = txn_id
        self.gtm.request_commit(txn_id)
        # The SST report may be None even on success (objects without
        # an LDBS binding run no SST) — the transaction's state is the
        # truth: Committed now, or Committing behind another committer.
        txn = self.gtm.transactions.get(txn_id)
        if txn is not None and txn.is_in(_TS.COMMITTING):
            self._pending_commits.add(txn_id)
            self._reply(session, {"type": "commit-pending",
                                  "txn": txn_id}, fid)
        else:
            self._reply(session, {"type": "committed",
                                  "txn": txn_id}, fid)

    def _handle_abort(self, session: Session, frame: dict[str, Any],
                      fid: Any) -> None:
        txn_id = self._own_txn(session, frame)
        self._responding_txn = txn_id
        self.gtm.abort(txn_id, reason="requested")
        self._reply(session, {"type": "aborted", "txn": txn_id,
                              "reason": "requested"}, fid)

    def _handle_sleep(self, session: Session, fid: Any) -> None:
        """Voluntary ⟨sleep⟩ announce (the connection may stay up)."""
        slept: list[str] = []
        for txn_id in sorted(session.txns):
            txn = self.gtm.transactions.get(txn_id)
            if txn is not None and txn.is_in(_TS.ACTIVE, _TS.WAITING):
                self.gtm.sleep(txn_id)
                slept.append(txn_id)
        self._reply(session, {"type": "sleeping",
                              "token": session.token,
                              "txns": slept}, fid)

    def _handle_awake(self, session: Session, fid: Any) -> None:
        """Explicit ⟨awake⟩ for a client that slept without dropping."""
        results = self._awake_all(session)
        for result in results:
            reply = {"type": "awoken", **result}
            self._reply(session, reply, fid)
        if not results:
            self._reply(session, {"type": "awoken", "txn": None,
                                  "survived": True}, fid)

    def _handle_bye(self, session: Session, fid: Any) -> None:
        for txn_id in sorted(session.txns):
            txn = self.gtm.transactions.get(txn_id)
            if txn is None or txn.state.terminal:
                continue
            if txn.is_in(_TS.COMMITTING):
                continue
            self._responding_txn = None  # push the abort notification
            self.gtm.abort(txn_id, reason="session-closed")
        self._reply(session, {"type": "goodbye"}, fid)
        self.sessions.close(session)

    # ------------------------------------------------------------------
    # awake / pumps / bus hooks
    # ------------------------------------------------------------------

    def _awake_all(self, session: Session) -> list[dict[str, Any]]:
        """⟨awake, A⟩ every sleeping transaction; report each verdict."""
        results: list[dict[str, Any]] = []
        for txn_id in sorted(session.txns):
            txn = self.gtm.transactions.get(txn_id)
            if txn is None or not txn.is_in(_TS.SLEEPING):
                continue
            self._responding_txn = txn_id
            try:
                survived = self.gtm.awake(txn_id)
            finally:
                self._responding_txn = None
            results.append({"txn": txn_id, "survived": survived})
            self.metrics.counter(
                "service_awake_survived" if survived
                else "service_awake_aborted").inc()
        return results

    def _pump(self) -> None:
        """Finish deferred commits that became completable, then retire.

        :meth:`handle` calls it after a frame only when there is work:
        a commit is deferred, a finished transaction awaits retirement
        or a session died (``SessionStore.dead``); ``connect``,
        ``disconnect``, the BTO timer and ``shutdown`` always do.  It
        costs O(pending): one :meth:`try_finish_commit` per deferred
        commit and one eviction per finished transaction or dead
        session (:meth:`SessionStore.purge_finished`).  It never scans
        the transaction registry or the session directory.  Without
        ``retire_finished`` nothing is evicted, so the dead-session log
        is dropped instead of kept for a purge that never comes.
        """
        progress = True
        while progress and self._pending_commits:
            progress = False
            for txn_id in sorted(self._pending_commits):
                txn = self.gtm.transactions.get(txn_id)
                if txn is None or not txn.is_in(_TS.COMMITTING):
                    self._pending_commits.discard(txn_id)
                    continue
                if self.gtm.commit_ready(txn_id):
                    try:
                        self.gtm.try_finish_commit(txn_id)
                    except SSTFailure:
                        # The pipeline already aborted the transaction
                        # and its outcome push went out via the bus —
                        # a failed deferred SST must not crash the
                        # frame handler (or timer) that pumped it.
                        pass
                    progress = True
        if self.config.retire_finished:
            if self._retire:
                for txn_id in self._retire:
                    self.gtm.transactions.pop(txn_id, None)
                self._retire.clear()
            self.sessions.purge_finished()
        else:
            self.sessions.dead.clear()

    def _on_grant_hook(self, txn, obj, invocation) -> None:
        """Bus ``on_grant``: complete a queued op asynchronously."""
        ops = self._pending_ops.get(txn.txn_id)
        key = (obj.name, invocation.member)
        if not ops or key not in ops:
            return  # a synchronous grant — the direct reply covers it
        fid = ops[key].pop(0)
        if not ops[key]:
            del ops[key]
        if not ops:
            self._pending_ops.pop(txn.txn_id, None)
        session = self._txn_session.get(txn.txn_id)
        if session is None:
            return
        try:
            value = self.gtm.apply(txn.txn_id, obj.name, invocation)
        except ReproError as exc:
            self._push_correlated(session, error_frame(exc, re=fid))
            return
        series = self._ops_granted
        series[""] = series.get("", 0.0) + 1.0
        push = {"type": "granted", "txn": txn.txn_id,
                "object": obj.name, "member": invocation.member,
                "value": value}
        if fid is not None:
            push["re"] = fid
        self._push_correlated(session, push)

    def _push_correlated(self, session: Session,
                         frame: dict[str, Any]) -> None:
        """Deliver a request-correlated push, outage-proof.

        A grant can land in the disconnect window itself: putting one
        transaction to sleep unblocks a same-session sibling *before
        the loop sleeps it too*, and the grant hook runs while the
        sink is already gone.  Dropping the frame would leave its
        request id dangling forever, so a detached session holds it
        for the reconnect welcome instead.
        """
        if session.connected:
            session.send(frame)
        elif session.state is SessionState.DETACHED:
            session.held.append(frame)
        # expired/closed: the token never resumes — nothing to hold.

    def _on_finished(self, txn_id: str, outcome: str,
                     reason: str) -> None:
        """Bus global-commit/abort: bookkeeping plus the outcome push."""
        session = self._txn_session.pop(txn_id, None)
        self._pending_ops.pop(txn_id, None)
        was_pending_commit = txn_id in self._pending_commits
        self._pending_commits.discard(txn_id)
        series = self._txn_finished[outcome]
        series[""] = series.get("", 0.0) + 1.0
        if self.config.retire_finished:
            self._retire.append(txn_id)
        if session is None:
            return
        session.txns.discard(txn_id)
        if self._responding_txn == txn_id:
            self._responding_reason = reason
            return  # the direct reply carries the outcome
        if reason == "deadlock-victim":
            # a waiter wounded by another transaction's request; a
            # requester chosen as the victim is counted with its reply.
            self.metrics.counter("service_wounded_aborts").inc()
        if not session.connected:
            # Unreachable: hold the outcome for the reconnect welcome.
            session.finished[txn_id] = outcome
            return
        if outcome == "committed":
            if was_pending_commit:
                session.send({"type": "committed", "txn": txn_id})
        else:
            session.send({"type": "aborted", "txn": txn_id,
                          "reason": reason})

    def __repr__(self) -> str:
        return (f"<GTMService sessions={len(self.sessions)} "
                f"live_txns={len(self._txn_session)} "
                f"shutting_down={self._shutting_down}>")
