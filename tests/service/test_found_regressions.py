"""Regressions found (and fixed) by ``repro.check --service-fuzz``.

Each test pins one service-layer race at its minimal reproduction.
The episode-driven ones were minimized by the delta-debugging shrinker
(:func:`repro.check.shrinker.shrink_service_episode`) against the
pre-fix code; the hand-built ones construct windows the synchronous
wire surface cannot reach on its own but embedding callers (who drive
``service.gtm`` directly) can.

Provenance of the shrunk specs: campaign seed 42, default
:class:`~repro.check.service_fuzzer.ServiceFuzzConfig`.
"""

from repro.check.service_fuzzer import (
    ClientActionSpec,
    ServiceClientSpec,
    ServiceEpisodeSpec,
    run_service_episode,
)
from repro.core.gtm import GrantOutcome
from repro.core.states import TransactionState
from repro.errors import BackendConflictError
from repro.service import GTMService, ServiceConfig, SessionState
from repro.sim.engine import SimulationEngine

_TS = TransactionState


def test_reconnect_replays_grant_held_across_outage():
    """Shrunk from seed 42 episode 14 (found by the drop/reconnect leg).

    One session, two overlapping transactions on one object: ``c0t0``
    holds the assign lock, ``c0t1``'s ``mul`` queues behind it.  The
    drop puts the siblings to sleep in sorted order — sleeping ``c0t0``
    pumps the unlock queue and *grants the still-awake* ``c0t1`` while
    the sink is already gone.  Pre-fix the grant push went through
    ``session.send`` and was silently dropped, so the queued request id
    never resolved even though ``c0t1`` went on to commit ("lost
    in-flight frame").  The fix holds correlated pushes on the session
    (``session.held``) and replays them right after the reconnect
    welcome.
    """
    spec = ServiceEpisodeSpec(
        seed=42, index=14,
        objects=(("X0", 20, "mul"),),
        clients=(ServiceClientSpec(name="c0", actions=(
            ClientActionSpec(at=1.729, kind="connect"),
            ClientActionSpec(at=2.079, kind="begin", txn="c0t0"),
            ClientActionSpec(at=2.371, kind="begin", txn="c0t1"),
            ClientActionSpec(at=2.85, kind="op", txn="c0t0",
                             object_name="X0", op="assign", operand=80),
            ClientActionSpec(at=4.055, kind="op", txn="c0t1",
                             object_name="X0", op="mul", operand=4.0),
            ClientActionSpec(at=4.545, kind="drop"),
            ClientActionSpec(at=6.181, kind="reconnect"),
            ClientActionSpec(at=6.386, kind="commit", txn="c0t1"),
        )),),
        bto_timeout=None, backend="memory")
    outcome = run_service_episode(spec)
    assert outcome.ok, outcome.summary()
    # the held grant is replayed on the reconnect stream, after welcome
    replayed = [frame for _when, serial, frame in outcome.transcripts["c0"]
                if serial == 2 and frame["type"] == "granted"]
    assert replayed and replayed[0]["txn"] == "c0t1"


def test_retire_finished_purges_dead_sessions():
    """Shrunk from seed 42 episode 2: a session that merely connects,
    drops, and overstays its BTO leaked an EXPIRED entry in the token
    directory forever when ``retire_finished`` promised flat memory.
    :meth:`SessionStore.purge_finished` now evicts it from the pump.
    """
    spec = ServiceEpisodeSpec(
        seed=42, index=2,
        objects=(("X0", 68, "add"),),
        clients=(ServiceClientSpec(name="c0", actions=(
            ClientActionSpec(at=1.283, kind="connect"),
            ClientActionSpec(at=11.735, kind="drop"),
        )),),
        bto_timeout=11.0, backend="memory", retire_finished=True)
    outcome = run_service_episode(spec)
    assert outcome.ok, outcome.summary()


class _ConflictingBackend:
    """Backend proxy whose every transaction begin raises a conflict."""

    def __init__(self, inner):
        self._inner = inner

    def begin(self, *args, **kwargs):
        raise BackendConflictError("injected conflict")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_deferred_commit_sst_failure_does_not_crash_pump():
    """A deferred ⟨commit⟩ whose SST fails must not blow up the pump.

    The synchronous wire surface completes every ``request_commit``
    within one frame, so the deferred-commit chain starts only when an
    embedding caller stages a partial commit directly — which the
    service supports: ``service.gtm`` is public.  Stage ``tA`` on X via
    ``local_commit``, let ``tB``'s wire commit defer behind it
    (``commit-pending``), finish ``tA``, then poison the SST backend so
    the pump's ``try_finish_commit(tB)`` exhausts its retries.  Pre-fix
    the resulting :class:`SSTFailure` escaped ``_pump`` and crashed
    whatever frame (here a ``ping``) happened to pump it; the abort
    push had already gone out via the bus, so swallowing the exception
    is the whole fix.
    """
    engine = SimulationEngine()
    service = GTMService(engine, config=ServiceConfig(
        bto_timeout=None, ldbs_backend="memory"))
    a_frames, b_frames = [], []
    sa = service.connect({"type": "hello", "id": "a0"}, a_frames.append)
    sb = service.connect({"type": "hello", "id": "b0"}, b_frames.append)
    service.handle(sa, {"type": "begin", "txn": "tA", "id": "a1"})
    service.handle(sb, {"type": "begin", "txn": "tB", "id": "b1"})
    service.handle(sa, {"type": "op", "txn": "tA", "object": "X",
                        "op": "add", "operand": 5, "id": "a2"})
    service.handle(sb, {"type": "op", "txn": "tB", "object": "X",
                        "op": "add", "operand": 7, "id": "b2"})

    assert service.gtm.local_commit("tA", "X")
    service.handle(sb, {"type": "commit", "txn": "tB", "id": "b3"})
    assert b_frames[-1] == {"type": "commit-pending", "txn": "tB",
                            "re": "b3"}
    assert "tB" in service._pending_commits

    service.gtm.global_commit("tA")
    assert service.gtm.commit_ready("tB")

    executor = service.gtm.sst_executor
    executor.backend = _ConflictingBackend(executor.backend)
    # pre-fix: SSTFailure propagates out of handle() here
    service.handle(sa, {"type": "ping", "id": "a3"})

    assert a_frames[-1] == {"type": "pong", "re": "a3"}
    assert b_frames[-1] == {"type": "aborted", "txn": "tB",
                            "reason": "sst-failure"}
    assert not service._pending_commits
    assert service.gtm.transaction("tB").is_in(_TS.ABORTED)


def test_cascade_grant_during_invoke_answers_queued_op():
    """The end-of-tick cascade can grant a request ``invoke`` reports
    as QUEUED: a victim teardown inside the admission flush pumps the
    unlock queue before ``invoke`` returns, so the grant hook fires
    while no request id is filed yet and treats the grant as synchronous.
    Pre-fix the service then filed the id and replied ``queued`` — a
    promise nothing would ever resolve (the grant already happened).
    The fix rechecks the transaction state: ACTIVE after QUEUED means
    the cascade granted it, so apply and answer ``granted`` directly.

    The multi-cycle GTM interleaving behind this is too rare for the
    fuzzer to synthesize on demand (0 hits in ~2000 episodes), so this
    test reproduces the cascade's *observable contract* at the facade
    seam: a real grant whose invoke outcome reads QUEUED.
    """
    engine = SimulationEngine()
    service = GTMService(engine, config=ServiceConfig(bto_timeout=None))
    frames = []
    session = service.connect({"type": "hello", "id": "c0"},
                              frames.append)
    service.handle(session, {"type": "begin", "txn": "t1", "id": "c1"})

    real_invoke = service.gtm.invoke

    def cascade_invoke(txn_id, object_name, invocation):
        outcome = real_invoke(txn_id, object_name, invocation)
        assert outcome == GrantOutcome.GRANTED
        return GrantOutcome.QUEUED  # what the cascade window reports

    service.gtm.invoke = cascade_invoke
    try:
        service.handle(session, {"type": "op", "txn": "t1",
                                 "object": "X", "op": "add",
                                 "operand": 3, "id": "c2"})
    finally:
        service.gtm.invoke = real_invoke

    # pre-fix: reply was {"type": "queued", ...} and the id dangled
    assert frames[-1]["type"] == "granted"
    assert frames[-1]["re"] == "c2"
    assert not service._pending_ops
    service.handle(session, {"type": "commit", "txn": "t1", "id": "c3"})
    assert frames[-1] == {"type": "committed", "txn": "t1", "re": "c3"}


def test_bto_expiry_clears_queued_reply_state():
    """Satellite audit: ⟨expire⟩ vs a queued reply in flight.

    A grant held for a detached session must die with the session when
    the BTO fires at its exact instant: ``expire()`` clears
    ``session.held`` and the abort pops the queued-op correlation, so
    nothing dangles and nothing leaks onto a later connection.  The
    reconnect is told the whole story via ``SessionExpired``.
    """
    engine = SimulationEngine()
    service = GTMService(engine, config=ServiceConfig(bto_timeout=8.0))
    frames = []
    session = service.connect({"type": "hello", "id": "h0"},
                              frames.append)
    token = frames[0]["token"]
    service.handle(session, {"type": "begin", "txn": "t1", "id": "f1"})
    service.handle(session, {"type": "begin", "txn": "t2", "id": "f2"})
    service.handle(session, {"type": "op", "txn": "t1", "object": "X",
                             "op": "assign", "operand": 1, "id": "f3"})
    service.handle(session, {"type": "op", "txn": "t2", "object": "X",
                             "op": "assign", "operand": 2, "id": "f4"})
    assert frames[-1]["type"] == "queued"
    assert service._pending_ops

    # the drop sleeps t1 first, which unblocks t2's queued assign while
    # the sink is gone: the grant lands in session.held
    engine.schedule_at(1.0, lambda _e: service.disconnect(session))
    engine.run(until=2.0)
    assert session.state is SessionState.DETACHED
    assert [f["type"] for f in session.held] == ["granted"]
    assert not service._pending_ops  # the grant popped the queued id

    engine.run(until=20.0)  # BTO fires at t=9.0 exactly
    assert session.state is SessionState.EXPIRED
    assert session.held == []  # expire() dropped the undeliverable push
    assert set(session.aborted_by_bto) == {"t1", "t2"}
    assert service.gtm.transaction("t1").is_in(_TS.ABORTED)
    assert service.gtm.transaction("t2").is_in(_TS.ABORTED)

    # the reconnect learns its transactions died with the timeout...
    rejected = []
    assert service.connect({"type": "hello", "token": token, "id": "h1"},
                           rejected.append) is None
    assert rejected[0]["type"] == "error"
    assert rejected[0]["code"] == "session/expired"
    # ...and no frame correlated to the dead request ids ever surfaces
    assert all(f.get("re") not in ("f3", "f4") for f in rejected)

    # a fresh hello starts clean
    fresh = []
    assert service.connect({"type": "hello", "id": "h2"},
                           fresh.append) is not None
    assert fresh[0]["type"] == "welcome"
