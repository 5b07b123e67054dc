"""Session state-machine tests, driven deterministically.

Satellite (c): the whole connection lifecycle — drop mid-op ⇒ ⟨sleep⟩,
reconnect-with-token ⇒ ⟨awake⟩, overstaying the BTO timeout ⇒ abort,
double-connects rejected — runs under the
:class:`~repro.sim.engine.SimulationEngine` driver, so the BTO timer
fires at an exact virtual instant and every assertion is reproducible.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.states import TransactionState
from repro.errors import SessionExpired, TokenInUse, UnknownToken
from repro.service import GTMService, ServiceConfig, SessionState
from repro.sim.engine import SimulationEngine


@pytest.fixture()
def engine():
    return SimulationEngine()


@pytest.fixture()
def service(engine):
    return GTMService(engine,
                      config=ServiceConfig(bto_timeout=60.0))


def connect(service, token=None, fid=1):
    frames = []
    hello = {"type": "hello", "id": fid}
    if token is not None:
        hello["token"] = token
    session = service.connect(hello, frames.append)
    return session, frames


class TestConnect:
    def test_fresh_hello_issues_token(self, service):
        session, frames = connect(service)
        assert session.state is SessionState.CONNECTED
        assert frames[0]["type"] == "welcome"
        assert frames[0]["token"] == session.token
        assert frames[0]["resumed"] is False

    def test_unknown_token_rejected(self, service):
        session, frames = connect(service, token="s999999")
        assert session is None
        assert frames[0]["type"] == "error"
        assert frames[0]["code"] == "session/unknown-token"

    def test_first_frame_must_be_hello(self, service):
        frames = []
        assert service.connect({"type": "ping"}, frames.append) is None
        assert frames[0]["code"] == "wire/malformed"

    def test_double_connect_same_token_rejected(self, service):
        session, _ = connect(service)
        second, frames = connect(service, token=session.token, fid=2)
        assert second is None
        assert frames[0]["code"] == "session/token-in-use"
        # the first transport keeps the session
        assert session.state is SessionState.CONNECTED


class TestDropMidOperation:
    def test_drop_puts_live_transactions_to_sleep(self, service):
        session, frames = connect(service)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "x",
                                 "operand": 4})
        assert frames[-1]["type"] == "granted"

        service.disconnect(session)
        assert session.state is SessionState.DETACHED
        assert service.gtm.transaction(txn).is_in(
            TransactionState.SLEEPING)

    def test_pushes_while_detached_are_dropped_not_queued(self, service):
        session, frames = connect(service)
        service.handle(session, {"type": "begin", "id": 2})
        service.disconnect(session)
        before = len(frames)
        session.send({"type": "pong"})
        assert len(frames) == before

    def test_waiting_transaction_sleeps_too(self, service):
        a, frames_a = connect(service)
        b, frames_b = connect(service, fid=2)
        service.handle(a, {"type": "begin", "id": 3})
        txn_a = frames_a[-1]["txn"]
        service.handle(b, {"type": "begin", "id": 4})
        txn_b = frames_b[-1]["txn"]
        service.handle(a, {"type": "op", "id": 5, "txn": txn_a,
                           "op": "assign", "object": "x", "operand": 1})
        service.handle(b, {"type": "op", "id": 6, "txn": txn_b,
                           "op": "assign", "object": "x", "operand": 2})
        assert frames_b[-1]["type"] == "queued"
        assert service.gtm.transaction(txn_b).is_in(
            TransactionState.WAITING)

        service.disconnect(b)
        assert service.gtm.transaction(txn_b).is_in(
            TransactionState.SLEEPING)


class TestReconnect:
    def test_reconnect_with_token_awakes_survivor(self, service):
        session, frames = connect(service)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "x",
                                 "operand": 4})
        service.disconnect(session)

        resumed, frames2 = connect(service, token=session.token, fid=4)
        assert resumed is session
        assert session.state is SessionState.CONNECTED
        welcome = frames2[0]
        assert welcome["resumed"] is True
        assert welcome["awake"] == [{"txn": txn, "survived": True}]
        assert service.gtm.transaction(txn).is_in(
            TransactionState.ACTIVE)

        # the survivor can still commit
        service.handle(session, {"type": "commit", "id": 5, "txn": txn})
        assert frames2[-1] == {"type": "committed", "txn": txn, "re": 5}

    def test_awake_conflict_aborts_sleeper(self, engine, service):
        a, frames_a = connect(service)
        b, frames_b = connect(service, fid=2)
        service.handle(a, {"type": "begin", "id": 3})
        txn_a = frames_a[-1]["txn"]
        service.handle(a, {"type": "op", "id": 4, "txn": txn_a,
                           "op": "assign", "object": "x", "operand": 1})
        service.disconnect(a)
        # Algorithm 9 compares commit times *strictly after* t_sleep,
        # so let virtual time move before B does conflicting work
        engine.run(until=1.0)

        # while A sleeps, B assigns the same member and commits — the
        # Algorithm 9 revalidation must fail A on awake
        service.handle(b, {"type": "begin", "id": 5})
        txn_b = frames_b[-1]["txn"]
        service.handle(b, {"type": "op", "id": 6, "txn": txn_b,
                           "op": "assign", "object": "x", "operand": 9})
        service.handle(b, {"type": "commit", "id": 7, "txn": txn_b})
        assert frames_b[-1]["type"] == "committed"

        resumed, frames2 = connect(service, token=a.token, fid=8)
        assert frames2[0]["awake"] == [{"txn": txn_a, "survived": False}]
        assert service.gtm.transaction(txn_a).is_in(
            TransactionState.ABORTED)

    def test_finished_while_away_reported_in_welcome(self, service):
        a, frames_a = connect(service)
        b, frames_b = connect(service, fid=2)
        service.handle(a, {"type": "begin", "id": 3})
        txn_a = frames_a[-1]["txn"]
        service.handle(b, {"type": "begin", "id": 4})
        txn_b = frames_b[-1]["txn"]
        # A queues behind B's conflicting grant, then requests commit?
        # No: A's op is *queued*; disconnect makes it sleep; B's wound
        # policy may abort it.  Use the simplest reliable finisher: B
        # commits, the grant pump fires while A is detached, and A's
        # queued op becomes a grant push A never sees.  A's txn stays
        # live, so instead finish A's work by BTO below — here we only
        # assert the welcome's finished map is delivered and drained.
        service.handle(b, {"type": "op", "id": 5, "txn": txn_b,
                           "op": "assign", "object": "x", "operand": 2})
        service.handle(a, {"type": "op", "id": 6, "txn": txn_a,
                           "op": "assign", "object": "x", "operand": 3})
        assert frames_a[-1]["type"] == "queued"
        service.disconnect(a)
        # B commits; A is detached, so any outcome for A's txns would
        # be held in session.finished rather than pushed
        service.handle(b, {"type": "commit", "id": 7, "txn": txn_b})

        resumed, frames2 = connect(service, token=a.token, fid=8)
        welcome = frames2[0]
        assert welcome["resumed"] is True
        assert isinstance(welcome["finished"], dict)
        assert a.finished == {}  # drained into the welcome


class TestBTOTimeout:
    def test_overstaying_aborts_and_reconnect_gets_expired(
            self, engine, service):
        session, frames = connect(service)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "x",
                                 "operand": 1})
        service.disconnect(session)
        assert session.bto_timer is not None
        assert session.bto_timer.alive

        engine.run(until=59.0)
        assert session.state is SessionState.DETACHED
        engine.run(until=61.0)
        assert session.state is SessionState.EXPIRED
        assert session.aborted_by_bto == (txn,)
        assert service.gtm.transaction(txn).is_in(
            TransactionState.ABORTED)

        late, frames2 = connect(service, token=session.token, fid=4)
        assert late is None
        assert frames2[0]["type"] == "error"
        assert frames2[0]["code"] == "session/expired"
        assert frames2[0]["aborted"] == [txn]

    def test_reconnect_in_time_cancels_the_timer(self, engine, service):
        session, frames = connect(service)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "x",
                                 "operand": 1})
        service.disconnect(session)
        timer = session.bto_timer
        engine.run(until=30.0)
        resumed, _ = connect(service, token=session.token, fid=4)
        assert resumed is session
        assert not timer.alive
        engine.run(until=120.0)  # the timer must never fire
        assert session.state is SessionState.CONNECTED
        assert service.gtm.transaction(txn).is_in(
            TransactionState.ACTIVE)

    def test_no_timeout_configured_sleeps_forever(self, engine):
        service = GTMService(engine,
                             config=ServiceConfig(bto_timeout=None))
        session, frames = connect(service)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "x",
                                 "operand": 1})
        service.disconnect(session)
        assert session.bto_timer is None
        engine.run(until=10_000.0)
        assert session.state is SessionState.DETACHED
        assert service.gtm.transaction(txn).is_in(
            TransactionState.SLEEPING)


class TestSessionClose:
    def test_bye_aborts_unfinished_and_closes(self, service):
        session, frames = connect(service)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "x",
                                 "operand": 1})
        service.handle(session, {"type": "bye", "id": 4})
        assert frames[-1] == {"type": "goodbye", "re": 4}
        assert session.state is SessionState.CLOSED
        assert service.gtm.transaction(txn).is_in(
            TransactionState.ABORTED)

    def test_closed_token_never_resumes(self, service):
        session, _ = connect(service)
        service.handle(session, {"type": "bye", "id": 2})
        second, frames = connect(service, token=session.token, fid=3)
        assert second is None
        assert frames[0]["code"] == "session/expired"


class TestStoreStateMachine:
    def test_resume_raises_per_state(self, service):
        from repro.service.session import SessionStore
        store = SessionStore()
        with pytest.raises(UnknownToken):
            store.resume("s000001")
        session = store.create()
        with pytest.raises(TokenInUse):
            store.resume(session.token)
        store.detach(session)
        assert store.resume(session.token) is session
        store.detach(session)
        store.expire(session, ("t9",))
        with pytest.raises(SessionExpired) as exc_info:
            store.resume(session.token)
        assert exc_info.value.aborted == ("t9",)


def full_scan_purge(store) -> int:
    """``purge_finished`` as it was first written: scan every session."""
    dead = [token for token, session in store._sessions.items()
            if session.state in (SessionState.EXPIRED,
                                 SessionState.CLOSED)]
    for token in dead:
        del store._sessions[token]
    return len(dead)


class TestPurgeEvictsWhatAFullScanWould:
    """``purge_finished`` only looks at sessions ``expire``/``close``
    recorded; over any sequence of store operations it must evict
    exactly what scanning the whole directory would."""

    @given(st.lists(st.tuples(
        st.sampled_from(["create", "detach", "expire", "close",
                         "resume", "purge"]),
        st.integers(min_value=0, max_value=7)), max_size=60))
    def test_against_the_scan(self, steps):
        from repro.service.session import SessionStore
        store, model = SessionStore(), SessionStore()
        for verb, pick in steps:
            if verb == "create":
                store.create()
                model.create()
                continue
            if verb == "purge":
                assert store.purge_finished() == full_scan_purge(model)
                assert list(store._sessions) == list(model._sessions)
                continue
            if not model._sessions:
                continue
            token = sorted(model._sessions)[pick % len(model._sessions)]
            state = model.get(token).state
            for target in (store, model):
                session = target.get(token)
                if verb == "detach" and state is SessionState.CONNECTED:
                    target.detach(session)
                elif verb == "expire" and state is SessionState.DETACHED:
                    target.expire(session, ())
                elif verb == "close" and state is SessionState.CONNECTED:
                    target.close(session)
                elif verb == "resume":
                    try:
                        target.resume(token)
                    except (SessionExpired, TokenInUse):
                        pass
        assert store.purge_finished() == full_scan_purge(model)
        assert list(store._sessions) == list(model._sessions)
        assert store.purge_finished() == 0


class TestRetirementKeepsMemoryFlat:
    """Satellite: ``retire_finished`` must bound *both* registries.

    A long-lived daemon cycles through thousands of clients; the GTM
    already retires terminal transactions, and
    :meth:`SessionStore.purge_finished` (called from the service pump)
    must do the same for EXPIRED / CLOSED tokens — otherwise the token
    directory grows one entry per client forever.
    """

    def test_bye_cycles_do_not_grow_the_directories(self, engine):
        service = GTMService(engine, config=ServiceConfig(
            bto_timeout=60.0, retire_finished=True))
        for cycle in range(50):
            frames = []
            session = service.connect({"type": "hello", "id": 1},
                                      frames.append)
            service.handle(session, {"type": "begin", "id": 2})
            txn = frames[-1]["txn"]
            service.handle(session, {"type": "op", "txn": txn,
                                     "object": "X", "op": "add",
                                     "operand": 1, "id": 3})
            service.handle(session, {"type": "commit", "txn": txn,
                                     "id": 4})
            service.handle(session, {"type": "bye", "id": 5})
            assert len(service.sessions) <= 1
            assert len(service.gtm.transactions) <= 1
        assert len(service.sessions) == 0
        assert len(service.gtm.transactions) == 0

    def test_expiry_cycles_do_not_grow_the_directories(self, engine):
        service = GTMService(engine, config=ServiceConfig(
            bto_timeout=5.0, retire_finished=True))
        for cycle in range(50):
            frames = []
            session = service.connect({"type": "hello", "id": 1},
                                      frames.append)
            service.handle(session, {"type": "begin", "id": 2})
            service.disconnect(session)
            engine.run()  # the BTO fires; expiry aborts the sleeper
            assert session.state is SessionState.EXPIRED
            assert len(service.sessions) <= 1
            assert len(service.gtm.transactions) <= 1
        assert len(service.sessions) == 0
        assert len(service.gtm.transactions) == 0
