"""Deterministic chaos fuzzer for the service layer.

The end-to-end benchmark (``benchmarks/e2e``) exercises `GTMService`
under wall-clock asyncio, which makes the interesting windows — a BTO
timer racing a reconnect, a repolice cascade racing an in-flight
``op`` reply, an outbox overflow forcing a detach mid-grant —
non-replayable.  This module drives the *same* service through the
Clock/Driver seam with the discrete-event
:class:`~repro.sim.engine.SimulationEngine`, so every episode is a
pure function of its :class:`ServiceEpisodeSpec` and every race is a
scheduled instant, not a coincidence.

One episode interleaves, on a single virtual timeline:

- several scripted clients (connect / begin / op / commit / abort /
  voluntary ⟨sleep⟩+⟨awake⟩ / bye), each on its own session;
- seeded connection drops and reconnects, including reconnects at the
  *exact* BTO-expiry instant probed on both sides of the timer
  (``late=False`` beats the timer, ``late=True`` loses to it);
- token replays (resume races / ``TokenInUse`` rejects) and stranger
  hellos with bogus tokens;
- tiny outbox bounds so server pushes overflow the transcript and
  force a detach mid-conversation;
- mid-episode LDBS faults: scheduled call ordinals of the SST
  executor's ``begin(write=True)`` raise
  :class:`~repro.errors.BackendConflictError`, so short bursts consume
  conflict retries and long bursts exhaust them into an SST failure;
- transaction/session retirement on or off.

The verdict glue lives in :mod:`repro.check.service_oracle`; a
campaign mirrors :mod:`repro.check.runner` (episodes in order, one
rolling digest over their summaries).  Fuzz-level counters (episodes, drops,
overflows, skipped actions) are recorded in the episode's own
:class:`~repro.obs.registry.MetricsRegistry` alongside the service's
counters and accumulated per campaign — no ad-hoc stat dicts.
"""

from __future__ import annotations

import hashlib
import json
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.check.service_oracle import (
    OracleReport,
    Transcripts,
    check_service_gtm,
    check_service_oracle,
    check_service_state,
    check_transcripts,
)
from repro.errors import BackendConflictError
from repro.obs.registry import accumulate_snapshot
from repro.service.core import GTMService, ServiceConfig
from repro.service.session import SessionState
from repro.sim.engine import SimulationEngine

#: Client action kinds a spec may schedule.
ACTION_KINDS = frozenset({
    "connect", "reconnect", "replay_token", "stranger_hello", "drop",
    "begin", "op", "commit", "abort", "sleep", "awake", "bye",
})

#: Action kinds that put a frame on an attached connection.
_FRAME_KINDS = frozenset({"begin", "op", "commit", "abort", "sleep",
                          "awake", "bye"})

#: MULDIV factors (never 0; reciprocals keep values exact-ish).
_MUL_FACTORS = (2.0, 0.5, 3.0, 1.5, 4.0, 0.25)


# ---------------------------------------------------------------------------
# specs — pure data, repr-pastable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientActionSpec:
    """One scheduled client action at a virtual instant."""

    at: float
    kind: str
    txn: str | None = None
    object_name: str | None = None
    op: str | None = None
    operand: Any = None
    #: Exact-instant probe: schedule at priority 1 so a timer already
    #: scheduled for the same instant fires *first* (the reconnect
    #: loses the race); the default priority 0 wins it.
    late: bool = False


@dataclass(frozen=True)
class ServiceClientSpec:
    """One scripted client: a name and its action schedule."""

    name: str
    actions: tuple[ClientActionSpec, ...]


@dataclass(frozen=True)
class ServiceEpisodeSpec:
    """Everything one service episode needs — a pure value.

    Every field is a builtin scalar or (nested) tuple, so
    ``repr(spec)`` is valid Python and the shrinker's output pastes
    straight into a regression test.
    """

    seed: int
    index: int
    #: (name, initial value, arithmetic domain "add" | "mul").
    objects: tuple[tuple[str, int, str], ...]
    clients: tuple[ServiceClientSpec, ...]
    bto_timeout: float | None = 8.0
    max_outbox: int = 1024
    backend: str | None = None
    #: 0-based ordinals of SST-executor ``begin(write=True)`` calls
    #: that raise BackendConflictError (consecutive ordinals form a
    #: burst; >= max_retries+1 in one SST exhausts it).
    fault_calls: tuple[int, ...] = ()
    retire_finished: bool = False

    def describe(self) -> str:
        knobs = []
        if self.bto_timeout is None:
            knobs.append("bto=off")
        else:
            knobs.append(f"bto={self.bto_timeout:g}")
        if self.max_outbox < 1024:
            knobs.append(f"outbox={self.max_outbox}")
        if self.backend:
            knobs.append(self.backend)
        if self.fault_calls:
            knobs.append(f"faults={len(self.fault_calls)}")
        if self.retire_finished:
            knobs.append("retire")
        actions = sum(len(c.actions) for c in self.clients)
        return (f"service episode {self.index} (seed {self.seed}): "
                f"{len(self.clients)} clients, {len(self.objects)} "
                f"objects, {actions} actions [{' '.join(knobs)}]")


@dataclass(frozen=True)
class ServiceFuzzConfig:
    """Knobs for the service episode generator."""

    max_clients: int = 3
    max_objects: int = 3
    max_txns_per_client: int = 3
    max_ops_per_txn: int = 3
    p_mul_domain: float = 0.3
    p_no_bto: float = 0.15
    p_tiny_outbox: float = 0.25
    p_backend: float = 0.35
    p_sqlite: float = 0.25
    p_faults: float = 0.5
    p_retire: float = 0.3
    #: Chance a client keeps two transactions open at once and
    #: interleaves their ops — the only way to open the
    #: disconnect-window race where sleeping one transaction grants
    #: its still-awake same-session sibling.
    p_overlap: float = 0.45
    p_drop: float = 0.4
    p_exact_expiry: float = 0.35
    p_expire: float = 0.3
    p_replay: float = 0.2
    p_stranger: float = 0.08
    p_voluntary_sleep: float = 0.12
    p_abort: float = 0.12
    p_final_drop: float = 0.2

    def __post_init__(self) -> None:
        if self.max_clients < 1 or self.max_objects < 1 \
                or self.max_txns_per_client < 1 \
                or self.max_ops_per_txn < 1:
            raise ValueError("ServiceFuzzConfig bounds must be >= 1")


# ---------------------------------------------------------------------------
# generator — spec is a pure function of (config, seed, index)
# ---------------------------------------------------------------------------


def _draw_op(rng: np.random.Generator,
             domain: str) -> tuple[str, Any]:
    """One domain-disciplined operation (MULDIV never sees zeroes)."""
    roll = float(rng.random())
    if domain == "mul":
        if roll < 0.35:
            return "read", None
        if roll < 0.8:
            return "mul", float(_MUL_FACTORS[
                int(rng.integers(0, len(_MUL_FACTORS)))])
        return "assign", int(rng.integers(1, 20)) * 10
    if roll < 0.3:
        return "read", None
    if roll < 0.8:
        return "add", int(rng.integers(-9, 10))
    return "assign", int(rng.integers(0, 200))


def generate_service_episode(config: ServiceFuzzConfig, seed: int,
                             index: int) -> ServiceEpisodeSpec:
    """Deterministically derive episode ``index`` of a campaign."""
    sequence = np.random.SeedSequence(
        entropy=int(seed),
        spawn_key=(zlib.crc32(b"service-fuzz"), int(index)))
    rng = np.random.default_rng(sequence)

    n_objects = int(rng.integers(1, config.max_objects + 1))
    objects = []
    for i in range(n_objects):
        if float(rng.random()) < config.p_mul_domain:
            objects.append((f"X{i}", int(rng.integers(2, 7)) * 10,
                            "mul"))
        else:
            objects.append((f"X{i}", int(rng.integers(50, 151)),
                            "add"))

    bto_timeout = (None if float(rng.random()) < config.p_no_bto
                   else float(int(rng.integers(5, 16))))
    max_outbox = 1024
    if bto_timeout is not None \
            and float(rng.random()) < config.p_tiny_outbox:
        # Tiny outboxes force detaches; only safe with a BTO to settle
        # the resulting orphaned sessions.
        max_outbox = int(rng.integers(2, 5))
    backend = None
    fault_calls: tuple[int, ...] = ()
    if float(rng.random()) < config.p_backend:
        backend = ("sqlite" if float(rng.random()) < config.p_sqlite
                   else "memory")
        if float(rng.random()) < config.p_faults:
            faults: set[int] = set()
            for _ in range(int(rng.integers(1, 3))):
                start = int(rng.integers(0, 8))
                faults.update(range(start,
                                    start + int(rng.integers(1, 5))))
            fault_calls = tuple(sorted(faults))
    retire_finished = float(rng.random()) < config.p_retire

    clients = []
    n_clients = int(rng.integers(1, config.max_clients + 1))
    for ci in range(n_clients):
        clients.append(_generate_client(
            rng, config, f"c{ci}", objects, bto_timeout))
    return ServiceEpisodeSpec(
        seed=int(seed), index=int(index), objects=tuple(objects),
        clients=tuple(clients), bto_timeout=bto_timeout,
        max_outbox=max_outbox, backend=backend,
        fault_calls=fault_calls, retire_finished=retire_finished)


def _generate_client(rng: np.random.Generator,
                     config: ServiceFuzzConfig, name: str,
                     objects: list[tuple[str, int, str]],
                     bto_timeout: float | None) -> ServiceClientSpec:
    """Script one client: txns with ops, chaos windows, an ending."""
    t = round(float(rng.uniform(0.0, 2.0)), 3)
    actions: list[ClientActionSpec] = [
        ClientActionSpec(at=t, kind="connect")]

    def step(lo: float = 0.05, hi: float = 0.6) -> float:
        nonlocal t
        t = round(t + float(rng.uniform(lo, hi)), 3)
        return t

    def chaos() -> str:
        """Drop the connection; return how the client came back.

        "resumed": reconnected with live session; "expired": stayed
        away past the BTO (fresh session follows); "gone": never
        returns — the BTO settles the leftovers.
        """
        nonlocal t
        actions.append(ClientActionSpec(at=step(), kind="drop"))
        if bto_timeout is None:
            actions.append(ClientActionSpec(
                at=step(0.5, 2.0), kind="reconnect"))
            return "resumed"
        if float(rng.random()) < config.p_replay:
            # replay the token from a second transport while detached:
            # it resumes the session (adopting the new connection).
            actions.append(ClientActionSpec(
                at=step(0.2, 1.0), kind="replay_token"))
            return "resumed"
        roll = float(rng.random())
        if roll < config.p_exact_expiry:
            late = bool(rng.random() < 0.5)
            t = round(t + bto_timeout, 3)
            actions.append(ClientActionSpec(
                at=t, kind="reconnect", late=late))
            if not late:
                return "resumed"
            actions.append(ClientActionSpec(at=step(), kind="connect"))
            return "expired"
        if roll < config.p_exact_expiry + config.p_expire:
            t = round(t + bto_timeout + float(rng.uniform(0.5, 2.0)), 3)
            actions.append(ClientActionSpec(at=t, kind="reconnect"))
            actions.append(ClientActionSpec(at=step(), kind="connect"))
            return "expired"
        t = round(t + float(rng.uniform(0.3, max(0.4, 0.8 * bto_timeout))),
                  3)
        actions.append(ClientActionSpec(at=t, kind="reconnect"))
        return "resumed"

    gone = False
    n_txns = int(rng.integers(1, config.max_txns_per_client + 1))
    k = 0
    while k < n_txns and not gone:
        # One transaction, or an interleaved concurrent pair: only a
        # pair can hit the disconnect window where sleeping the first
        # transaction grants its still-awake sibling.
        pair = (k + 1 < n_txns
                and float(rng.random()) < config.p_overlap)
        txns = [f"{name}t{k}"]
        if pair:
            txns.append(f"{name}t{k + 1}")
        k += len(txns)
        if float(rng.random()) < config.p_stranger:
            actions.append(ClientActionSpec(at=step(),
                                            kind="stranger_hello"))
        for txn in txns:
            actions.append(ClientActionSpec(at=step(), kind="begin",
                                            txn=txn))
        budgets = {txn: int(rng.integers(1, config.max_ops_per_txn + 1))
                   for txn in txns}
        dead = False
        while any(budgets.values()) and not dead:
            live = [txn for txn in txns if budgets[txn] > 0]
            txn = live[int(rng.integers(0, len(live)))]
            budgets[txn] -= 1
            obj_name, _value, domain = objects[
                int(rng.integers(0, len(objects)))]
            op, operand = _draw_op(rng, domain)
            actions.append(ClientActionSpec(
                at=step(), kind="op", txn=txn, object_name=obj_name,
                op=op, operand=operand))
            if float(rng.random()) < config.p_voluntary_sleep:
                actions.append(ClientActionSpec(at=step(),
                                                kind="sleep"))
                actions.append(ClientActionSpec(at=step(),
                                                kind="awake"))
            if float(rng.random()) < config.p_drop:
                fate = chaos()
                if fate == "expired":
                    dead = True  # the BTO aborted every open txn
        if dead:
            continue
        if bto_timeout is not None and k >= n_txns \
                and float(rng.random()) < config.p_final_drop:
            # leave with work open: the BTO timer settles the episode.
            actions.append(ClientActionSpec(at=step(), kind="drop"))
            gone = True
            break
        order = list(txns)
        if len(order) > 1 and float(rng.random()) < 0.5:
            order.reverse()
        for txn in order:
            if float(rng.random()) < config.p_abort:
                actions.append(ClientActionSpec(at=step(), kind="abort",
                                                txn=txn))
            else:
                actions.append(ClientActionSpec(at=step(),
                                                kind="commit", txn=txn))
    if not gone:
        actions.append(ClientActionSpec(at=step(), kind="bye"))
    return ServiceClientSpec(name=name, actions=tuple(actions))


def frame_schedule(spec: ServiceEpisodeSpec) -> str:
    """Canonical text rendering of the planned schedule.

    A pure function of the spec (no execution involved): the
    determinism tests assert byte-identity of this rendering and of
    the executed transcript digest across reruns.
    """
    lines = [f"# {spec.describe()}"]
    for name, value, domain in spec.objects:
        lines.append(f"object {name} = {value} ({domain})")
    for client in spec.clients:
        for ai, action in enumerate(client.actions):
            parts = [f"{action.at:9.3f}", client.name, f"a{ai}",
                     action.kind]
            if action.txn is not None:
                parts.append(f"txn={action.txn}")
            if action.kind == "op":
                parts.append(f"{action.object_name}.{action.op}"
                             f"({action.operand!r})")
            if action.late:
                parts.append("late")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# episode execution
# ---------------------------------------------------------------------------


class _ConflictBurstBackend:
    """Backend proxy: scheduled ``begin(write=True)`` calls conflict.

    Wraps the SST executor's backend only — the service's own handle
    (object seeding, the final dump/close) stays fault-free.  Ordinals
    count write-transactions begun; read transactions pass through.
    """

    def __init__(self, inner: Any, fault_calls: Iterable[int],
                 metrics: Any) -> None:
        self._inner = inner
        self._fault_calls = frozenset(fault_calls)
        self._write_begins = 0
        self._metrics = metrics

    def begin(self, txn_id: str | None = None, *,
              write: bool = False) -> Any:
        if write:
            ordinal = self._write_begins
            self._write_begins += 1
            if ordinal in self._fault_calls:
                self._metrics.counter("fuzz_backend_faults").inc()
                raise BackendConflictError(
                    f"injected conflict at write-begin #{ordinal}")
        return self._inner.begin(txn_id, write=write)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _Conn:
    """One transport attachment: a sink plus overflow accounting."""

    __slots__ = ("serial", "alive", "unread", "sink")

    def __init__(self, serial: int) -> None:
        self.serial = serial
        self.alive = True
        self.unread = 0
        self.sink: Callable[[dict[str, Any]], None] | None = None


class _ClientState:
    """Mutable per-client runtime alongside its immutable spec."""

    __slots__ = ("spec", "token", "session", "conn", "conn_count")

    def __init__(self, spec: ServiceClientSpec) -> None:
        self.spec = spec
        self.token: str | None = None
        self.session = None
        self.conn: _Conn | None = None
        self.conn_count = 0


class _EpisodeRunner:
    """Schedules a spec's actions onto one engine and runs them."""

    def __init__(self, spec: ServiceEpisodeSpec) -> None:
        self.spec = spec
        self.engine = SimulationEngine()
        self.service = GTMService(self.engine, config=ServiceConfig(
            bto_timeout=spec.bto_timeout, max_outbox=spec.max_outbox,
            retire_finished=spec.retire_finished,
            ldbs_backend=spec.backend))
        self.metrics = self.service.metrics
        if spec.fault_calls:
            executor = getattr(self.service.gtm, "sst_executor", None)
            if executor is not None:
                executor.backend = _ConflictBurstBackend(
                    executor.backend, spec.fault_calls, self.metrics)
        for name, value, _domain in spec.objects:
            self.service.create_object(name, value=value)
        self.clients = {c.name: _ClientState(c) for c in spec.clients}
        self.transcripts: Transcripts = {c.name: []
                                         for c in spec.clients}

    # -- connections --------------------------------------------------------

    def _open_conn(self, client: _ClientState) -> _Conn:
        client.conn_count += 1
        conn = _Conn(client.conn_count)
        name = client.spec.name

        def sink(frame: dict[str, Any]) -> None:
            self.transcripts[name].append(
                (self.engine.now, conn.serial, dict(frame)))
            conn.unread += 1
            if conn.alive and conn.unread > self.spec.max_outbox:
                # Backpressure by disconnection: the server-side
                # transport force-detaches a client that stopped
                # reading.  Scheduled, not inline — the service may be
                # mid-cascade when the overflowing push goes out.
                conn.alive = False
                self.metrics.counter("fuzz_outbox_overflows").inc()
                self.engine.schedule_at(
                    self.engine.now,
                    lambda _e: self._force_detach(client, conn),
                    priority=8, label=f"overflow:{name}")

        conn.sink = sink
        return conn

    def _force_detach(self, client: _ClientState, conn: _Conn) -> None:
        session = client.session
        if session is None or session.sink is not conn.sink:
            return  # a newer transport owns the session already
        if session.state is SessionState.CONNECTED:
            self.service.disconnect(session)
        if client.conn is conn:
            client.conn = None

    def _attached(self, client: _ClientState) -> bool:
        return (client.conn is not None and client.conn.alive
                and client.session is not None
                and client.session.state is SessionState.CONNECTED
                and client.session.sink is client.conn.sink)

    def _hello(self, client: _ClientState, fid: str,
               token: str | None) -> None:
        conn = self._open_conn(client)
        hello: dict[str, Any] = {"type": "hello", "id": fid}
        if token is not None:
            hello["token"] = token
        session = self.service.connect(hello, conn.sink)
        if session is None:
            conn.alive = False
            return
        if client.conn is not None and client.conn is not conn:
            client.conn.alive = False  # replaced transport
        client.session = session
        client.token = session.token
        client.conn = conn

    # -- action dispatch ----------------------------------------------------

    def _run_action(self, client: _ClientState,
                    action: ClientActionSpec, fid: str) -> None:
        kind = action.kind
        if kind == "connect":
            if self._attached(client):
                self._skip()
                return
            self._hello(client, fid, token=None)
        elif kind == "reconnect":
            if client.token is None or self._attached(client):
                self._skip()
                return
            self.metrics.counter("fuzz_reconnects").inc()
            self._hello(client, fid, token=client.token)
        elif kind == "replay_token":
            if client.token is None:
                self._skip()
                return
            self.metrics.counter("fuzz_token_replays").inc()
            self._hello(client, fid, token=client.token)
        elif kind == "stranger_hello":
            conn = self._open_conn(client)
            self.service.connect(
                {"type": "hello", "id": fid, "token": "zz.bogus"},
                conn.sink)
            conn.alive = False
        elif kind == "drop":
            conn = client.conn
            if conn is None or not conn.alive:
                self._skip()
                return
            conn.alive = False
            client.conn = None
            session = client.session
            self.metrics.counter("fuzz_drops_injected").inc()
            if session is not None and session.sink is conn.sink \
                    and session.state is SessionState.CONNECTED:
                self.service.disconnect(session)
        elif kind in _FRAME_KINDS:
            if not self._attached(client):
                self._skip()
                return
            client.conn.unread = 0  # the client read its stream
            frame: dict[str, Any] = {"type": kind, "id": fid}
            if action.txn is not None:
                frame["txn"] = action.txn
            if kind == "op":
                frame["object"] = action.object_name
                frame["op"] = action.op
                if action.operand is not None:
                    frame["operand"] = action.operand
            self.service.handle(client.session, frame)
            if kind == "bye":
                client.conn.alive = False
                client.conn = None
        else:
            raise ValueError(f"unknown action kind {kind!r}")

    def _skip(self) -> None:
        self.metrics.counter("fuzz_actions_skipped").inc()

    # -- run ---------------------------------------------------------------

    def run(self) -> None:
        for client in self.clients.values():
            for ai, action in enumerate(client.spec.actions):
                fid = f"{client.spec.name}.a{ai}"
                self.engine.schedule_at(
                    action.at,
                    lambda _e, c=client, a=action, f=fid:
                        self._run_action(c, a, f),
                    priority=1 if action.late else 0,
                    label=f"{client.spec.name}:{action.kind}")
        self.engine.run()


def transcript_digest(transcripts: Transcripts) -> str:
    """Order-stable hash of every delivered frame (canonical JSON)."""
    rolling = hashlib.sha256()
    for client in sorted(transcripts):
        for when, serial, frame in transcripts[client]:
            rolling.update(
                f"{client}|{when:.6f}|{serial}|"
                f"{json.dumps(frame, sort_keys=True)}\n".encode("utf-8"))
    return rolling.hexdigest()


@dataclass
class ServiceEpisodeOutcome:
    """Everything one service episode produced."""

    spec: ServiceEpisodeSpec
    ok: bool
    committed: int = 0
    aborted: int = 0
    frames: int = 0
    #: sha256 over the full delivered-frame transcript.
    digest: str = ""
    oracle: OracleReport | None = None
    invariant_violations: list[str] = field(default_factory=list)
    crash: str | None = None
    #: Full per-client transcripts.
    transcripts: Transcripts | None = field(default=None, repr=False)
    #: Episode metrics snapshot (service + fuzz counters), excluded
    #: from :meth:`summary` so observability never moves the campaign
    #: digest.
    metrics: dict[str, dict] | None = field(default=None, repr=False)

    def summary(self) -> str:
        lines = [self.spec.describe(),
                 f"committed={self.committed} aborted={self.aborted} "
                 f"frames={self.frames} "
                 f"transcript={self.digest[:12] or 'n/a'}"]
        if self.crash:
            lines.append(f"CRASH: {self.crash}")
        if self.oracle is not None and not self.oracle.serializable:
            lines.append(
                f"NOT SERIALIZABLE after {self.oracle.orders_tried} "
                f"serial orders:")
            lines.extend(f"  {m}" for m in self.oracle.mismatches)
        for violation in self.invariant_violations:
            lines.append(f"INVARIANT: {violation}")
        if self.ok:
            lines.append("ok")
        return "\n".join(lines)


def run_service_episode(spec: ServiceEpisodeSpec) -> ServiceEpisodeOutcome:
    """Run one episode and verdict it (contract + invariants + oracle)."""
    runner = None
    try:
        runner = _EpisodeRunner(spec)
        runner.run()
        service = runner.service
        metrics = runner.metrics
        metrics.counter("fuzz_episodes").inc()
        violations = check_service_state(service, spec.bto_timeout)
        violations.extend(
            check_transcripts(service, runner.transcripts))
        # Graceful shutdown aborts whatever the clients left open, so
        # the object/quiescence sweep below checks mechanism, not
        # client manners.  It must run *after* the stranded-state and
        # transcript checks, which shutdown would otherwise clean up.
        service.shutdown()
        violations.extend(
            check_service_gtm(service, spec.retire_finished))
        oracle = check_service_oracle(service)
        committed = int(
            metrics.counter("service_txn_committed").total())
        aborted = int(metrics.counter("service_txn_aborted").total())
        frames = sum(len(t) for t in runner.transcripts.values())
        ok = oracle.serializable and not violations
        return ServiceEpisodeOutcome(
            spec, ok=ok, committed=committed, aborted=aborted,
            frames=frames,
            digest=transcript_digest(runner.transcripts),
            oracle=oracle, invariant_violations=violations,
            transcripts=runner.transcripts,
            metrics=metrics.snapshot())
    except Exception:  # noqa: BLE001 - unexpected crashes ARE findings
        outcome = ServiceEpisodeOutcome(
            spec, ok=False, crash=traceback.format_exc(limit=8))
        if runner is not None:
            outcome.digest = transcript_digest(runner.transcripts)
            outcome.transcripts = runner.transcripts
            outcome.metrics = runner.metrics.snapshot()
            backend = runner.service.backend
            if backend is not None:
                try:
                    backend.close()
                except Exception:  # noqa: BLE001 - best-effort cleanup
                    pass
        return outcome


@dataclass
class ServiceCampaignReport:
    """Aggregate of one service fuzz campaign."""

    config: ServiceFuzzConfig
    seed: int
    episodes: int
    failures: list[ServiceEpisodeOutcome] = field(default_factory=list)
    committed: int = 0
    aborted: int = 0
    shrunk: ServiceEpisodeSpec | None = None
    regression_test: str | None = None
    #: Rolling hash over every outcome summary in episode order.
    digest: str = ""
    #: Accumulated per-episode registry snapshots (service counters +
    #: fuzz counters); campaign-wide, episode order, digest-neutral.
    metrics: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def counter(self, name: str) -> int:
        """Campaign-wide counter total (0 when never incremented)."""
        series = self.metrics.get(name, {}).get("series", {})
        return int(sum(series.values()))

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (f"[service-fuzz] {self.episodes} episodes "
                f"(seed {self.seed}): {status}, "
                f"{self.committed} commits, {self.aborted} aborts, "
                f"{self.counter('fuzz_drops_injected')} drops, "
                f"{self.counter('fuzz_outbox_overflows')} overflows, "
                f"{self.counter('service_awake_survived')} awake-ok/"
                f"{self.counter('service_awake_aborted')} awake-abort")


def run_service_campaign(
        config: ServiceFuzzConfig, seed: int, episodes: int,
        max_failures: int = 1, shrink_failures: bool = True,
        progress: Callable[[int, ServiceEpisodeOutcome], None] | None
        = None) -> ServiceCampaignReport:
    """Run ``episodes`` seeded service episodes in order; stop at the
    cap.  Same accounting as :func:`repro.check.runner.run_campaign`.
    """
    # delayed import: the shrinker renders specs, no cycle at runtime.
    from repro.check.shrinker import (
        render_service_regression_test,
        shrink_service_episode,
    )
    report = ServiceCampaignReport(config=config, seed=seed,
                                   episodes=episodes)
    rolling = hashlib.sha256()
    for index in range(episodes):
        outcome = run_service_episode(
            generate_service_episode(config, seed, index))
        report.committed += outcome.committed
        report.aborted += outcome.aborted
        if outcome.metrics:
            accumulate_snapshot(report.metrics, outcome.metrics)
        rolling.update(f"{index}|{outcome.summary()}\n".encode("utf-8"))
        report.digest = rolling.hexdigest()
        if progress is not None:
            progress(index, outcome)
        if not outcome.ok:
            report.failures.append(outcome)
            if len(report.failures) >= max_failures:
                break
    if report.failures and shrink_failures:
        first = report.failures[0]
        report.shrunk = shrink_service_episode(
            first.spec,
            lambda candidate: not run_service_episode(candidate).ok)
        report.regression_test = render_service_regression_test(
            report.shrunk)
    return report
