"""The ``wire_*`` workloads: sessions against a live ``ServiceServer``.

One process, one OS thread, no sockets: every session is a coroutine on
the one asyncio loop, talking to the server through
``memory_connector`` with the repository's own ``ServiceClient``.  The
generator therefore shares the core with the server; its cost shows up
in the traced run as ``loadgen.codec_self_s`` plus a part of
``transport.residual_s``.

Written fresh rather than on ``repro.service.load`` (README.md lists
that harness's defects): distinct objects per transaction, no drop
before the first grant, raw latency samples, open-loop latency timed
from when each transaction was *due*.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any

from repro.check.oracle import check_episode, record_gtm
from repro.core.history import values_equal
from repro.driver.asyncio_driver import AsyncioDriver
from repro.errors import GTMError, TokenInUse
from repro.ldbs.sqlite_backend import SQLiteBackend
from repro.service.client import ServiceClient
from repro.service.core import GTMService, ServiceConfig
from repro.service.server import ServiceServer, memory_connector

from e2e import yardstick
from e2e.report import percentile
from e2e.trace import Tracer
from e2e.workloads import (
    RECONNECT_DELAY_S,
    WIRE_WORKLOADS,
    TxnScript,
    WireWorkload,
    arrival_schedule,
    object_name,
    session_scripts,
)

COMMITTED = "committed"
#: Set-up is repeated until this much time went into it (and at least
#: ``setup_reps`` times, at most ten times that).
SETUP_BUDGET_S = 1.0


@dataclass
class ClientStats:
    """What the sessions observed around each outage, stamped with the
    time it happened (shared; one loop, no locking)."""

    drops: list[float] = field(default_factory=list)
    resume_retries: list[float] = field(default_factory=list)
    #: (welcome received at, hello -> welcome seconds, survived)
    resumes: list[tuple[float, float, bool]] = field(default_factory=list)


class MobileSession:
    """One mobile user: a session token and its current connection."""

    def __init__(self, connector, stats: ClientStats) -> None:
        self._connector = connector
        self._stats = stats
        self.client: ServiceClient | None = None
        self.token: str | None = None

    async def connect(self) -> None:
        self.client = ServiceClient(*await self._connector())
        await self.client.hello()
        self.token = self.client.token

    async def close(self) -> None:
        await self.client.bye()

    async def transact(self, script: TxnScript) -> str:
        """Run one scripted transaction; returns COMMITTED or why it did
        not commit: ``deadlock``, ``wounded``, ``awake_aborted`` and
        ``commit_aborted`` are outcomes of the protocol, ``error`` is a
        failure of the program (an error frame, a lost connection) and
        must not occur."""
        ops, drop_at = script
        try:
            txn = await self.client.begin()
            for index, (op, name, operand) in enumerate(ops):
                if index == drop_at:
                    if not await self._outage(txn):
                        return "awake_aborted"
                reply = await self.client.op(txn, op, name, operand)
                if reply["type"] == "aborted":
                    # The direct reply to this op: the requester closed
                    # a wait-for cycle and was the victim.  A push (no
                    # "re"): it was wounded while parked in a queue.
                    return "deadlock" if "re" in reply else "wounded"
            reply = await self.client.commit(txn)
        except GTMError:
            return "error"
        return COMMITTED if reply["type"] == COMMITTED else "commit_aborted"

    async def _outage(self, txn: str) -> bool:
        """Drop the connection, stay away, resume with the token and
        settle ``txn`` through its ⟨awake⟩ verdict (True = survived)."""
        stats = self._stats
        self.client.drop()
        stats.drops.append(perf_counter())
        await asyncio.sleep(RECONNECT_DELAY_S)
        while True:
            client = ServiceClient(*await self._connector())
            sent = perf_counter()
            try:
                welcome = await client.hello(self.token)
            except TokenInUse:
                # The server has not yet seen the old transport's EOF.
                await client.close()
                stats.resume_retries.append(perf_counter())
                await asyncio.sleep(RECONNECT_DELAY_S / 2)
                continue
            welcomed = perf_counter()
            break
        self.client = client
        for verdict in welcome["awake"]:
            if verdict["txn"] == txn:
                stats.resumes.append(
                    (welcomed, welcomed - sent, verdict["survived"]))
                if verdict["survived"]:
                    client.adopt(txn)
                return verdict["survived"]
        # The drop came after a grant, so the transaction slept and
        # must be in the verdicts; anything else is a program fault.
        raise GTMError(f"{txn} missing from the awake verdicts")


# ---------------------------------------------------------------------------
# set-up and tear-down
# ---------------------------------------------------------------------------


@dataclass
class Rig:
    service: GTMService
    server: ServiceServer
    sessions: list[MobileSession]
    stats: ClientStats


async def set_up(spec: WireWorkload) -> Rig:
    """Build the service, create and seed the objects, connect and
    ``hello`` every session — what ``setup_s`` times."""
    service = GTMService(AsyncioDriver(), config=ServiceConfig(
        retire_finished=True, bto_timeout=30.0,
        ldbs_backend=spec.backend))
    for index in range(spec.objects):
        service.create_object(object_name(index), value=1)
    server = ServiceServer(service)
    connector = memory_connector(server)
    stats = ClientStats()
    sessions = [MobileSession(connector, stats)
                for _ in range(spec.sessions)]
    for session in sessions:
        await session.connect()
    return Rig(service, server, sessions, stats)


async def tear_down(rig: Rig) -> None:
    for session in rig.sessions:
        await session.close()
    await rig.server.shutdown()


@contextmanager
def sqlite_without_fsync():
    """Run every SQLite connection at ``synchronous=OFF`` meanwhile.

    The backend leaves the flush policy at SQLite's default (FULL: the
    pragma is per connection and each transaction opens its own), and
    this sandbox's disk takes 0.2 or 0.4 ms per fsync depending on the
    minute, several times per commit: with fsync on, ``wire_sqlite``
    measured the disk (250 to 400 txn/s, run-to-run spread 0.2 to 0.5).
    With it off the same statements, WAL writes and checkpoints run
    against the page cache and what is left is the program's own cost.
    """
    connect = SQLiteBackend._connect

    def connect_without_fsync(backend):
        conn = connect(backend)
        conn.execute("PRAGMA synchronous=OFF")
        return conn

    SQLiteBackend._connect = connect_without_fsync
    try:
        yield
    finally:
        SQLiteBackend._connect = connect


# ---------------------------------------------------------------------------
# the two loops
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """The measured interval, opened and closed by the controller."""

    closed: bool = False
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    #: the yardstick's kernel, timed every few milliseconds meanwhile.
    kernel_s: list[float] = field(default_factory=list)


async def _controller(window: Window, tracer: Tracer | None,
                      opens_at: float, seconds: float) -> None:
    """Let the warm-up pass, then hold the window open for ``seconds``,
    running the yardstick meanwhile.

    Runs as a coroutine of the load generator, so no traced call is on
    the stack when tracing switches on or off.
    """
    await asyncio.sleep(opens_at - perf_counter())
    window.start = perf_counter()
    cpu_start = process_time()
    if tracer is not None:
        tracer.enabled = True
    closes_at = window.start + seconds
    while (left := closes_at - perf_counter()) > 0:
        await asyncio.sleep(min(yardstick.EVERY_S, left))
        window.kernel_s.append(yardstick.kernel())
    if tracer is not None:
        tracer.enabled = False
    window.end = perf_counter()
    window.cpu_s = process_time() - cpu_start
    window.closed = True


#: One finished transaction: (timed from, finished at, outcome).
Sample = tuple[float, float, str]


async def _closed_loop(rig: Rig, name: str, seed: int, window: Window,
                       samples: list[Sample]) -> None:
    async def drive(index: int, session: MobileSession) -> None:
        for script in session_scripts(seed, name, index):
            if window.closed:
                return
            started = perf_counter()
            outcome = await session.transact(script)
            samples.append((started, perf_counter(), outcome))

    await asyncio.gather(*(drive(index, session)
                           for index, session in enumerate(rig.sessions)))


@dataclass
class OpenLoopStats:
    #: (due, how long after it the arrival was handed to the pool)
    lags: list[tuple[float, float]] = field(default_factory=list)
    backlog_max: int = 0


async def _open_loop(rig: Rig, origin: float,
                     schedule: list[tuple[float, TxnScript]],
                     samples: list[Sample],
                     pacing: OpenLoopStats) -> None:
    queue: asyncio.Queue = asyncio.Queue()

    async def serve(session: MobileSession) -> None:
        while True:
            job = await queue.get()
            if job is None:
                return
            due, script = job
            outcome = await session.transact(script)
            # Timed from when it was due, not from when a session
            # picked it up: a stall is charged to everyone behind it.
            samples.append((due, perf_counter(), outcome))

    async def dispatch() -> None:
        for offset, script in schedule:
            due = origin + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            pacing.lags.append((due, perf_counter() - due))
            queue.put_nowait((due, script))
            pacing.backlog_max = max(pacing.backlog_max, queue.qsize())
        for _ in rig.sessions:
            queue.put_nowait(None)

    await asyncio.gather(dispatch(),
                         *(serve(session) for session in rig.sessions))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify(rig: Rig, samples: list[Sample],
           ) -> tuple[list[str], dict[str, float]]:
    """Check the program's outputs; returns the problems found and
    what the oracle cost."""
    service = rig.service
    problems: list[str] = []

    started = perf_counter()
    report = check_episode(record_gtm(service.gtm))
    oracle = {"oracle.check_s": perf_counter() - started,
              "oracle.orders_tried": report.orders_tried}
    if not report.serializable:
        problems.append("history is not serializable: "
                        + "; ".join(report.mismatches[:3]))

    if service.backend is not None:
        rows = service.backend.dump()["gtm_objects"]
        for name, obj in service.gtm.objects.items():
            stored = rows.get(name, {}).get("value")
            if not values_equal(stored, obj.permanent["value"]):
                problems.append(
                    f"{name}: LDBS holds {stored!r}, the GTM "
                    f"{obj.permanent['value']!r} (lost update)")

    def server_count(counter: str) -> int:
        return int(service.metrics.counter(counter).total())

    if server_count("service_error_frames"):
        problems.append(
            f"{server_count('service_error_frames')} error frames")
    committed = sum(1 for sample in samples if sample[2] == COMMITTED)
    errors = sum(1 for sample in samples if sample[2] == "error")
    if errors:
        problems.append(f"{errors} transactions ended in an error")
    # The clients' view and the server's must agree: attempted =
    # committed + the abort causes, on both sides of the wire.
    if server_count("service_txn_committed") != committed:
        problems.append(
            f"clients saw {committed} commits, the server "
            f"{server_count('service_txn_committed')}")
    if server_count("service_txn_aborted") != len(samples) - committed:
        problems.append(
            f"clients saw {len(samples) - committed} aborts, the "
            f"server {server_count('service_txn_aborted')}")
    return problems, oracle


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class WireRun:
    """Raw outcome of one wire run, before it is turned into metrics."""

    spec: WireWorkload
    setup_s: list[float]
    #: box speed (see yardstick.py) beside the set-ups and in the window
    setup_speed: float
    speed: float
    window: Window
    #: the transactions that count: finished inside the window (closed
    #: loop) or due inside it (open loop).
    measured: list[Sample]
    #: seconds the measured transactions took: the window, or (open
    #: loop) from its opening to the last completion, which is longer
    #: than the window when the server fell behind the schedule.
    interval_s: float
    stats: ClientStats
    #: open loop: how late each measured arrival was handed to the
    #: session pool, and the deepest queue of arrivals waiting for one.
    lags_ms: list[float]
    backlog_max: int
    server_counts: dict[str, int]
    oracle: dict[str, float]
    problems: list[str]


async def run_wire(name: str, seed: int, seconds: float,
                   tracer: Tracer | None, *, setup_reps: int,
                   warmup_s: float) -> WireRun:
    spec = WIRE_WORKLOADS[name]

    # Cheap set-ups are repeated more often: the median of a few
    # millisecond-sized samples would not be steady.
    setup_s: list[float] = []
    setup_kernel_s = yardstick.burst()
    rig = None
    while (len(setup_s) < setup_reps
           or (sum(setup_s) < SETUP_BUDGET_S
               and len(setup_s) < 10 * setup_reps)):
        if rig is not None:
            await tear_down(rig)
        started = perf_counter()
        rig = await set_up(spec)
        setup_s.append(perf_counter() - started)
        setup_kernel_s += yardstick.burst()

    window = Window()
    samples: list[Sample] = []
    pacing = OpenLoopStats()
    schedule = (None if spec.rate is None
                else arrival_schedule(seed, name, warmup_s, seconds))
    # What set-up built (and the earlier set-ups left behind) is not
    # the window's garbage: collect it now and take the survivors out
    # of the collector's sight, as a server does after start-up.  Full
    # collections during the window then walk only what the traffic
    # allocated, instead of stopping the loop to re-walk the objects.
    gc.collect()
    gc.freeze()
    try:
        origin = perf_counter()
        opens_at = origin + warmup_s
        if schedule is None:
            loop = _closed_loop(rig, name, seed, window, samples)
        else:
            loop = _open_loop(rig, origin, schedule, samples, pacing)
        await asyncio.gather(
            _controller(window, tracer, opens_at, seconds), loop)
    finally:
        gc.unfreeze()

    problems, oracle = verify(rig, samples)
    server_counts = {
        key: int(rig.service.metrics.counter(key).total())
        for key in ("service_error_frames", "service_outbox_overflows",
                    "service_bto_aborts")}
    server_counts["sst_failed"] = rig.service.gtm.sst_executor.failed
    server_counts["ldbs_conflicts"] = sum(
        report.conflict_retries
        for report in rig.service.gtm.sst_reports)
    await tear_down(rig)

    lags_ms: list[float] = []
    if schedule is None:
        measured = [sample for sample in samples
                    if window.start <= sample[1] < window.end]
        interval_s = window.end - window.start
    else:
        # The schedule, not the clock, says which arrivals count.
        measured = [sample for sample in samples if sample[0] >= opens_at]
        interval_s = max(sample[1] for sample in measured) - opens_at
        lags_ms = [lag * 1000.0 for due, lag in pacing.lags
                   if due >= opens_at]
    run = WireRun(spec, setup_s, yardstick.speed(setup_kernel_s),
                  yardstick.speed(window.kernel_s), window, measured,
                  interval_s, rig.stats, lags_ms, pacing.backlog_max,
                  server_counts, oracle, problems)
    if lags_ms:
        problems.extend(late_generator(lags_ms, _latencies_ms(run)))
    return run


def late_generator(lags_ms: list[float],
                   latencies_ms: list[float]) -> list[str]:
    """The open loop's validity rule, as a list of problems.

    Generator and server share the thread, so a collector pause delays
    the dispatcher as it delays everyone: lag p99 *is* that pause and
    invalidates nothing, latency counts from the due time.  But a
    dispatcher that is usually later than a transaction takes is not
    offering the schedule it claims.
    """
    lag, latency = (statistics.median(lags_ms),
                    statistics.median(latencies_ms))
    if lag <= latency:
        return []
    return [f"the generator ran late: median lag {lag:.3f} ms exceeds "
            f"the median latency {latency:.3f} ms"]


def _latencies_ms(run: WireRun) -> list[float]:
    """Commit latencies, converted to the reference box's time."""
    return [(done - since) * 1000.0 * run.speed
            for since, done, outcome in run.measured
            if outcome == COMMITTED]


def end_to_end(run: WireRun) -> dict[str, float]:
    """Every time below is converted to the reference box's time."""
    latencies_ms = _latencies_ms(run)
    committed = len(latencies_ms)
    # An open loop's rate is set by its schedule, not by the box.
    interval_s = run.interval_s * (run.speed if run.spec.rate is None
                                   else 1.0)
    return {
        "setup_s": statistics.median(run.setup_s) * run.setup_speed,
        "commit_txn_per_s": committed / interval_s,
        "committed_share": committed / len(run.measured),
        "commit_latency_p50_ms": statistics.median(latencies_ms),
        # of everything attempted: an abort misses any latency limit.
        "within_limit_share": sum(
            1 for latency in latencies_ms
            if latency <= run.spec.latency_limit_ms) / len(run.measured),
        "cpu_ms_per_commit":
            run.window.cpu_s * 1000.0 * run.speed / committed,
    }


def per_layer(run: WireRun, tracer: Tracer) -> dict[str, Any]:
    window = run.window
    window_s = window.end - window.start

    def in_window(stamp: float) -> bool:
        return window.start <= stamp < window.end

    resumes = [resume for resume in run.stats.resumes
               if in_window(resume[0])]
    attempted = len(run.measured)
    outcomes = [outcome for _, _, outcome in run.measured]
    latencies_ms = _latencies_ms(run)
    counts = tracer.counts
    invokes = tracer.totals["gtm.invoke"][0]
    frames = (tracer.totals["protocol.decode"][0]
              + tracer.totals["protocol.encode"][0])
    return {
        "protocol.bytes_in": counts["protocol.bytes_in"],
        "protocol.bytes_out": counts["protocol.bytes_out"],
        "transport.residual_s": (window_s - tracer.traced_s()
                                 - sum(window.kernel_s)),
        "transport.frames_per_txn": frames / attempted,
        "transport.outbox_overflows":
            run.server_counts["service_outbox_overflows"],
        "service.ops_queued": counts["frames.queued"],
        "service.deferred_commits": counts["frames.commit-pending"],
        "service.held_pushes": counts["service.held_pushes"],
        "service.error_frames": run.server_counts["service_error_frames"],
        "gtm.grant_ratio": (counts["gtm.invoke.granted"] / invokes
                            if invokes else 0.0),
        "gtm.deadlock_aborts": outcomes.count("deadlock"),
        "gtm.wounded_waiters": outcomes.count("wounded"),
        "gtm.awake_aborted": outcomes.count("awake_aborted"),
        "gtm.commit_aborted": outcomes.count("commit_aborted"),
        "gtm.bto_aborts": run.server_counts["service_bto_aborts"],
        "sst.failed": run.server_counts["sst_failed"],
        "ldbs.conflicts": run.server_counts["ldbs_conflicts"],
        "loadgen.lag_p50_ms": (statistics.median(run.lags_ms)
                               if run.lags_ms else 0.0),
        "loadgen.lag_p99_ms": (percentile(run.lags_ms, 99)
                               if run.lags_ms else 0.0),
        "loadgen.backlog_max": run.backlog_max,
        "loadgen.commit_latency_p95_ms": percentile(latencies_ms, 95),
        "loadgen.commit_latency_p99_ms": percentile(latencies_ms, 99),
        "loadgen.latency_samples": len(latencies_ms),
        "loadgen.drops": sum(map(in_window, run.stats.drops)),
        "loadgen.resume_retries":
            sum(map(in_window, run.stats.resume_retries)),
        "loadgen.resume_latency_p50_ms": (
            statistics.median(resume[1] for resume in resumes) * 1000.0
            * run.speed if resumes else 0.0),
        "loadgen.awake_survival_share": (
            sum(1 for resume in resumes if resume[2]) / len(resumes)
            if resumes else 0.0),
        "loadgen.idle_s": window_s - window.cpu_s,
        "loadgen.yardstick_self_s": sum(window.kernel_s),
        "loadgen.machine_speed": run.speed,
        "trace.window_s": window_s,
        "trace.spans": tracer.span_count(),
        # The same quantity as the end-to-end cpu_ms_per_commit, from
        # the traced run: their ratio is the tracing overhead.
        "trace.cpu_ms_per_commit":
            window.cpu_s * 1000.0 * run.speed / len(latencies_ms),
        **run.oracle,
    }
