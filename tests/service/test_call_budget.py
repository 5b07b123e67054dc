"""A call budget for one wire transaction, beside the hop budget.

The hop budget pins what a round trip costs the event loop; this pins
what a transaction costs the interpreter between the two codecs.  One
transaction is begin, four ops on distinct objects (read / add / assign
/ mul at the benchmark's 3 / 5 / 1 / 1) and commit, and every request
goes ``encode_frame`` → ``decode_frame`` → ``GTMService.handle`` → sink
→ ``encode_frame`` → ``decode_frame``, in process: no loop, no clock.
Counted by ``sys.setprofile`` (``"call"`` events: Python functions,
generator resumptions, comprehension frames; C functions — orjson,
the stdlib's JSON scanner and encoder, ``sqlite3`` — are not counted), so the figure is a
property of the code path and repeats exactly from process to process
and under any ``PYTHONHASHSEED``.

Calls per transaction, 400 transactions over 64 objects, CPython 3.11:

============================================  ======  ======  ==========
                                              memory  sqlite  no backend
============================================  ======  ======  ==========
before ISSUE 24 (a predicate built and        565.5   499.8   403.0
applied per row, a SELECT before every
UPDATE, a C encoder built per frame)
ISSUE 24                                      516.7   436.9   379.0
the operation log folds (one more frame per   512.7   432.9   375.0
op to find the object)
one row version and one WAL record per        432.3   418.9   375.0
written row (no image copies, no lock
request or state for an uncontended lock,
no helper frame per row in the SST, the
column checks or the engine's write path)
the pump and the grant hook only when         391.0   377.5   333.6
there is work, no edge clearing on a
fresh grant, reconcilers keyed by class
bit, Eq. 2 in integers
the memory backend a dict of rows with an     369.1   377.5   333.6
overlay per transaction (no lock, WAL
record or row version per written row)
SQLite binds a bool itself (no conversion     369.1   369.1   333.6
helper and generator per bound value)
an op on a bound object refuses an int        373.1   373.1   333.6
operand no float can hold (one helper
frame per op)
one deadlock component: a finished            371.1   371.1   331.6
transaction leaves the wait-for graph
with no wrapper frame between
the codec in C (orjson: no                    359.1   359.1   319.6
``JSONDecoder.raw_decode`` frame per
decoded frame)
a request pays once: one ``Invocation``       314.2   314.2   274.7
per op shape (interned, not built and
validated per frame), no tick around
``begin`` and ``apply``, no lookup frame
under ``GTM.object``, admission and
Definition 1's member test inline, the
service's counters bumped in place
one commit-time lookup: the kernel's          304.2   304.2   264.7
clock read is the clock's own frame (no
lambda above it), and the commit pipeline
subscripts the lock table's dict (no
``LockTable.get`` frame per involved
object)
budget (440 / 426 / 386 before the pump       309.7   309.7   277.7
line, lowered by 41.4; memory by 22.0
more with the line above the one before,
SQLite by 8.0 with the line before that,
all three by 12.0 with the codec in C,
by 44.9 when a request paid once and by
10.0 with one commit-time lookup)
============================================  ======  ======  ==========

What a re-added level costs, in calls per transaction: one more frame
per *encoded frame* (the stdlib's ``JSONEncoder.encode`` back under
``encode_frame``) is 12, per *decoded* one as many (the
``raw_decode`` frame the C codec dropped); one more frame per
*request* is 6; an ``Invocation`` built per op frame again is 7.9 (its
``__init__`` and ``__post_init__``, four ops); one more per *written
row* (a key-column helper, a ``get_row`` before the ``UPDATE``; a
predicate built, compared and applied was 5 of them) is 2.8; one more
per *SST* (a report helper, a second context manager) is 1.  The
budgets on a backend leave room for a frame per row, not for one per
request; the one without a backend for a frame per request or per
codec call, not for both.  CPython 3.12 inlines comprehensions and
counts a few calls fewer.

Each count starts from an empty ``build_invocation`` intern table, so
the shapes the counted transactions meet first are built inside the
count, whatever ran before in the process.

``test_round_trip_budget.py`` counts the same transaction with the
client, the transport and asyncio included.

The second test counts what SQLite itself is asked to run: one SST of
*n* written rows is ``BEGIN IMMEDIATE``, *n* statements, ``COMMIT``.

The last two price the set-up, ``GTMService.create_object`` of a value
object, whose row ``seed`` writes: *N* objects seeded on SQLite are
``BEGIN IMMEDIATE``, *N* ``INSERT`` statements and one ``COMMIT`` (it
was one transaction per object, 3 *N* statements), and Python-level
calls per object, counted as above:

================================================  ======  ======
                                                  memory  sqlite
================================================  ======  ======
one backend transaction per seeded object         28.0    39.0
a seed writes rows and nothing else               17.0    19.0
the int rule in the helper the op shares          18.0    20.0
budget                                            19      21
================================================  ======  ======

A transaction per seed again would cost 11 (memory) or 20 (SQLite)
calls per object.
"""

import random
import sys

import pytest

from repro.ldbs.sqlite_backend import SQLiteBackend
from repro.service import GTMService, ServiceConfig, protocol
from repro.service.protocol import decode_frame, encode_frame
from repro.sim.engine import SimulationEngine

TRANSACTIONS = 400
OBJECTS = 64
OPS_PER_TXN = 4
OP_MIX = ("read",) * 3 + ("add",) * 5 + ("assign", "mul")
#: backend name (None = virtual service) -> calls per transaction.
CALL_BUDGETS = {"memory": 309.7, "sqlite": 309.7, None: 277.7}
#: backend name -> calls per ``create_object`` (28.0 / 39.0 when every
#: seed was a backend transaction).
CREATE_BUDGETS = {"memory": 19, "sqlite": 21}


def _scripts(count):
    rng = random.Random(24)
    for _ in range(count):
        yield [(OP_MIX[rng.randrange(len(OP_MIX))], f"o{index:03d}",
                rng.randrange(1, 10))
               for index in rng.sample(range(OBJECTS), OPS_PER_TXN)]


class _WireSession:
    """One client's side of the wire, without the wire."""

    def __init__(self, backend):
        self.service = GTMService(SimulationEngine(), config=ServiceConfig(
            retire_finished=True, ldbs_backend=backend))
        for index in range(OBJECTS):
            self.service.create_object(f"o{index:03d}", value=1)
        self.replies = []
        self.session = self.service.connect(
            {"type": "hello", "id": 0}, self._sink)
        self._next_id = 1

    def _sink(self, frame):
        self.replies.append(decode_frame(encode_frame(frame)))

    def request(self, frame):
        frame["id"] = self._next_id
        self._next_id += 1
        self.service.handle(self.session, decode_frame(encode_frame(frame)))
        return self.replies.pop()

    def transact(self, script):
        txn = self.request({"type": "begin"})["txn"]
        for op, name, operand in script:
            frame = {"type": "op", "txn": txn, "op": op, "object": name,
                     "member": "value"}
            if op != "read":
                frame["operand"] = operand
            assert self.request(frame)["type"] == "granted"
        assert self.request({"type": "commit", "txn": txn}) == {
            "type": "committed", "txn": txn, "re": self._next_id - 1}


def _counted(run):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("backend", CALL_BUDGETS, ids=str)
def test_a_wire_transaction_stays_inside_its_call_budget(backend,
                                                         monkeypatch):
    # the count starts from an empty intern table, whatever ran before
    monkeypatch.setattr(protocol, "_INTERNED", {})
    wire = _WireSession(backend)
    try:
        for script in _scripts(8):  # warm: statement caches, lazy imports
            wire.transact(script)
        scripts = list(_scripts(TRANSACTIONS))
        calls = _counted(lambda: [wire.transact(s) for s in scripts])
    finally:
        wire.service.shutdown()
    assert wire.service.metrics.counter("service_error_frames").total() == 0
    per_transaction = calls / TRANSACTIONS
    assert per_transaction <= CALL_BUDGETS[backend], (
        f"{per_transaction:.1f} Python-level calls per wire transaction "
        f"on backend {backend!r}, budget {CALL_BUDGETS[backend]:.0f}: see "
        f"this module's docstring for what each re-added level costs")


def test_a_sqlite_sst_of_n_rows_executes_n_plus_two_statements(monkeypatch):
    statements = []
    connect = SQLiteBackend._connect

    def traced_connect(backend):
        conn = connect(backend)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(SQLiteBackend, "_connect", traced_connect)
    wire = _WireSession("sqlite")
    wire.service.backend.dump()     # commits the seed before the window
    try:
        for written in (1, 2, 3, 4):
            script = [("add" if index < written else "read",
                       f"o{index:03d}", 2) for index in range(OPS_PER_TXN)]
            del statements[:]
            wire.transact(script)
            assert len(statements) == written + 2, statements
            assert statements[0] == "BEGIN IMMEDIATE"
            assert statements[-1] == "COMMIT"
            assert all(s.startswith("UPDATE") for s in statements[1:-1])
    finally:
        wire.service.shutdown()


def _service(backend):
    return GTMService(SimulationEngine(), config=ServiceConfig(
        retire_finished=True, ldbs_backend=backend))


def test_seeding_n_objects_on_sqlite_runs_n_inserts_and_two_statements():
    service = _service("sqlite")
    try:
        backend = service.backend
        service.create_object("warm", value=1)
        backend.dump()                  # the writer exists and is idle
        statements = []
        backend._writer.set_trace_callback(statements.append)
        for index in range(OBJECTS):
            service.create_object(f"o{index:03d}", value=index)
        backend.dump()
        assert len(statements) == OBJECTS + 2, statements
        assert statements[0] == "BEGIN IMMEDIATE"
        assert statements[-1] == "COMMIT"
        assert all(s.startswith("INSERT") for s in statements[1:-1])
        assert len(backend.dump()["gtm_objects"]) == OBJECTS + 1
    finally:
        service.shutdown()


@pytest.mark.parametrize("backend", CREATE_BUDGETS)
def test_create_object_stays_inside_its_call_budget(backend):
    service = _service(backend)
    try:
        for index in range(8):  # warm: the INSERT text, the writer
            service.create_object(f"w{index}", value=1)
        calls = _counted(lambda: [
            service.create_object(f"o{index:04d}", value=1)
            for index in range(4 * OBJECTS)])
        assert len(service.backend.dump()["gtm_objects"]) == 8 + 4 * OBJECTS
    finally:
        service.shutdown()
    per_object = calls / (4 * OBJECTS)
    assert per_object <= CREATE_BUDGETS[backend], (
        f"{per_object:.1f} Python-level calls per create_object on "
        f"backend {backend!r}, budget {CREATE_BUDGETS[backend]}")
