"""An idle managed object costs what it holds: nothing but itself.

Section IV gives every object its X_* sets, and Algorithm 11 reads an
empty one as ⊥.  An object nobody holds, waits on, commits, aborts or
sleeps on keeps shared read-only empties in those slots, so registering
N rows adds N objects for the cyclic collector to walk, not 7N.  The
first claim allocates what it writes and the last one out puts the idle
state back, on every way a transaction can leave.

Per registered value object, 4096 registered, CPython 3.11 (GC-tracked
objects / tracemalloc bytes):

=========================  ==============  ==============
                           every X_* set   idle state
                           allocated
=========================  ==============  ==============
bare GTM                   7.00 / 1843     1.00 / 659
``GTMService``, memory     10.06 / 2546    4.06 / 1362
``GTMService``, SQLite     7.96 / 2151     1.96 / 967
=========================  ==============  ==============

CPython 3.12 reads the same counts and 8–16 bytes fewer; 3.10 reads
one more tracked object through ``GTMService`` and 128–290 more bytes.
The bounds below sit between the two columns on all three.
"""

import gc
import tracemalloc

import pytest

from repro.core import objects
from repro.core.gtm import GlobalTransactionManager, GrantOutcome
from repro.core.objects import ManagedObject, WaitEntry
from repro.core.opclass import add, assign
from repro.core.states import TransactionState
from repro.errors import BackendConflictError, GTMError
from repro.service import GTMService, ServiceConfig
from repro.sim.engine import SimulationEngine

_TS = TransactionState

REGISTERED = 1024
#: host -> (GC-tracked objects, tracemalloc bytes) per registered object.
BOUNDS = {"bare": (2.0, 1000), "memory": (5.5, 1900), "sqlite": (3.5, 1400)}


def _bare():
    gtm = GlobalTransactionManager()
    return gtm.create_object


def _service(backend):
    def build():
        service = GTMService(SimulationEngine(), config=ServiceConfig(
            retire_finished=True, ldbs_backend=backend))
        return service.create_object
    return build


HOSTS = {"bare": _bare, "memory": _service("memory"),
         "sqlite": _service("sqlite")}


def _footprint(build):
    create = build()
    for index in range(64):         # warm: lazy imports, first tables
        create(f"w{index:05d}", value=1)
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for index in range(REGISTERED):
            create(f"o{index:05d}", value=1)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    gc.collect()
    return ((len(gc.get_objects()) - tracked) / REGISTERED,
            grown / REGISTERED)


@pytest.mark.parametrize("host", HOSTS)
def test_a_registered_value_object_stays_small(host):
    tracked, grown = _footprint(HOSTS[host])
    max_tracked, max_bytes = BOUNDS[host]
    assert tracked <= max_tracked, (
        f"{tracked:.2f} GC-tracked objects per registered object on "
        f"{host}, bound {max_tracked}: an idle object allocates a set")
    assert grown <= max_bytes, (
        f"{grown:.0f} traced bytes per registered object on {host}, "
        f"bound {max_bytes}")


def assert_idle(obj):
    assert obj.is_idle(), obj
    for slot, empty in objects._IDLE_SLOTS:
        assert getattr(obj, slot) is empty, (obj.name, slot)
    obj.check_invariants()


def _gtm(*names):
    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=10)
    gtm.create_object("Y", value=10)
    for name in names:
        gtm.begin(name)
    return gtm


class TestEveryWayOutLeavesTheObjectIdle:
    def test_commit(self):
        gtm = _gtm("A", "B")
        gtm.invoke("A", "X", add(1))
        gtm.apply("A", "X", add(1))
        assert gtm.invoke("B", "X", assign(0)) == GrantOutcome.QUEUED
        gtm.request_commit("A")         # B is granted behind A
        gtm.apply("B", "X", assign(0))
        gtm.request_commit("B")
        assert gtm.transaction("B").is_in(_TS.COMMITTED)
        assert_idle(gtm.object("X"))

    def test_requested_abort(self):
        gtm = _gtm("A", "B")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("B", "X", assign(0))
        gtm.abort("B")                  # a waiter
        gtm.abort("A")                  # a holder
        assert_idle(gtm.object("X"))

    def _cycle(self, gtm):
        gtm.invoke("A", "X", assign(1))
        gtm.invoke("B", "Y", assign(1))
        assert gtm.invoke("A", "Y", assign(2)) == GrantOutcome.QUEUED
        return gtm.invoke("B", "X", assign(2))

    def _finish(self, gtm, survivor):
        gtm.request_commit(survivor)
        assert gtm.transaction(survivor).is_in(_TS.COMMITTED)
        assert_idle(gtm.object("X"))
        assert_idle(gtm.object("Y"))

    def test_deadlock_victim(self):
        gtm = _gtm("A", "B")            # B is younger: the requester dies
        assert self._cycle(gtm) == GrantOutcome.ABORTED
        assert gtm.transaction("B").is_in(_TS.ABORTED)
        self._finish(gtm, "A")

    def test_wounded_waiter(self):
        gtm = _gtm("B", "A")            # A is younger: the waiter dies
        assert self._cycle(gtm) == GrantOutcome.GRANTED
        assert gtm.transaction("A").is_in(_TS.ABORTED)
        self._finish(gtm, "B")

    def test_awake_abort(self):
        gtm = _gtm("A", "B")
        gtm.invoke("A", "X", add(1))
        gtm.invoke("A", "Y", add(1))
        gtm.sleep("A")
        gtm.invoke("B", "X", assign(0))     # overtakes the sleeper
        gtm.request_commit("B")
        assert gtm.awake("A") is False      # Algorithm 9: conflict
        assert_idle(gtm.object("X"))
        assert_idle(gtm.object("Y"))


def _served(**config):
    engine = SimulationEngine()
    service = GTMService(engine, config=ServiceConfig(
        ldbs_backend="memory", **config))
    service.create_object("X", value=10)
    frames = []
    session = service.connect({"type": "hello", "id": 0}, frames.append)
    service.handle(session, {"type": "begin", "id": 1})
    txn = frames[-1]["txn"]
    service.handle(session, {"type": "op", "id": 2, "txn": txn,
                             "op": "add", "object": "X", "operand": 1})
    assert frames[-1]["type"] == "granted"
    return engine, service, session, frames, txn


def test_bto_expiry_leaves_the_object_idle():
    engine, service, session, _frames, txn = _served(bto_timeout=5.0)
    service.disconnect(session)
    engine.run()                        # the BTO fires: the sleeper aborts
    assert service.gtm.transaction(txn).is_in(_TS.ABORTED)
    assert_idle(service.gtm.object("X"))


class _RefusingBackend:
    """Every backend transaction conflicts: the SST cannot commit."""

    def __init__(self, inner):
        self._inner = inner

    def begin(self, *args, **kwargs):
        raise BackendConflictError("injected conflict")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_sst_failure_leaves_the_object_idle():
    _engine, service, session, frames, txn = _served(bto_timeout=None)
    executor = service.gtm.sst_executor
    executor.backend = _RefusingBackend(executor.backend)
    service.handle(session, {"type": "commit", "id": 3, "txn": txn})
    assert frames[-1]["code"] == "gtm/sst-failure"
    assert service.gtm.transaction(txn).is_in(_TS.ABORTED)
    assert_idle(service.gtm.object("X"))


class TestTheIdleStateIsChecked:
    def test_unclaimed_object_with_private_containers(self):
        obj = ManagedObject("X", value=0)
        obj.pending = {}
        with pytest.raises(GTMError, match="unclaimed but holds private "
                                           r"containers: \['pending'\]"):
            obj.check_invariants()

    def test_claimed_object_on_the_shared_summary(self):
        obj = ManagedObject("X", value=0)
        obj.grant_pending("A", add(1))
        obj.snapshot_for("A")
        obj.check_invariants()
        obj.summary = objects._IDLE_SUMMARY
        with pytest.raises(GTMError, match="still uses the shared idle "
                                           "summary"):
            obj.check_invariants()

    def test_a_stray_write_raises_instead_of_sharing(self):
        obj = ManagedObject("X", value=0)
        with pytest.raises(TypeError):
            obj.pending["A"] = {"value": add(1)}
        with pytest.raises(AttributeError):
            obj.waiting.append(WaitEntry("A", add(1), 0.0))
        with pytest.raises(AttributeError):
            obj.sleeping.add("A")
        with pytest.raises(TypeError):
            obj.summary.add(add(1))
        assert_idle(ManagedObject("Y", value=0))

    def test_the_lock_epoch_survives_idle_periods(self):
        obj = ManagedObject("X", value=0)
        obj.grant_pending("A", add(1))
        obj.snapshot_for("A")
        obj.stage_commit("A")
        obj.retire_committer("A")
        assert_idle(obj)
        assert obj.lock_epoch == 3
