"""A long-running service stays the same size.

The paper's GTM serves long-running transactions, so the middleware
itself has to run for a long time.  Driven under the virtual clock for
many times the operation log's fold threshold, a service retains a
bounded commit-order suffix, a bounded set of per-transaction
operations and only the SST reports that needed a retry, and the traced
heap stops growing once the log has started folding.  On the code
before folding the same run grew by about 700 bytes per transaction.
"""

import gc
import random
import tracemalloc

import pytest

from repro.check.oracle import check_episode, record_gtm
from repro.check.service_oracle import check_transcripts
from repro.core import history
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add
from repro.core.sst import FailureInjector, SSTExecutor
from repro.ldbs.backend import create_backend
from repro.service import GTMService, ServiceConfig
from repro.service.protocol import decode_frame, encode_frame
from repro.sim.engine import SimulationEngine

#: the fold threshold the tests patch in (the real one takes thousands
#: of transactions to reach; the mechanism is the same).
FOLD_AFTER = 128
OBJECTS = 64
OPS = ("read", "add", "assign", "mul")


@pytest.fixture
def small_fold(monkeypatch):
    monkeypatch.setattr(history, "FOLD_AFTER", FOLD_AFTER)
    monkeypatch.setattr(history, "FOLD_BATCH", 8)


class _Wire:
    """One connected client, every frame through both codecs."""

    def __init__(self, backend):
        self.service = GTMService(SimulationEngine(), config=ServiceConfig(
            retire_finished=True, ldbs_backend=backend))
        for index in range(OBJECTS):
            self.service.create_object(f"o{index:03d}", value=1)
        self.replies = []
        self.session = self.service.connect(
            {"type": "hello", "id": 0}, self._sink)
        self._rng = random.Random(25)
        self._next_id = 0

    def _sink(self, frame):
        self.replies.append(decode_frame(encode_frame(frame)))

    def _request(self, frame):
        self._next_id += 1
        frame["id"] = self._next_id
        self.service.handle(self.session, decode_frame(encode_frame(frame)))
        return self.replies.pop()

    def transact(self, count=1):
        rng = self._rng
        for _ in range(count):
            txn = self._request({"type": "begin"})["txn"]
            for index in rng.sample(range(OBJECTS), 4):
                op = OPS[rng.randrange(len(OPS))]
                frame = {"type": "op", "txn": txn, "op": op,
                         "object": f"o{index:03d}", "member": "value"}
                if op != "read":
                    frame["operand"] = rng.randrange(1, 10)
                assert self._request(frame)["type"] == "granted"
            if rng.random() < 0.1:
                assert self._request({"type": "abort", "txn": txn})[
                    "type"] == "aborted"
            else:
                assert self._request({"type": "commit", "txn": txn})[
                    "type"] == "committed"


def test_what_the_service_retains_stays_bounded(small_fold):
    wire = _Wire("memory")
    longest = 0
    for _ in range(40):  # 1200 transactions, > 9 x the threshold
        wire.transact(30)
        log = wire.service.gtm.history
        longest = max(longest, len(log.commit_order), len(log.ops))
    gtm = wire.service.gtm
    committed = gtm.history.committed
    assert gtm.history.folded > 3 * FOLD_AFTER
    assert longest <= FOLD_AFTER
    assert gtm.sst_reports == []  # every SST succeeded first time
    assert gtm.transactions == {}  # retired once delivered
    # the benchmark's check, on the folded log: the witness still holds
    report = check_episode(record_gtm(gtm))
    assert report.serializable, report.mismatches
    assert report.committed == committed == int(
        wire.service.metrics.counter("service_txn_committed").total())
    # the service fuzzer's transcript check cannot read a folded commit
    # order as "committed outcome missing": it names the fold instead
    (violation,) = check_transcripts(wire.service, {})
    assert "folded" in violation
    wire.service.shutdown()


def test_the_traced_heap_stops_growing(small_fold):
    """Growth is read between two full collections (the kernel's
    transactions still sit in reference cycles until the collector
    runs), after the log has turned over at least twice under the
    tracer: tracemalloc sees only blocks allocated once it started."""
    wire = _Wire(None)
    wire.transact(3 * FOLD_AFTER)  # warm: the log is folding by now
    tracemalloc.start()
    try:
        wire.transact(2 * FOLD_AFTER)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        wire.transact(800)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    wire.service.shutdown()
    assert abs(grown) / 800 < 16, f"{grown / 800:.0f} bytes per transaction"


def test_only_a_retried_sst_keeps_its_report():
    backend = create_backend("memory")
    executor = SSTExecutor(backend, injector=FailureInjector(
        should_fail=lambda txn_id, attempt: txn_id == "R" and attempt == 1))
    gtm = GlobalTransactionManager(sst_executor=executor)
    gtm.create_object("X", value=0)
    for txn_id in ("C", "R", "D"):
        gtm.begin(txn_id)
        gtm.invoke(txn_id, "X", add(1))
        gtm.apply(txn_id, "X", add(1))
        assert gtm.request_commit(txn_id).txn_id == txn_id
    assert [(r.txn_id, r.attempts) for r in gtm.sst_reports] == [("R", 2)]
