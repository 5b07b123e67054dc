"""Service-layer LDBS wiring: commits run real SSTs when configured.

``ServiceConfig.ldbs_backend`` gives the live service the same backend
seam the schedulers use: value-only objects become rows of the shared
``gtm_objects`` table (TEXT-keyed, so wire names need not be SQL
identifiers), commits run SSTs against the chosen backend, and both
backends leave byte-identical committed state behind the same frame
script.
"""

import pytest

from repro.errors import GTMError
from repro.ldbs.backend import backend_names
from repro.service import GTMService, ServiceConfig
from repro.service.protocol import decode_frame
from repro.sim.engine import SimulationEngine


def make_service(backend_name):
    service = GTMService(SimulationEngine(), config=ServiceConfig(
        bto_timeout=60.0, ldbs_backend=backend_name))
    frames = []
    session = service.connect({"type": "hello", "id": 1}, frames.append)
    return service, session, frames


@pytest.fixture(params=backend_names())
def served(request):
    service, session, frames = make_service(request.param)
    yield service, session, frames
    service.shutdown()


class TestServiceBackend:
    def test_negative_zero_dumps_alike_on_every_backend(self, served):
        """SQLite reads a stored -0.0 back as 0.0, so the column type
        normalises it for both backends: their dumps agree by ``repr``,
        not only by ``==``."""
        service, _, _ = served
        service.create_object("z", value=-0.0)
        assert repr(service.backend.dump()["gtm_objects"]["z"]["value"]) \
            == "0.0"

    def test_virtual_by_default(self):
        service = GTMService(SimulationEngine())
        assert service.backend is None
        assert service.gtm.sst_executor is None

    def test_commit_lands_in_the_backend(self, served):
        service, session, frames = served
        service.create_object("pre", value=5)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "pre",
                                 "operand": 4})
        assert frames[-1]["type"] == "granted"
        service.handle(session, {"type": "commit", "id": 4, "txn": txn})
        assert frames[-1]["type"] == "committed"
        assert service.backend.dump()["gtm_objects"]["pre"] == {
            "name": "pre", "value": 9.0}

    def test_auto_created_object_gets_a_row(self, served):
        service, session, frames = served
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        # wire names need not be SQL identifiers
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "cart:7!",
                                 "operand": 2})
        service.handle(session, {"type": "commit", "id": 4, "txn": txn})
        assert frames[-1]["type"] == "committed"
        assert service.backend.dump()["gtm_objects"]["cart:7!"] == {
            "name": "cart:7!", "value": 2.0}

    def test_abort_leaves_no_trace(self, served):
        service, session, frames = served
        service.create_object("pre", value=5)
        before = service.backend.dump()
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "pre",
                                 "operand": 100})
        service.handle(session, {"type": "abort", "id": 4, "txn": txn})
        assert frames[-1]["type"] == "aborted"
        assert service.backend.dump() == before

    def test_member_objects_stay_virtual(self, served):
        service, session, frames = served
        service.create_object("multi", value=None,
                              members={"a": 1, "b": 2})
        assert service.gtm.object("multi").binding is None
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "multi",
                                 "member": "a", "operand": 10})
        service.handle(session, {"type": "commit", "id": 4, "txn": txn})
        assert frames[-1]["type"] == "committed"
        assert service.gtm.object("multi").permanent_value("a") == 11
        assert "multi" not in service.backend.dump()["gtm_objects"]

    def test_backends_agree_on_the_same_script(self):
        dumps = {}
        for name in backend_names():
            service, session, frames = make_service(name)
            service.create_object("pre", value=5)
            service.handle(session, {"type": "begin", "id": 2})
            txn = frames[-1]["txn"]
            for fid, obj in ((3, "pre"), (4, "auto")):
                service.handle(session, {"type": "op", "id": fid,
                                         "txn": txn, "op": "add",
                                         "object": obj, "operand": 2})
            service.handle(session, {"type": "commit", "id": 5,
                                     "txn": txn})
            assert frames[-1]["type"] == "committed"
            dumps[name] = service.backend.dump()
            service.shutdown()
        assert dumps["memory"] == dumps["sqlite"]
        assert dumps["sqlite"]["gtm_objects"]["pre"]["value"] == 7.0

    def test_empty_transaction_commits_over_the_wire(self, served):
        """F4: ``begin`` -> ``commit`` answers ``committed`` (it used to
        be a ``gtm/protocol`` error frame), with no SST and no row."""
        service, session, frames = served
        before = service.backend.dump()
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "commit", "id": 3, "txn": txn})
        assert frames[-1] == {"type": "committed", "txn": txn, "re": 3}
        assert service.metrics.counter("service_error_frames").total() == 0
        assert service.gtm.sst_reports == []
        assert service.backend.dump() == before

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-1e999"])
    def test_non_finite_operand_is_refused_and_heals_nothing(
            self, served, literal):
        """It used to be granted and committed: the GTM's value was
        ``nan`` for good, the memory row ``nan`` and the SQLite row
        ``NULL``.  Now: one error frame, the session survives, nothing
        is granted, and the next ``add`` commits a finite value."""
        service, session, frames = served
        service.create_object("x", value=5)
        before = service.backend.dump()
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, decode_frame(
            '{"type":"op","id":3,"txn":"%s","op":"assign","object":"x",'
            '"operand":%s}' % (txn, literal)))
        assert frames[-1]["type"] == "error"
        assert frames[-1]["code"] == "wire/malformed"
        assert frames[-1]["re"] == 3
        assert session.connected
        assert service.gtm.object("x").pending == {}
        assert service.gtm.object("x").permanent_value("value") == 5
        assert service.backend.dump() == before
        service.handle(session, {"type": "op", "id": 4, "txn": txn,
                                 "op": "add", "object": "x",
                                 "operand": 2})
        assert frames[-1]["type"] == "granted"
        assert frames[-1]["value"] == 7
        service.handle(session, {"type": "commit", "id": 5, "txn": txn})
        assert frames[-1]["type"] == "committed"
        assert service.backend.dump()["gtm_objects"]["x"] == {
            "name": "x", "value": 7.0}

    def test_refused_create_object_leaves_the_backend_alone(self, served):
        """``create_object`` on a name the GTM already holds as an
        INSERT shell used to seed the row, then raise "already
        registered": the LDBS kept ``b = 5.0`` for an object the GTM
        says does not exist.  The name is refused before the backend
        is touched."""
        service, session, frames = served
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "insert", "object": "b",
                                 "operand": {"value": 1}})
        assert frames[-1]["type"] == "granted"
        before = service.backend.dump()
        assert "b" not in before["gtm_objects"]
        with pytest.raises(GTMError, match="already registered"):
            service.create_object("b", value=5.0)
        assert service.backend.dump() == before
        assert not service.gtm.object("b").exists
        service.handle(session, {"type": "commit", "id": 4, "txn": txn})
        assert frames[-1]["type"] == "committed"
        assert service.backend.dump()["gtm_objects"]["b"] == {
            "name": "b", "value": 1.0}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")], ids=str)
    def test_non_finite_initial_value_is_refused(self, served, value):
        """``create_object("x", value=nan)`` used to register the object:
        the memory row held ``nan``, the SQLite row ``NULL``, with no
        error.  It is refused before the GTM or the backend is
        touched, as a non-finite wire operand is."""
        service, session, frames = served
        before = service.backend.dump()
        with pytest.raises(GTMError, match="finite"):
            service.create_object("x", value=value)
        with pytest.raises(GTMError, match="finite"):
            service.create_object("y", members={"a": 1.0, "b": value})
        assert "x" not in service.gtm.lock_table
        assert "y" not in service.gtm.lock_table
        assert service.backend.dump() == before
        service.create_object("x", value=2.5)
        assert service.backend.dump()["gtm_objects"]["x"] == {
            "name": "x", "value": 2.5}

    def test_int_too_large_for_a_float_is_refused(self, served):
        """``create_object("big", value=10**400)`` died in the backend
        row's ``float(value)`` with a bare OverflowError.  It is refused
        with a GTMError before the GTM or the backend is touched."""
        service, session, frames = served
        before = service.backend.dump()
        with pytest.raises(GTMError, match="does not fit a float"):
            service.create_object("big", value=10 ** 400)
        with pytest.raises(GTMError, match="does not fit a float"):
            service.create_object("wide", members={"a": 1, "b": -10 ** 400})
        assert "big" not in service.gtm.lock_table
        assert "wide" not in service.gtm.lock_table
        assert service.backend.dump() == before
        service.create_object("big", value=10 ** 300)
        assert service.backend.dump()["gtm_objects"]["big"] == {
            "name": "big", "value": 1e300}

    def test_an_int_operand_no_float_holds_cannot_wedge_the_object(
            self, served):
        """``add 10**400`` on a backend-bound object was granted; the
        commit's SST then failed in the FLOAT column, the commit
        answered ``gtm/error``, and the transaction stayed Committing
        with the object's ``committing`` set held for ever.  The op is
        refused with one error frame before ``invoke``, so a second
        session's ``assign`` on the object is granted at once."""
        service, session, frames = served
        service.create_object("pre", value=5)
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "pre",
                                 "operand": 10 ** 400})
        refused = frames[-1]
        service.handle(session, {"type": "commit", "id": 4, "txn": txn})
        committed = frames[-1]
        other_frames = []
        other = service.connect({"type": "hello", "id": 1},
                                other_frames.append)
        service.handle(other, {"type": "begin", "id": 2})
        other_txn = other_frames[-1]["txn"]
        service.handle(other, {"type": "op", "id": 3, "txn": other_txn,
                               "op": "assign", "object": "pre",
                               "operand": 7})
        assert other_frames[-1]["type"] == "granted"
        assert refused["type"] == "error"
        assert refused["code"] == "gtm/error"
        assert refused["re"] == 3
        assert "does not fit a float" in refused["message"]
        assert committed == {"type": "committed", "txn": txn, "re": 4}
        assert service.metrics.counter("service_error_frames").total() == 1
        assert service.backend.dump()["gtm_objects"]["pre"] == {
            "name": "pre", "value": 5.0}

    def test_a_virtual_object_still_takes_any_int_operand(self, served):
        """Only a bound object's row is a FLOAT: an object with its own
        members stays virtual, and its operand is not refused."""
        service, session, frames = served
        service.create_object("multi", value=None, members={"a": 1})
        service.handle(session, {"type": "begin", "id": 2})
        txn = frames[-1]["txn"]
        service.handle(session, {"type": "op", "id": 3, "txn": txn,
                                 "op": "add", "object": "multi",
                                 "member": "a", "operand": 10 ** 400})
        assert frames[-1]["type"] == "granted"
        service.handle(session, {"type": "commit", "id": 4, "txn": txn})
        assert frames[-1]["type"] == "committed"
        assert service.gtm.object("multi").permanent_value("a") == \
            10 ** 400 + 1
