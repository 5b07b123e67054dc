"""Tests for the travel-agency scenario builder."""

import pytest

from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import OperationClass
from repro.workload.travel import TravelAgency, TravelWorkloadConfig


@pytest.fixture(scope="module")
def agency():
    return TravelAgency(TravelWorkloadConfig(n_customers=50, seed=3))


class TestSubstrate:
    def test_tables_created(self, agency):
        names = agency.backend.table_names()
        assert set(names) == {"flight", "hotel", "museum", "car"}

    def test_rows_seeded_with_stock(self, agency):
        rows = agency.backend.dump()["flight"]
        assert len(rows) == agency.config.n_per_type
        assert rows[1]["free_tickets"] == agency.config.initial_stock

    def test_constraints_installed(self, agency):
        constraints = agency.backend.constraints.for_table("flight")
        assert any("free_tickets" in c.name for c in constraints)

    def test_stock_and_price_objects_enumerated(self, agency):
        assert len(agency.stock_objects) == 4 * agency.config.n_per_type
        assert len(agency.price_objects) == 4 * agency.config.n_per_type

    def test_register_objects_binds_gtm(self, agency):
        gtm = GlobalTransactionManager()
        agency.register_objects(gtm)
        obj = gtm.object("flight:1.free_tickets")
        assert obj.permanent_value() == agency.config.initial_stock
        assert obj.binding is not None
        assert obj.binding.table == "flight"


class TestWorkload:
    def test_workload_size(self, agency):
        workload = agency.build_workload()
        assert len(workload) == 50

    def test_package_tours_touch_all_resource_types(self, agency):
        workload = agency.build_workload()
        tours = [p for p in workload if p.kind == "package-tour"]
        assert tours
        for profile in tours:
            tables = {step.object_name.split(":")[0]
                      for step in profile.steps}
            assert tables == {"flight", "hotel", "museum", "car"}

    def test_package_steps_are_subtractions(self, agency):
        workload = agency.build_workload()
        for profile in workload:
            if profile.kind != "package-tour":
                continue
            for step in profile.steps:
                assert step.invocation.op_class is \
                    OperationClass.UPDATE_ADDSUB
                assert step.invocation.operand == -1

    def test_admin_steps_are_assignments_on_price(self, agency):
        workload = agency.build_workload()
        admins = [p for p in workload if p.kind == "admin-reprice"]
        for profile in admins:
            (step,) = profile.steps
            assert step.invocation.op_class is \
                OperationClass.UPDATE_ASSIGN
            assert step.object_name.endswith(".price")

    def test_admins_never_disconnect(self, agency):
        workload = agency.build_workload()
        for profile in workload:
            if profile.kind == "admin-reprice":
                assert not profile.disconnects

    def test_deterministic(self):
        config = TravelWorkloadConfig(n_customers=20, seed=5)
        first = TravelAgency(config).build_workload()
        second = TravelAgency(config).build_workload()
        for a, b in zip(first, second):
            assert a.txn_id == b.txn_id
            assert a.kind == b.kind
            assert [s.object_name for s in a.steps] == \
                [s.object_name for s in b.steps]

    def test_initial_values_match_database(self, agency):
        values = agency.initial_values()
        assert values["flight:1.free_tickets"] == \
            agency.config.initial_stock
        assert values["flight:1.price"] == 100.0


class TestStructuredObjects:
    def test_registers_one_object_per_row(self, agency):
        gtm = GlobalTransactionManager()
        agency.register_structured_objects(gtm)
        assert len(gtm.objects) == 4 * agency.config.n_per_type
        obj = gtm.object("flight:1")
        assert obj.permanent_value("stock") == agency.config.initial_stock
        assert obj.permanent_value("price") == 100.0

    def test_binding_maps_both_members(self, agency):
        gtm = GlobalTransactionManager()
        agency.register_structured_objects(gtm)
        binding = gtm.object("flight:1").binding
        assert binding.column_for("stock") == "free_tickets"
        assert binding.column_for("price") == "price"

    def test_customer_and_admin_share_the_row(self, agency):
        """Per-member grants: booking and repricing run concurrently."""
        from repro.core.opclass import assign, subtract
        from repro.core.sst import SSTExecutor
        config = TravelWorkloadConfig(n_customers=1, seed=1)
        fresh = TravelAgency(config)
        gtm = GlobalTransactionManager(
            sst_executor=SSTExecutor(fresh.backend))
        fresh.register_structured_objects(gtm)
        gtm.begin("customer")
        gtm.begin("admin")
        assert gtm.invoke("customer", "flight:1",
                          subtract(1, member="stock")) == "granted"
        assert gtm.invoke("admin", "flight:1",
                          assign(150.0, member="price")) == "granted"
        gtm.apply("customer", "flight:1", subtract(1, member="stock"))
        gtm.apply("admin", "flight:1", assign(150.0, member="price"))
        gtm.request_commit("customer")
        gtm.pump_commits()
        gtm.request_commit("admin")
        gtm.pump_commits()
        row = fresh.backend.dump()["flight"][1]
        assert row["free_tickets"] == config.initial_stock - 1
        assert row["price"] == 150.0
