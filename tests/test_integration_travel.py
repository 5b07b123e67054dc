"""Integration: the full travel-agency stack, asserted end to end.

This is the Section II scenario with every layer engaged at once:
LDBS schema + constraints, GTM objects bound to cells, multi-object
package-tour transactions with disconnections, real SSTs, and the
serializability checker over the whole run.
"""

import pytest

from repro.check.oracle import check_episode, record_gtm
from repro.core.objects import ObjectBinding
from repro.core.sst import SSTExecutor
from repro.metrics.collectors import Outcome
from repro.schedulers import GTMScheduler, GTMSchedulerConfig
from repro.workload.travel import TravelAgency, TravelWorkloadConfig


@pytest.fixture(scope="module")
def outcome():
    config = TravelWorkloadConfig(n_customers=120, beta=0.2, seed=77)
    agency = TravelAgency(config)
    workload = agency.build_workload()
    bindings = {
        name: ObjectBinding.cell(table, key, column)
        for name, (table, key, column) in
        {**agency.stock_objects, **agency.price_objects}.items()
    }
    scheduler = GTMScheduler(GTMSchedulerConfig(
        sst_executor=SSTExecutor(agency.backend),
        bindings=bindings,
        wait_timeout=120.0,
    ))
    result = scheduler.run(workload)
    return agency, scheduler, result


class TestTravelIntegration:
    def test_everyone_reaches_an_outcome(self, outcome):
        _agency, _scheduler, result = outcome
        stats = result.stats
        assert stats.unfinished == 0
        assert stats.committed + stats.aborted == stats.total == 120

    def test_most_customers_commit(self, outcome):
        _agency, _scheduler, result = outcome
        assert result.stats.committed > 90

    def test_gtm_and_ldbs_agree_on_every_cell(self, outcome):
        agency, _scheduler, result = outcome
        state = agency.backend.dump()
        for name, (table, key, column) in {**agency.stock_objects,
                                           **agency.price_objects}.items():
            db_value = state[table][key][column]
            assert db_value == result.final_values[name], name

    def test_stock_accounting_exact(self, outcome):
        """Seats sold on the LDBS == committed package tours per leg."""
        agency, _scheduler, result = outcome
        committed = [t for t in result.collector.timelines.values()
                     if t.outcome is Outcome.COMMITTED]
        committed_ids = {t.txn_id for t in committed}
        expected_sold: dict[str, int] = {}
        for profile in agency.build_workload():
            if profile.txn_id not in committed_ids:
                continue
            if profile.kind != "package-tour":
                continue
            for step in profile.steps:
                expected_sold[step.object_name] = \
                    expected_sold.get(step.object_name, 0) + 1
        state = agency.backend.dump()
        for name, (table, key, column) in agency.stock_objects.items():
            db_value = state[table][key][column]
            sold = agency.config.initial_stock - db_value
            assert sold == expected_sold.get(name, 0), name

    def test_no_oversell_anywhere(self, outcome):
        agency, _scheduler, result = outcome
        for name in agency.stock_objects:
            assert result.final_values[name] >= 0

    def test_run_is_serializable(self, outcome):
        _agency, scheduler, _result = outcome
        report = check_episode(record_gtm(scheduler.last_gtm))
        assert report.serializable, report.mismatches

    def test_disconnected_customers_mostly_survive(self, outcome):
        """Package tours are mutually compatible subtractions: even
        disconnected customers should usually finish (they only die if
        an admin repriced... which touches price members, independent).
        """
        agency, _scheduler, result = outcome
        disconnected = [p.txn_id for p in agency.build_workload()
                        if p.disconnects]
        survived = sum(
            1 for txn_id in disconnected
            if result.collector.timelines[txn_id].outcome is
            Outcome.COMMITTED)
        assert survived >= len(disconnected) * 0.8
