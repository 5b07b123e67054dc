"""The paper's Section II motivating scenario, end to end.

Builds the travel agency (flights, hotels, museums, cars) on the LDBS,
binds every reservable cell to a GTM managed object, generates a mixed
customer/admin workload with disconnections, and runs it through the
GTM scheduler with real Secure System Transactions — then shows the
database and the middleware agree on every stock value.

Run with::

    python examples/travel_agency.py
"""

from repro.core.sst import SSTExecutor
from repro.core.objects import ObjectBinding
from repro.metrics.report import render_records
from repro.schedulers import GTMScheduler, GTMSchedulerConfig
from repro.workload.travel import TravelAgency, TravelWorkloadConfig


def main() -> None:
    config = TravelWorkloadConfig(n_customers=150, beta=0.15, seed=7)
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
        wait_timeout=60.0,   # multi-object transactions: bound the waits
    ))
    result = scheduler.run(workload)

    stats = result.stats
    print(f"customers+admins: {stats.total}")
    print(f"committed:        {stats.committed}")
    print(f"aborted:          {stats.aborted} "
          f"({stats.abort_percentage:.1f}%)")
    print(f"avg booking time: {stats.avg_execution_time:.2f} s "
          f"(of which {stats.avg_wait_time:.2f} s waiting, "
          f"{stats.avg_sleep_time:.2f} s disconnected)")
    print()

    # The LDBS is the source of truth: every SST-applied stock value must
    # equal what the GTM believes.
    rows = []
    mismatches = 0
    state = agency.backend.dump()
    for name, (table, key, column) in sorted(agency.stock_objects.items()):
        db_value = state[table][key][column]
        gtm_value = result.final_values[name]
        if db_value != gtm_value:
            mismatches += 1
        rows.append({"resource": name, "LDBS": db_value,
                     "GTM": gtm_value,
                     "sold": int(agency.config.initial_stock - db_value)})
    print(render_records(rows, title="stock after the run"))
    print(f"\nLDBS/GTM mismatches: {mismatches}")
    assert mismatches == 0


if __name__ == "__main__":
    main()
