"""Cross-scheduler property tests on hypothesis-generated workloads.

For random (but valid) single-object workloads of additive operations:

- every scheduler drives every transaction to a terminal outcome;
- each scheduler's final value equals initial + the sum of the deltas
  of exactly its committed transactions (no lost or phantom updates);
- the GTM's run passes the serial-replay serializability check.
"""

from hypothesis import given, settings, strategies as st

from repro.check.oracle import check_episode, record_gtm
from repro.core.opclass import add
from repro.metrics.collectors import Outcome
from repro.mobile.network import DisconnectionEvent
from repro.mobile.session import SessionPlan
from repro.schedulers import (
    GTMScheduler,
    OptimisticScheduler,
    two_phase_locking,
)
from repro.schedulers.optimistic import OptimisticConfig
from repro.workload.spec import Workload, single_step_profile

profile_strategy = st.tuples(
    st.floats(0.0, 10.0),                # arrival
    st.integers(-3, 3),                  # delta
    st.floats(0.2, 3.0),                 # work time
    st.one_of(st.none(),                 # optional outage
              st.tuples(st.floats(0.1, 0.9), st.floats(0.5, 6.0))),
)

workloads = st.lists(profile_strategy, min_size=1, max_size=15)


def build_workload(raw) -> Workload:
    profiles = []
    for index, (arrival, delta, work, outage) in enumerate(raw):
        outages = ()
        if outage is not None:
            outages = (DisconnectionEvent(at_fraction=outage[0],
                                          duration=outage[1]),)
        profiles.append(single_step_profile(
            f"T{index:02d}", arrival, "X", add(delta),
            SessionPlan(work_time=work, outages=outages)))
    return Workload(profiles, initial_values={"X": 1000.0})


def committed_delta(result, raw) -> float:
    total = 0.0
    for index, (_arrival, delta, _work, _outage) in enumerate(raw):
        timeline = result.collector.timelines[f"T{index:02d}"]
        if timeline.outcome is Outcome.COMMITTED:
            total += delta
    return total


@settings(max_examples=60, deadline=None)
@given(workloads)
def test_gtm_accounting_and_serializability(raw):
    workload = build_workload(raw)
    scheduler = GTMScheduler()
    result = scheduler.run(workload)
    assert result.stats.unfinished == 0
    assert result.final_values["X"] == \
        1000.0 + committed_delta(result, raw)
    report = check_episode(record_gtm(scheduler.last_gtm))
    assert report.serializable, report.mismatches


@settings(max_examples=60, deadline=None)
@given(workloads)
def test_twopl_accounting(raw):
    workload = build_workload(raw)
    result = two_phase_locking(hold_timeout=2.0).run(workload)
    assert result.stats.unfinished == 0
    assert result.final_values["X"] == \
        1000.0 + committed_delta(result, raw)


@settings(max_examples=60, deadline=None)
@given(workloads)
def test_optimistic_accounting(raw):
    workload = build_workload(raw)
    result = OptimisticScheduler(OptimisticConfig(floor=None)).run(
        workload)
    assert result.stats.unfinished == 0
    assert result.stats.aborted == 0     # no floor: nothing can fail
    assert result.final_values["X"] == \
        1000.0 + committed_delta(result, raw)


@settings(max_examples=40, deadline=None)
@given(workloads)
def test_gtm_commits_at_least_twopl_under_additive_load(raw):
    """Additive-only workloads: the GTM never aborts (everything
    commutes), while 2PL may kill disconnected holders."""
    workload = build_workload(raw)
    gtm = GTMScheduler().run(workload)
    twopl = two_phase_locking(hold_timeout=2.0).run(workload)
    assert gtm.stats.aborted == 0
    assert gtm.stats.committed >= twopl.stats.committed
