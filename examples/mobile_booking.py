"""Sleeping transactions: what a disconnection costs under each scheme.

A mobile user starts booking a ticket, loses the network mid-way, and
reconnects later.  This example traces the same story under:

1. the GTM — the transaction *sleeps*; compatible traffic flows around
   it and it finishes after reconnecting;
2. the GTM with a conflicting admin write during the outage — the
   awakening detects the conflict (Algorithm 9) and aborts cleanly;
3. the classical 2PL server — the disconnected client holds its lock,
   everyone queues, and the sleep timeout kills it.

Run with::

    python examples/mobile_booking.py
"""

from repro.core import GlobalTransactionManager
from repro.core.opclass import assign, subtract
from repro.metrics.collectors import Outcome
from repro.mobile.network import DisconnectionEvent
from repro.mobile.session import SessionPlan
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    two_phase_locking,
)
from repro.workload.spec import Workload, single_step_profile


def story_1_sleep_and_resume() -> None:
    print("--- 1. GTM: disconnect, reconnect, finish ---")
    gtm = GlobalTransactionManager()
    gtm.create_object("seats", value=50)

    gtm.begin("mobile-user")
    gtm.invoke("mobile-user", "seats", subtract(1))
    gtm.apply("mobile-user", "seats", subtract(1))
    print("user reserved a seat on the virtual copy:",
          gtm.read_virtual("mobile-user", "seats"))

    gtm.sleep("mobile-user")        # network drops
    print("user disconnected; state:",
          gtm.transaction("mobile-user").state.value)

    # Compatible traffic is NOT blocked by the sleeper.
    gtm.begin("other-buyer")
    assert gtm.invoke("other-buyer", "seats", subtract(1)) == "granted"
    gtm.apply("other-buyer", "seats", subtract(1))
    gtm.request_commit("other-buyer")
    print("another buyer bought a seat meanwhile; permanent:",
          gtm.object("seats").permanent_value())

    survived = gtm.awake("mobile-user")   # network returns
    print("user reconnected; survived:", survived)
    gtm.request_commit("mobile-user")
    print("final seats:", gtm.object("seats").permanent_value(), "\n")


def story_2_conflict_during_sleep() -> None:
    print("--- 2. GTM: a conflicting write lands during the outage ---")
    gtm = GlobalTransactionManager()
    gtm.create_object("seats", value=50)

    gtm.begin("mobile-user")
    gtm.invoke("mobile-user", "seats", subtract(1))
    gtm.sleep("mobile-user")

    gtm.begin("admin")
    # assignment conflicts with the sleeper's subtraction...
    assert gtm.invoke("admin", "seats", assign(80)) == "granted"
    gtm.apply("admin", "seats", assign(80))
    gtm.request_commit("admin")
    print("admin reset the seats to:",
          gtm.object("seats").permanent_value())

    survived = gtm.awake("mobile-user")
    print("user reconnected; survived:", survived,
          "| state:", gtm.transaction("mobile-user").state.value)
    print("the stale reservation was rejected, no lost update\n")


def story_3_twopl_comparison() -> None:
    print("--- 3. Same outage under GTM and classical 2PL ---")
    outage = DisconnectionEvent(at_fraction=0.5, duration=6.0)
    profiles = [
        single_step_profile(
            "mobile-user", 0.0, "seats", subtract(1),
            SessionPlan(work_time=2.0, outages=(outage,)),
            kind="subtraction"),
        single_step_profile(
            "other-buyer", 1.0, "seats", subtract(1),
            SessionPlan(work_time=2.0), kind="subtraction"),
    ]
    workload = Workload(profiles=list(profiles),
                        initial_values={"seats": 50.0})
    gtm_run = GTMScheduler(GTMSchedulerConfig()).run(workload)
    twopl_run = two_phase_locking(hold_timeout=3.0).run(workload)
    from repro.metrics.trace import render_gantt
    for label, run in (("GTM", gtm_run), ("2PL", twopl_run)):
        user = run.collector.timelines["mobile-user"]
        other = run.collector.timelines["other-buyer"]
        print(f"{label}: mobile user -> {user.outcome.value} "
              f"(exec {user.execution_time or 0:.1f}s), "
              f"other buyer -> {other.outcome.value} "
              f"(waited {other.wait_time:.1f}s)")
        print(render_gantt(run.collector, width=48))
        print()
    user = twopl_run.collector.timelines["mobile-user"]
    assert user.outcome is Outcome.ABORTED, "2PL must kill the sleeper"
    print("\n2PL kills the disconnected user at the sleep timeout; "
          "the GTM lets both finish.")


def main() -> None:
    story_1_sleep_and_resume()
    story_2_conflict_during_sleep()
    story_3_twopl_comparison()


if __name__ == "__main__":
    main()
