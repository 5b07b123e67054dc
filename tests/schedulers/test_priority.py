"""Tests for transaction priority threading and abort-reason stats."""

from repro.core.gtm import GTMConfig
from repro.core.opclass import assign, subtract
from repro.core.starvation import PriorityAgingPolicy
from repro.metrics.collectors import Outcome
from repro.mobile.network import DisconnectionEvent
from repro.mobile.session import SessionPlan
from repro.schedulers import GTMScheduler, GTMSchedulerConfig
from repro.workload.spec import Workload, single_step_profile


class TestPriorityThreading:
    def test_profile_priority_reaches_gtm(self):
        profiles = [single_step_profile(
            "vip", 0.0, "X", subtract(1), SessionPlan(1.0), priority=9)]
        workload = Workload(profiles, initial_values={"X": 10.0})
        scheduler = GTMScheduler()
        scheduler.run(workload)
        assert scheduler.last_gtm.transaction("vip").priority == 9

    def test_priority_round_trips_through_json(self, tmp_path):
        from repro.workload.io import load_workload, save_workload
        profiles = [single_step_profile(
            "vip", 0.0, "X", subtract(1), SessionPlan(1.0), priority=5)]
        workload = Workload(profiles, initial_values={"X": 10.0})
        path = save_workload(workload, tmp_path / "w.json")
        (restored,) = list(load_workload(path))
        assert restored.priority == 5

    def test_vip_overtakes_in_aging_queue(self):
        """Two incompatible waiters: the VIP wins the unlock grant."""
        gtm_config = GTMConfig(grant_policy=PriorityAgingPolicy(
            aging_rate=0.0,   # pure priority ordering
            priority_of=lambda t: 100 if t == "vip" else 0))
        profiles = [
            single_step_profile("holder", 0.0, "X", assign(1),
                                SessionPlan(4.0)),
            single_step_profile("pleb", 0.5, "X", assign(2),
                                SessionPlan(1.0)),
            single_step_profile("vip", 1.0, "X", assign(3),
                                SessionPlan(1.0), priority=100),
        ]
        workload = Workload(profiles, initial_values={"X": 0.0})
        result = GTMScheduler(GTMSchedulerConfig(
            gtm_config=gtm_config)).run(workload)
        vip = result.collector.timelines["vip"]
        pleb = result.collector.timelines["pleb"]
        assert vip.outcome is Outcome.COMMITTED
        assert vip.finished < pleb.finished   # overtook despite arriving later


class TestAbortReasons:
    def test_reasons_tallied(self):
        profiles = [
            # sleeper killed by a conflicting commit
            single_step_profile(
                "sleeper", 0.0, "X", subtract(1),
                SessionPlan(2.0, (DisconnectionEvent(0.5, 10.0),))),
            single_step_profile("admin", 2.0, "X", assign(0),
                                SessionPlan(0.5)),
        ]
        workload = Workload(profiles, initial_values={"X": 10.0})
        result = GTMScheduler().run(workload)
        assert result.stats.abort_reasons == {"sleep-conflict": 1}

    def test_no_aborts_empty_dict(self):
        profiles = [single_step_profile("T", 0.0, "X", subtract(1),
                                        SessionPlan(1.0))]
        workload = Workload(profiles, initial_values={"X": 10.0})
        result = GTMScheduler().run(workload)
        assert result.stats.abort_reasons == {}
