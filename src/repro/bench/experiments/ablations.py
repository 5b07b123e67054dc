"""Ablation experiments for the Section VII design discussion.

The paper's conclusions name four open problems and sketches solutions;
we built all four and measure them here:

- **A1 starvation** — FIFO θ vs the lock-deny threshold vs priority
  aging, measured by the worst waiter latency under a hostile stream of
  mutually compatible transactions;
- **A2 constraints** — reconciliation against a ``>= 0`` stock under
  scarcity, with and without the value-based concurrency throttle;
- **A3 deadlock** — wait-for-graph detection vs plain wait timeouts on
  a multi-object (travel-agency-like) workload under 2PL;
- **A4 SST recovery** — fault-injected SSTs with bounded retry, showing
  commits survive transient failures and abort cleanly on permanent
  ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.opclass import assign, subtract
from repro.core.sst import FailureInjector, SSTExecutor
from repro.core.starvation import (
    FifoGrantPolicy,
    GrantPolicy,
    LockDenyPolicy,
    PriorityAgingPolicy,
)
from repro.core.throttle import NoThrottle, ValueThrottle
from repro.errors import SSTFailure
from repro.ldbs.constraints import NonNegative
from repro.ldbs.engine import Database
from repro.ldbs.schema import Column, ColumnType, TableSchema
from repro.core.objects import ObjectBinding
from repro.metrics.report import render_table
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    TwoPLScheduler,
    TwoPLSchedulerConfig,
)
from repro.mobile.session import SessionPlan
from repro.workload.generator import PaperWorkloadConfig, \
    generate_paper_workload
from repro.workload.spec import (
    TransactionProfile,
    TransactionStep,
    Workload,
    single_step_profile,
)


# ---------------------------------------------------------------------------
# A1 — starvation policies
# ---------------------------------------------------------------------------


@dataclass
class StarvationResult:
    """Worst waiting time of the incompatible victim per policy."""

    policy: str
    victim_committed: bool
    victim_wait: float
    throughput: float


def _starvation_workload(n_compatible: int = 60,
                         interarrival: float = 0.5,
                         work_time: float = 2.0) -> Workload:
    """A hostile stream: one early assignment behind many subtractions.

    Subtractions are mutually compatible, so under plain FIFO θ they keep
    the object busy and the (incompatible) assignment waits for the
    stream to drain.
    """
    profiles = []
    plan = SessionPlan(work_time=work_time)
    for index in range(n_compatible):
        profiles.append(single_step_profile(
            txn_id=f"S{index:03d}",
            arrival_time=index * interarrival,
            object_name="X",
            invocation=subtract(1),
            plan=plan,
            kind="subtraction",
        ))
    profiles.append(single_step_profile(
        txn_id="VICTIM",
        arrival_time=interarrival * 1.5,  # arrives early, behind a holder
        object_name="X",
        invocation=assign(0),
        plan=SessionPlan(work_time=work_time),
        kind="assignment",
    ))
    return Workload(profiles=profiles, initial_values={"X": 10_000.0},
                    description="starvation stress")


def run_starvation(policies: dict[str, GrantPolicy] | None = None
                   ) -> list[StarvationResult]:
    if policies is None:
        policies = {
            "fifo": FifoGrantPolicy(),
            "lock-deny(3)": LockDenyPolicy(max_incompatible_waiters=1),
            "priority-aging": PriorityAgingPolicy(aging_rate=5.0),
        }
    workload = _starvation_workload()
    results = []
    for name, policy in policies.items():
        scheduler = GTMScheduler(GTMSchedulerConfig(
            gtm_config=GTMConfig(grant_policy=policy)))
        outcome = scheduler.run(workload)
        victim = outcome.collector.timelines["VICTIM"]
        results.append(StarvationResult(
            policy=name,
            victim_committed=(victim.outcome.value == "committed"),
            victim_wait=victim.wait_time,
            throughput=outcome.stats.throughput,
        ))
    return results


def render_starvation(results: list[StarvationResult]) -> str:
    rows = [[r.policy, r.victim_committed, round(r.victim_wait, 2),
             round(r.throughput, 3)] for r in results]
    return render_table(
        ["policy", "victim committed", "victim wait (s)", "throughput"],
        rows, title="A1 — starvation mitigation policies")


# ---------------------------------------------------------------------------
# A2 — constraint-violation aborts and the value throttle
# ---------------------------------------------------------------------------


@dataclass
class ConstraintResult:
    """Scarce-stock outcome with/without the value throttle."""

    throttle: str
    committed: int
    constraint_aborts: int
    final_stock: float
    oversell: bool


def _scarcity_setup(stock: int):
    """A flight with ``stock`` seats, bound to a constrained LDBS table."""
    database = Database()
    schema = TableSchema(
        name="flight",
        columns=(Column("id", ColumnType.INT),
                 Column("free_tickets", ColumnType.INT)),
        primary_key="id")
    database.create_table(schema,
                          constraints=[NonNegative("flight",
                                                   "free_tickets")])
    database.seed("flight", [{"id": 1, "free_tickets": stock}])
    binding = ObjectBinding.cell("flight", 1, "free_tickets")
    return database, binding


def run_constraints(stock: int = 5, buyers: int = 20
                    ) -> list[ConstraintResult]:
    """``buyers`` concurrent −1 buyers against ``stock`` seats."""
    results = []
    for label, throttle in (("off", NoThrottle()),
                            ("value-throttle", ValueThrottle())):
        database, binding = _scarcity_setup(stock)
        executor = SSTExecutor(database)
        gtm = GlobalTransactionManager(
            config=GTMConfig(throttle=throttle),
            sst_executor=executor)
        gtm.create_object("seats", value=float(stock), binding=binding)
        committed = 0
        aborted = 0
        # all buyers invoke before anyone commits: maximal overlap
        waiting_buyers = []
        for index in range(buyers):
            txn_id = f"B{index:02d}"
            gtm.begin(txn_id)
            outcome = gtm.invoke(txn_id, "seats", subtract(1))
            if outcome == "granted":
                gtm.apply(txn_id, "seats", subtract(1))
            else:
                waiting_buyers.append(txn_id)
        for index in range(buyers):
            txn_id = f"B{index:02d}"
            txn = gtm.transaction(txn_id)
            if txn.state.value != "active":
                continue
            try:
                gtm.request_commit(txn_id)
                gtm.pump_commits()
                committed += 1
            except SSTFailure:
                aborted += 1
            # a commit/abort may unlock queued buyers; let them buy too
            for queued in list(waiting_buyers):
                queued_txn = gtm.transaction(queued)
                if queued_txn.state.value == "active" and \
                        gtm.object("seats").is_pending(queued):
                    gtm.apply(queued, "seats", subtract(1))
                    waiting_buyers.remove(queued)
        # drain any still-active granted buyers
        for index in range(buyers):
            txn_id = f"B{index:02d}"
            txn = gtm.transaction(txn_id)
            if txn.state.value == "active" and \
                    gtm.object("seats").is_pending(txn_id):
                try:
                    gtm.request_commit(txn_id)
                    gtm.pump_commits()
                    committed += 1
                except SSTFailure:
                    aborted += 1
        final = database.catalog.table("flight").get_by_key(
            1)["free_tickets"]
        results.append(ConstraintResult(
            throttle=label,
            committed=committed,
            constraint_aborts=aborted,
            final_stock=final,
            oversell=final < 0,
        ))
    return results


def render_constraints(results: list[ConstraintResult]) -> str:
    rows = [[r.throttle, r.committed, r.constraint_aborts, r.final_stock,
             r.oversell] for r in results]
    return render_table(
        ["throttle", "committed", "constraint aborts", "final stock",
         "oversold"],
        rows, title="A2 — scarce stock under concurrent compatible buyers")


# ---------------------------------------------------------------------------
# A3 — deadlock policies under 2PL
# ---------------------------------------------------------------------------


@dataclass
class DeadlockResult:
    policy: str
    committed: int
    aborted: int
    deadlocks_detected: float
    timeout_aborts: float
    avg_exec: float


def _crossing_workload(pairs: int = 20,
                       work_time: float = 2.0) -> Workload:
    """Pairs of transactions locking (X, Y) and (Y, X): deadlock bait."""
    profiles = []
    plan = SessionPlan(work_time=work_time)
    for index in range(pairs):
        base = index * 0.8
        profiles.append(TransactionProfile(
            txn_id=f"L{index:02d}",
            arrival_time=base,
            steps=(TransactionStep("X", subtract(1), 0.5),
                   TransactionStep("Y", subtract(1), 0.5)),
            plan=plan, kind="xy"))
        profiles.append(TransactionProfile(
            txn_id=f"R{index:02d}",
            arrival_time=base + 0.1,
            steps=(TransactionStep("Y", subtract(1), 0.5),
                   TransactionStep("X", subtract(1), 0.5)),
            plan=plan, kind="yx"))
    return Workload(profiles=profiles,
                    initial_values={"X": 10_000.0, "Y": 10_000.0},
                    description="crossing lock orders")


def run_deadlock() -> list[DeadlockResult]:
    workload = _crossing_workload()
    results = []
    configurations = {
        "wait-for-graph": TwoPLSchedulerConfig(wait_timeout=None),
        "timeout(3s)": TwoPLSchedulerConfig(wait_timeout=3.0),
        "timeout(8s)": TwoPLSchedulerConfig(wait_timeout=8.0),
    }
    for name, config in configurations.items():
        outcome = TwoPLScheduler(config).run(workload)
        results.append(DeadlockResult(
            policy=name,
            committed=outcome.stats.committed,
            aborted=outcome.stats.aborted,
            deadlocks_detected=outcome.extra["deadlocks"],
            timeout_aborts=outcome.extra["timeout_aborts"],
            avg_exec=outcome.stats.avg_execution_time,
        ))
    return results


def render_deadlock(results: list[DeadlockResult]) -> str:
    rows = [[r.policy, r.committed, r.aborted, r.deadlocks_detected,
             r.timeout_aborts, round(r.avg_exec, 2)] for r in results]
    return render_table(
        ["policy", "committed", "aborted", "deadlocks", "timeout aborts",
         "avg exec (s)"],
        rows, title="A3 — 2PL deadlock handling on crossing lock orders")


# ---------------------------------------------------------------------------
# A5 — the Section II strategies head to head
# ---------------------------------------------------------------------------


@dataclass
class StrategyResult:
    """One Section II strategy on the same booking workload."""

    strategy: str
    committed: int
    aborted: int
    deadlocks: float
    avg_exec: float
    avg_wait: float


def run_section2_strategies(n: int = 120,
                            seed: int = 29) -> list[StrategyResult]:
    """The motivating example's three designs on one booking workload.

    - *upgrade 2PL*: read-lock while browsing, upgrade when deciding —
      "a deadlock can occur and it can be solved aborting T_i and/or
      T_j";
    - *exclusive 2PL*: write-lock from the start — "a long time
      write-lock occurs, and another user ... has to wait";
    - *the GTM*: semantic compatibility — neither pathology.
    """
    from repro.schedulers.optimistic import OptimisticScheduler
    generated = generate_paper_workload(PaperWorkloadConfig(
        n_transactions=n, alpha=1.0, beta=0.0, seed=seed))
    results = []
    runs = {
        "upgrade-2PL": TwoPLScheduler(TwoPLSchedulerConfig(
            upgrade_mode=True)).run(generated.workload),
        "exclusive-2PL": TwoPLScheduler(TwoPLSchedulerConfig()).run(
            generated.workload),
        "gtm": GTMScheduler(GTMSchedulerConfig()).run(generated.workload),
        "freeze-optimistic": OptimisticScheduler().run(generated.workload),
    }
    for name, outcome in runs.items():
        results.append(StrategyResult(
            strategy=name,
            committed=outcome.stats.committed,
            aborted=outcome.stats.aborted,
            deadlocks=outcome.extra.get("deadlocks", 0),
            avg_exec=outcome.stats.avg_execution_time,
            avg_wait=outcome.stats.avg_wait_time,
        ))
    return results


def render_section2(results: list[StrategyResult]) -> str:
    rows = [[r.strategy, r.committed, r.aborted, r.deadlocks,
             round(r.avg_exec, 2), round(r.avg_wait, 2)]
            for r in results]
    return render_table(
        ["strategy", "committed", "aborted", "deadlocks", "avg exec (s)",
         "avg wait (s)"],
        rows,
        title="A5 — the Section II strategies on one booking workload "
              "(all-subtraction, no disconnections)")


# ---------------------------------------------------------------------------
# A4 — SST failure injection and recovery
# ---------------------------------------------------------------------------


@dataclass
class SSTRecoveryResult:
    scenario: str
    committed: bool
    attempts: int
    gtm_value: float
    ldbs_value: float
    consistent: bool


def run_sst_recovery() -> list[SSTRecoveryResult]:
    """Transient vs permanent SST failures on a bound object."""
    results = []
    scenarios = {
        # fails attempt 1, succeeds on retry
        "transient (1 failure)": FailureInjector(fail_attempts=(1,)),
        # fails every attempt: the GTM must abort cleanly
        "permanent": FailureInjector(should_fail=lambda t, a: True),
    }
    for name, injector in scenarios.items():
        database, binding = _scarcity_setup(stock=100)
        executor = SSTExecutor(database, max_retries=2, injector=injector)
        gtm = GlobalTransactionManager(sst_executor=executor)
        gtm.create_object("seats", value=100.0, binding=binding)
        gtm.begin("T")
        gtm.invoke("T", "seats", subtract(1))
        gtm.apply("T", "seats", subtract(1))
        committed = True
        attempts = 0
        try:
            report = gtm.request_commit("T")
            attempts = report.attempts if report else 0
        except SSTFailure:
            committed = False
            attempts = executor.max_retries + 1
        gtm_value = gtm.object("seats").permanent_value()
        ldbs_value = database.catalog.table("flight").get_by_key(
            1)["free_tickets"]
        results.append(SSTRecoveryResult(
            scenario=name,
            committed=committed,
            attempts=attempts,
            gtm_value=gtm_value,
            ldbs_value=ldbs_value,
            consistent=(gtm_value == ldbs_value),
        ))
    return results


def render_sst_recovery(results: list[SSTRecoveryResult]) -> str:
    rows = [[r.scenario, r.committed, r.attempts, r.gtm_value,
             r.ldbs_value, r.consistent] for r in results]
    return render_table(
        ["scenario", "committed", "attempts", "GTM value", "LDBS value",
         "consistent"],
        rows, title="A4 — SST failure injection and recovery")


def main() -> str:
    blocks = [
        render_starvation(run_starvation()),
        render_constraints(run_constraints()),
        render_deadlock(run_deadlock()),
        render_sst_recovery(run_sst_recovery()),
        render_section2(run_section2_strategies()),
    ]
    return "\n\n".join(blocks)
