"""The metric vocabulary and its two sources: timelines and the bus.

Every wait and sleep *interval* — and so every lifecycle number: who
began, who committed, who aborted and why, who slept and for how long —
is kept by exactly one accountant, the always-on
:class:`~repro.metrics.collectors.TxnTimeline`.  :func:`fold_timelines`
reads a finished run's timelines into a registry; it is the same fold
for the GTM, 2PL and optimistic schedulers, so all three report the
same series under the same names.

What a timeline cannot know is how the protocol got there: grants,
queue pumps, re-policing sweeps, Algorithm 9 verdicts, reconciliations
by rule.  Those are heard on the :class:`~repro.core.events.EventBus`
by one :class:`MetricsObserver` per GTM episode.  Its hook bodies
accumulate into plain slotted attributes (integer adds and small dict
updates) and the registry instruments are materialized **once**, at
:meth:`MetricsObserver.finalize` — the hot path of a discrete-event
episode dispatches thousands of hooks, so per-event cost is the entire
overhead budget, while the end-of-episode fold is paid once.

Metric vocabulary (all prefixed ``gtm_``):

======================== ========= ======== ============================
name                     kind      source   labels
======================== ========= ======== ============================
gtm_txn_begins           counter   timeline —
gtm_commits              counter   timeline —
gtm_aborts               counter   timeline abort reason
                                            (``deadlock-victim``,
                                            ``sleep-conflict``, driver
                                            reasons)
gtm_sleeps               counter   timeline —
gtm_wait_seconds         histogram timeline —
gtm_sleep_seconds        histogram timeline —
gtm_grants               counter   bus      —
gtm_waits                counter   bus      —
gtm_awakes               counter   bus      ``survived`` /
                                            ``sleep-conflict``
gtm_reconciliations      counter   bus      reconciliation rule
                                            (``eq1`` additive, ``eq2``
                                            multiplicative, ``identity``,
                                            ``structural``, ``read``)
gtm_revalidations        counter   bus      ``clear`` / ``conflicted``
gtm_pump_passes          counter   bus      —
gtm_pump_examined        counter   bus      —
gtm_pump_granted         counter   bus      —
gtm_overtakes            counter   bus      —
gtm_repolice_sweeps      counter   bus      —
gtm_repolice_edges       counter   bus      —
gtm_lock_table_objects   gauge     bus      — (set via snapshot)
======================== ========= ======== ============================
"""

from __future__ import annotations

from repro.core.events import GTMObserver
from repro.core.opclass import OperationClass
from repro.metrics.collectors import MetricsCollector, Outcome
from repro.obs.registry import MetricsRegistry


def fold_timelines(collector: MetricsCollector,
                   registry: MetricsRegistry) -> None:
    """Read a finished run's lifecycle series off its timelines.

    Call it after :meth:`MetricsCollector.finalize` (every scheduler's
    ``_result`` does that at makespan), so intervals still open at the
    end of the run are already closed and counted.  Every
    ``timeline``-sourced series is materialized, zero or not, so each
    scheduler's frame carries the same names.
    """
    commits = sleeps = 0
    aborts = registry.counter("gtm_aborts")
    seconds = {"wait": registry.histogram("gtm_wait_seconds"),
               "sleep": registry.histogram("gtm_sleep_seconds")}
    for timeline in collector.timelines.values():
        sleeps += timeline.sleeps
        if timeline.outcome is Outcome.COMMITTED:
            commits += 1
        elif timeline.outcome is Outcome.ABORTED:
            aborts.inc(label=timeline.abort_reason or "unspecified")
        for kind, start, end in timeline.intervals:
            seconds[kind].observe(end - start)
    registry.counter("gtm_txn_begins").inc(len(collector))
    registry.counter("gtm_commits").inc(commits)
    registry.counter("gtm_sleeps").inc(sleeps)


#: OperationClass -> reconciliation-rule label.  Eq. (1) covers the
#: additive commutative class, Eq. (2) the multiplicative one; ASSIGN
#: reconciles by identity, structural ops replace the whole object.
RECONCILE_RULE = {
    OperationClass.UPDATE_ADDSUB: "eq1",
    OperationClass.UPDATE_MULDIV: "eq2",
    OperationClass.UPDATE_ASSIGN: "identity",
    OperationClass.INSERT: "structural",
    OperationClass.DELETE: "structural",
    OperationClass.READ: "read",
}


class MetricsObserver(GTMObserver):
    """Counts what only the bus knows; folds into the registry at
    finalize.  It opens and closes no interval — the timelines do."""

    __slots__ = (
        "registry", "grants", "waits", "awakes", "reconciliations",
        "revalidations", "pump_passes", "pump_examined", "pump_granted",
        "overtakes", "repolice_sweeps", "repolice_edges", "_finalized")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.grants = 0
        self.waits = 0
        #: "survived"/"sleep-conflict" -> count.
        self.awakes: dict[str, int] = {}
        #: reconciliation rule -> count.
        self.reconciliations: dict[str, int] = {}
        #: "clear"/"conflicted" -> count.
        self.revalidations: dict[str, int] = {}
        self.pump_passes = 0
        self.pump_examined = 0
        self.pump_granted = 0
        self.overtakes = 0
        self.repolice_sweeps = 0
        self.repolice_edges = 0
        self._finalized = False

    # -- admission ----------------------------------------------------

    def on_wait(self, txn, obj, invocation, now):
        self.waits += 1

    def on_grant(self, txn, obj, invocation, now):
        self.grants += 1

    def on_pump(self, obj, examined, granted, overtakes, now):
        self.pump_passes += 1
        self.pump_examined += examined
        self.pump_granted += len(granted)
        self.overtakes += overtakes

    def on_repolice(self, obj, refreshed, now):
        self.repolice_sweeps += 1
        self.repolice_edges += refreshed

    # -- sleep protocol -----------------------------------------------

    def on_awake(self, txn, now, survived):
        label = "survived" if survived else "sleep-conflict"
        self.awakes[label] = self.awakes.get(label, 0) + 1

    def on_revalidate(self, txn, obj, conflicted, now):
        label = "conflicted" if conflicted else "clear"
        self.revalidations[label] = self.revalidations.get(label, 0) + 1

    # -- commit pipeline ----------------------------------------------

    def on_reconcile(self, txn, obj, invocation, now):
        # .get with no default: enum ``.value`` goes through
        # DynamicClassAttribute (microseconds), and a default argument
        # would evaluate it on every hit.
        rule = RECONCILE_RULE.get(invocation.op_class)
        if rule is None:
            rule = invocation.op_class.value
        self.reconciliations[rule] = self.reconciliations.get(rule, 0) + 1

    def finalize(self) -> None:
        """Materialize the registry instruments (idempotent; fires
        once)."""
        if self._finalized:
            return
        self._finalized = True
        registry = self.registry
        # Zero-valued instruments are not materialized: absent and zero
        # merge identically, and a typical fuzz episode leaves half the
        # bus vocabulary untouched — skipping them trims both this fold
        # and every downstream accumulate_snapshot over the frame.
        for name, value in (
                ("gtm_grants", self.grants),
                ("gtm_waits", self.waits),
                ("gtm_pump_passes", self.pump_passes),
                ("gtm_pump_examined", self.pump_examined),
                ("gtm_pump_granted", self.pump_granted),
                ("gtm_overtakes", self.overtakes),
                ("gtm_repolice_sweeps", self.repolice_sweeps),
                ("gtm_repolice_edges", self.repolice_edges)):
            if value:
                registry.counter(name).inc(value)
        for name, series in (
                ("gtm_awakes", self.awakes),
                ("gtm_reconciliations", self.reconciliations),
                ("gtm_revalidations", self.revalidations)):
            if series:
                counter = registry.counter(name)
                for label, count in series.items():
                    counter.inc(count, label=label)

    def snapshot_lock_table(self, lock_table) -> None:
        """Record how many objects the lock table holds, as a gauge."""
        self.registry.gauge("gtm_lock_table_objects").set(len(lock_table))
