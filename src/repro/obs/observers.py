"""Bus-fed metrics observer: the GTM hook stream -> registry updates.

One :class:`MetricsObserver` per episode, feeding whichever registry the
:class:`~repro.obs.Observability` handed it.  Hook bodies accumulate
into plain slotted attributes (integer adds and small dict updates) and
the registry instruments are materialized **once**, at
:meth:`MetricsObserver.finalize` — the hot path of a discrete-event
episode dispatches thousands of hooks, so per-event cost is the entire
overhead budget, while the end-of-episode fold is paid once.

Metric vocabulary (all prefixed ``gtm_``):

========================== ========= =====================================
name                       kind      labels
========================== ========= =====================================
gtm_txn_begins             counter   —
gtm_grants                 counter   —
gtm_waits                  counter   —
gtm_commits                counter   —
gtm_aborts                 counter   abort reason (``deadlock-victim``,
                                     ``sleep-conflict``, driver reasons)
gtm_sleeps                 counter   —
gtm_awakes                 counter   ``survived`` / ``sleep-conflict``
gtm_reconciliations        counter   reconciliation rule (``eq1`` for
                                     additive, ``eq2`` for multiplicative,
                                     ``identity``, ``structural``, ``read``)
gtm_revalidations          counter   ``clear`` / ``conflicted``
gtm_pump_passes            counter   —
gtm_pump_examined          counter   —
gtm_pump_granted           counter   —
gtm_overtakes              counter   —
gtm_repolice_sweeps        counter   —
gtm_repolice_edges         counter   —
gtm_wait_seconds           histogram —
gtm_sleep_seconds          histogram —
gtm_lock_shard_occupancy   gauge     ``shard0`` (set via snapshot)
========================== ========= =====================================
"""

from __future__ import annotations

from repro.core.events import GTMObserver
from repro.core.opclass import OperationClass
from repro.obs.registry import MetricsRegistry

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
    """Counts protocol episodes; folds into the registry at finalize."""

    __slots__ = (
        "registry", "begins", "grants", "waits", "commits", "aborts",
        "sleeps", "awakes", "reconciliations", "revalidations",
        "pump_passes", "pump_examined", "pump_granted", "overtakes",
        "repolice_sweeps", "repolice_edges", "wait_durations",
        "sleep_durations", "_wait_started", "_sleep_started",
        "_finalized")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.begins = 0
        self.grants = 0
        self.waits = 0
        self.commits = 0
        #: abort reason -> count.
        self.aborts: dict[str, int] = {}
        self.sleeps = 0
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
        self.wait_durations: list[float] = []
        self.sleep_durations: list[float] = []
        #: open wait/sleep interval starts, mirroring TxnTimeline's
        #: disjointness semantics so the histograms agree with RunStats.
        self._wait_started: dict[str, float] = {}
        self._sleep_started: dict[str, float] = {}
        self._finalized = False

    # -- lifecycle ----------------------------------------------------

    def on_begin(self, txn, now):
        self.begins += 1

    def on_global_commit(self, txn, now):
        self.commits += 1
        self._close_wait(txn.txn_id, now)
        self._close_sleep(txn.txn_id, now)

    def on_global_abort(self, txn, now, reason):
        self.aborts[reason] = self.aborts.get(reason, 0) + 1
        self._close_wait(txn.txn_id, now)
        self._close_sleep(txn.txn_id, now)

    # -- admission ----------------------------------------------------

    def on_wait(self, txn, obj, invocation, now):
        self.waits += 1
        self._wait_started.setdefault(txn.txn_id, now)

    def on_grant(self, txn, obj, invocation, now):
        self.grants += 1
        if not txn.t_wait:  # same audit as TimelineObserver.on_grant
            self._close_wait(txn.txn_id, now)

    def on_pump(self, obj, examined, granted, overtakes, now):
        self.pump_passes += 1
        self.pump_examined += examined
        self.pump_granted += len(granted)
        self.overtakes += overtakes

    def on_repolice(self, obj, refreshed, now):
        self.repolice_sweeps += 1
        self.repolice_edges += refreshed

    # -- sleep protocol -----------------------------------------------

    def on_sleep(self, txn, now):
        self.sleeps += 1
        self._close_wait(txn.txn_id, now)  # disjointness rule
        self._sleep_started.setdefault(txn.txn_id, now)

    def on_awake(self, txn, now, survived):
        label = "survived" if survived else "sleep-conflict"
        self.awakes[label] = self.awakes.get(label, 0) + 1
        self._close_sleep(txn.txn_id, now)

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

    # -- interval plumbing --------------------------------------------

    def _close_wait(self, txn_id: str, now: float) -> None:
        started = self._wait_started.pop(txn_id, None)
        if started is not None:
            self.wait_durations.append(now - started)

    def _close_sleep(self, txn_id: str, now: float) -> None:
        started = self._sleep_started.pop(txn_id, None)
        if started is not None:
            self.sleep_durations.append(now - started)

    def finalize(self, now: float) -> None:
        """Flush open intervals at makespan and materialize the
        registry instruments (idempotent; fires once)."""
        if self._finalized:
            return
        self._finalized = True
        for txn_id in sorted(self._wait_started):
            self._close_wait(txn_id, now)
        for txn_id in sorted(self._sleep_started):
            self._close_sleep(txn_id, now)
        registry = self.registry
        if not registry.enabled:
            return
        # Zero-valued instruments are not materialized: absent and zero
        # merge identically, and a typical fuzz episode leaves half the
        # vocabulary untouched — skipping them trims both this fold and
        # every downstream accumulate_snapshot over the frame.
        for name, value in (
                ("gtm_txn_begins", self.begins),
                ("gtm_grants", self.grants),
                ("gtm_waits", self.waits),
                ("gtm_commits", self.commits),
                ("gtm_sleeps", self.sleeps),
                ("gtm_pump_passes", self.pump_passes),
                ("gtm_pump_examined", self.pump_examined),
                ("gtm_pump_granted", self.pump_granted),
                ("gtm_overtakes", self.overtakes),
                ("gtm_repolice_sweeps", self.repolice_sweeps),
                ("gtm_repolice_edges", self.repolice_edges)):
            if value:
                registry.counter(name).inc(value)
        for name, series in (
                ("gtm_aborts", self.aborts),
                ("gtm_awakes", self.awakes),
                ("gtm_reconciliations", self.reconciliations),
                ("gtm_revalidations", self.revalidations)):
            if series:
                counter = registry.counter(name)
                for label, count in series.items():
                    counter.inc(count, label=label)
        if self.wait_durations:
            wait_hist = registry.histogram("gtm_wait_seconds")
            for duration in self.wait_durations:
                wait_hist.observe(duration)
        if self.sleep_durations:
            sleep_hist = registry.histogram("gtm_sleep_seconds")
            for duration in self.sleep_durations:
                sleep_hist.observe(duration)

    def snapshot_lock_table(self, lock_table) -> None:
        """Record the lock directory's occupancy as a gauge (the one
        :class:`~repro.core.admission.LockTable` reports as shard 0)."""
        self.registry.gauge("gtm_lock_shard_occupancy").set(
            len(lock_table), label="shard0")
