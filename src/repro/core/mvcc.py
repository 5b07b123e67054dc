"""Never-blocking READs against one commit order (``GTMConfig.mvcc_reads``).

The kernel (:class:`~repro.core.gtm.GlobalTransactionManager`) keeps one
``X_permanent`` image per object, so a READ must take a semantic lock.
:class:`MVCCTransactionManager` is that kernel — one lock table, every
Algorithm 1-11 step inherited — plus a *commit sequence number* (csn):
the position of a commit in the kernel's one commit order
(``history.commit_order``), stamped on the post-commit image of every
object the commit touched and kept in a bounded ring per object
(:mod:`repro.ldbs.versions`).  Three things hang off it:

- **the snapshot** — a transaction's first lock-free READ pins the
  current csn; every later lock-free READ of that transaction, on any
  object, is served the newest version at or below the pin, without a
  lock and without ever entering the wait queue.  One pin in one order
  is what makes the reads one cut: a commit that wrote two objects is
  seen on both or on neither ("Rethinking serializable multiversion
  concurrency control", PAPERS.md);
- **snapshot-too-old** — a pin that has fallen off an object's ring
  aborts the reader rather than retaining versions without bound;
- **promotion certification** — a reader's first *write* on an object
  it read lock-free is granted only while the version it was served is
  still that object's newest; otherwise its virtual copy would chain
  off a superseded image, and it aborts with a ``certification-*``
  reason (the order check of "A Concurrency Control Method Based on
  Commitment Ordering in Mobile Databases", PAPERS.md).

What a snapshot does *not* give: a transaction that reads ``x``
lock-free and then writes some other ``y`` commits without its read of
``x`` being re-checked — write skew between two read-write
transactions is left to the reads-from check of ROADMAP item 5.

``validate_promotions=False`` skips the promotion check and nothing
else.  It exists only for ``tests/federation/test_fault_injection.py``,
which proves the serializability oracle catches the resulting anomaly.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import (
    CertificationError,
    GTMError,
    ProtocolError,
    SnapshotTooOld,
)
from repro.core.admission import GrantOutcome
from repro.core.gtm import GlobalTransactionManager, GTMConfig, _ticked
from repro.core.objects import ManagedObject
from repro.core.opclass import Invocation, OperationClass
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction
from repro.ldbs.versions import Version, VersionStore

__all__ = [
    "CommitmentOrderCertifier",
    "MVCCTransactionManager",
    "build_transaction_manager",
]

_TS = TransactionState


class CommitmentOrderCertifier:
    """The csn, each reader's pin and served versions, the order check."""

    def __init__(self, validate_promotions: bool = True) -> None:
        #: the fault-injection seam: False skips the promotion order
        #: check (and nothing else).  Never disable outside tests.
        self.validate_promotions = validate_promotions
        #: commits externalized so far (csn 0 = the initial images).
        self.csn = 0
        #: object name -> csn of its newest externalized version.
        self.object_csn: dict[str, int] = {}
        #: txn -> pinned csn (the MVCC read timestamp, fixed at the
        #: transaction's first lock-free read).
        self.pins: dict[str, int] = {}
        #: txn -> object name -> the version its reads were served from.
        self.served: dict[str, dict[str, Version]] = {}
        #: telemetry (per episode): reads served lock-free, promotions
        #: certified, promotions rejected.
        self.reads_served = 0
        self.promotions_checked = 0
        self.promotions_rejected = 0

    # ------------------------------------------------------------------
    # the read side: the pin and the served versions
    # ------------------------------------------------------------------

    def pin(self, txn_id: str) -> int:
        """The transaction's read timestamp: the csn current at its
        first lock-free read, reused by every later one."""
        return self.pins.setdefault(txn_id, self.csn)

    def record_served(self, txn_id: str, object_name: str,
                      version: Version) -> None:
        """Remember which version answered a transaction's reads."""
        self.served.setdefault(txn_id, {})[object_name] = version
        self.reads_served += 1

    def served_version(self, txn_id: str,
                       object_name: str) -> Version | None:
        return self.served.get(txn_id, {}).get(object_name)

    def forget(self, txn_id: str) -> None:
        """Drop a finished transaction's pin and served versions."""
        self.pins.pop(txn_id, None)
        self.served.pop(txn_id, None)

    # ------------------------------------------------------------------
    # the order check: snapshot promotion
    # ------------------------------------------------------------------

    def certify_promotion(self, txn_id: str, object_name: str) -> None:
        """Certify a lock-free reader's first write on a read object.

        The served version must still be the object's newest
        externalized one; otherwise granting the write would chain the
        transaction's virtual value off a superseded image — its commit
        would contradict the commit(s) already ordered after its pin.
        Raises :class:`CertificationError`; the manager translates that
        into an abort.
        """
        served = self.served_version(txn_id, object_name)
        if served is None:
            return
        self.promotions_checked += 1
        if not self.validate_promotions:  # fault-injection control only
            return
        current = self.object_csn.get(object_name, 0)
        if current != served.csn:
            self.promotions_rejected += 1
            raise CertificationError(
                txn_id,
                f"snapshot of {object_name!r} pinned at csn "
                f"{served.csn} is stale: csn {current} already "
                f"externalized")

    # ------------------------------------------------------------------
    # the write side: the single externalization point
    # ------------------------------------------------------------------

    def externalize(self, txn_id: str, names: Iterable[str]) -> int:
        """Take the next csn for a committed transaction, stamp the
        objects it touched with it, and drop its read state.  Every
        commit takes one — a pure lock-free reader too, touching
        nothing — so the csn is the commit's position in
        ``history.commit_order``."""
        self.csn += 1
        for name in names:
            self.object_csn[name] = self.csn
        self.forget(txn_id)
        return self.csn


class MVCCTransactionManager(GlobalTransactionManager):
    """The kernel, plus the certifier and the version rings."""

    serves_lock_free_reads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.certifier = CommitmentOrderCertifier()
        #: multi-version permanent state: one ring per object.
        self.versions = VersionStore()

    def register_object(self, obj: ManagedObject) -> ManagedObject:
        super().register_object(obj)
        self.versions.seed(obj.name, obj.permanent, obj.exists)
        return obj

    # ------------------------------------------------------------------
    # the lock-free read path in front of Algorithm 2
    # ------------------------------------------------------------------

    @_ticked
    def invoke(self, txn_id: str, object_name: str,
               invocation: Invocation) -> str:
        txn = self.transaction(txn_id)
        obj = self.object(object_name)
        if invocation.op_class is not OperationClass.READ:
            return self._invoke_write(txn, obj, invocation)
        if obj.is_pending(txn_id):
            # read-your-writes: a granted holder reads its virtual
            # copy, through the kernel's own admission.
            return self.admission.request(txn, obj, invocation, self.now())
        if not txn.is_in(_TS.ACTIVE):
            raise ProtocolError(
                "invoke", f"{txn_id!r} is {txn.state.value}, not active")
        if invocation.member not in obj.permanent:
            raise GTMError(
                f"object {obj.name!r} has no member {invocation.member!r}")
        try:
            version = self.versions.ring(obj.name).as_of(
                self.certifier.pin(txn_id))
        except SnapshotTooOld:
            self.abort(txn_id, reason="snapshot-too-old")
            return GrantOutcome.ABORTED
        if not version.exists:
            raise ProtocolError(
                "invoke",
                f"{invocation.describe()!r} on {obj.name!r}: the "
                f"object does not exist in the pinned snapshot")
        self.certifier.record_served(txn_id, obj.name, version)
        return GrantOutcome.GRANTED

    def _invoke_write(self, txn: GTMTransaction, obj: ManagedObject,
                      invocation: Invocation) -> str:
        """Algorithm 2, certified first when the write promotes a
        snapshot: a write on an object this transaction read lock-free
        turns the snapshot into a real grant, which the commit order
        allows only while the snapshot is still the newest version."""
        txn_id = txn.txn_id
        served = self.certifier.served_version(txn_id, obj.name)
        promoting = served is not None and txn_id not in obj.read
        if promoting:
            try:
                self.certifier.certify_promotion(txn_id, obj.name)
            except CertificationError:
                self.abort(txn_id, reason="certification-stale-snapshot")
                return GrantOutcome.ABORTED
        outcome = self.admission.request(txn, obj, invocation, self.now())
        if promoting and outcome == GrantOutcome.GRANTED \
                and txn_id in obj.read:
            # read-your-snapshot: the virtual copy must chain from the
            # image the reads were served from.  After a certified
            # promotion this is a no-op (the snapshot is provably still
            # current); under the fault-injection control it is the
            # deliberate inconsistency the oracle must catch.
            for member, value in served.values.items():
                txn.set_temp(obj.name, member, value)
        return outcome

    @_ticked
    def apply(self, txn_id: str, object_name: str,
              invocation: Invocation) -> Any:
        txn = self.transaction(txn_id)
        obj = self.object(object_name)
        if invocation.op_class is OperationClass.READ \
                and not obj.is_pending(txn_id):
            served = self.certifier.served_version(txn_id, object_name)
            if served is not None:
                if not txn.is_in(_TS.ACTIVE):
                    raise ProtocolError(
                        "apply",
                        f"{txn_id!r} is {txn.state.value}, not active")
                try:
                    return served.values[invocation.member]
                except KeyError:
                    raise GTMError(
                        f"object {object_name!r} has no member "
                        f"{invocation.member!r}") from None
        return self.pipeline.apply_virtual(txn, obj, invocation)

    def read_virtual(self, txn_id: str, object_name: str,
                     member: str = "value") -> Any:
        try:
            return super().read_virtual(txn_id, object_name, member)
        except KeyError:
            served = self.certifier.served_version(txn_id, object_name)
            if served is not None and member in served.values:
                return served.values[member]
            raise

    # ------------------------------------------------------------------
    # externalization: the csn and the version rings
    # ------------------------------------------------------------------

    def _externalize(self, txn_id: str,
                     involved: list[ManagedObject]) -> None:
        """The single externalization point, called by the commit
        pipeline right after ⟨commit, A⟩ is announced: the commit takes
        its csn and each touched object's post-commit image joins its
        version ring under it."""
        csn = self.certifier.externalize(
            txn_id, [obj.name for obj in involved])
        publish = self.versions.publish
        for obj in involved:
            publish(obj.name, csn, obj.permanent, obj.exists)

    # The two abort exits only drop the finished transaction's pin and
    # served versions; the abort itself is the kernel's.

    def global_abort(self, txn_id: str, reason: str = "requested") -> None:
        super().global_abort(txn_id, reason=reason)
        self.certifier.forget(txn_id)

    def awake(self, txn_id: str) -> bool:
        survived = super().awake(txn_id)
        if not survived:
            self.certifier.forget(txn_id)
        return survived


def build_transaction_manager(
        config=None, clock=None, sst_executor=None, observer=None
) -> GlobalTransactionManager:
    """The one construction seam of the schedulers, the check and bench
    harnesses and the live service: ``GTMConfig.mvcc_reads`` selects
    :class:`MVCCTransactionManager`, the default the plain kernel."""
    config = config or GTMConfig()
    cls = (MVCCTransactionManager if config.mvcc_reads
           else GlobalTransactionManager)
    return cls(config=config, clock=clock, sst_executor=sst_executor,
               observer=observer)
