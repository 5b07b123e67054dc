"""The federated GTM: the kernel plus object partitions.

:class:`FederatedTransactionManager` *is* a
:class:`~repro.core.gtm.GlobalTransactionManager` — one lock table, one
admission controller, one commit pipeline, one sleep manager, every
Algorithm 1-11 step inherited unchanged.  A federation adds state keyed
by *partition*, nothing else:

- **routing** — :class:`~repro.federation.routing.ObjectRouter` maps an
  object name to its partition index (stable crc32);
- **commitment-ordering certification** — every commit is externalized
  at one point, right after the kernel announces it, into per-partition
  commit-order logs
  (:class:`~repro.federation.certifier.CommitmentOrderCertifier`); a
  transaction whose snapshot promotion would invert an already
  externalized order is aborted with a ``certification-*`` reason;
- **never-blocking MVCC reads** (``GTMConfig.mvcc_reads``) — the READ
  class is admitted without ever entering the wait queue: the reader
  pins its partition's current commit sequence number and is served
  from the ring of recent committed versions
  (:mod:`repro.ldbs.versions`) instead of taking a semantic lock.

Without ``mvcc_reads`` a federation of any shard count schedules exactly
like the monolith — it runs the same code — which the federation
differential holds to bit-identity.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    CertificationError,
    GTMError,
    ProtocolError,
    SnapshotTooOld,
)
from repro.core.admission import GrantOutcome
from repro.core.gtm import GlobalTransactionManager, _ticked
from repro.core.objects import ManagedObject
from repro.core.opclass import Invocation, OperationClass
from repro.core.states import TransactionState
from repro.core.transaction import GTMTransaction
from repro.federation.certifier import CommitmentOrderCertifier
from repro.federation.routing import ObjectRouter
from repro.ldbs.versions import VersionStore

__all__ = ["FederatedTransactionManager"]

_TS = TransactionState


class FederatedTransactionManager(GlobalTransactionManager):
    """The kernel, plus router + certifier + version rings."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: ``mvcc_reads`` without an explicit shard count still needs
        #: the versioned state — it implies a 1-shard federation.
        shard_count = max(1, self.config.gtm_shards)
        self.router = ObjectRouter(shard_count)
        self.certifier = CommitmentOrderCertifier(shard_count)
        #: multi-version permanent state for the MVCC read path; csns
        #: are per partition, rings per object.
        self.versions = VersionStore(capacity=self.config.version_ring)
        self._mvcc = bool(self.config.mvcc_reads)

    def register_object(self, obj: ManagedObject) -> ManagedObject:
        super().register_object(obj)
        self.versions.seed(obj.name, obj.permanent, obj.exists)
        return obj

    # ------------------------------------------------------------------
    # the MVCC read path in front of Algorithm 2
    # ------------------------------------------------------------------

    @_ticked
    def invoke(self, txn_id: str, object_name: str,
               invocation: Invocation) -> str:
        txn = self.transaction(txn_id)
        obj = self.object(object_name)
        if self._mvcc:
            outcome = self._mvcc_invoke(txn, obj, invocation)
            if outcome is not None:
                return outcome
        return self.admission.request(txn, obj, invocation, self.now())

    def _mvcc_invoke(self, txn: GTMTransaction, obj: ManagedObject,
                     invocation: Invocation) -> str | None:
        """The lock-free read path and its write-promotion certification.

        Returns a :class:`GrantOutcome` when the invocation was fully
        handled here, or None to fall through to normal admission.
        """
        txn_id = txn.txn_id
        if invocation.op_class is OperationClass.READ:
            if obj.is_pending(txn_id):
                # read-your-writes: a granted holder reads its virtual
                # copy, exactly as in the monolith.
                return None
            if not txn.is_in(_TS.ACTIVE):
                raise ProtocolError(
                    "invoke",
                    f"{txn_id!r} is {txn.state.value}, not active")
            if invocation.member not in obj.permanent:
                raise GTMError(
                    f"object {obj.name!r} has no member "
                    f"{invocation.member!r}")
            pin = self.certifier.pin(txn_id, self.router.index_of(obj.name))
            try:
                version = self.versions.ring(obj.name).as_of(pin)
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
        served = self.certifier.served_version(txn_id, obj.name)
        if served is None:
            return None
        # A write on an object this transaction read lock-free: the
        # snapshot promotes into a real grant, and commitment ordering
        # demands the snapshot still be the newest externalized version.
        first_grant = txn_id not in obj.read
        if first_grant:
            try:
                self.certifier.certify_promotion(txn_id, obj.name)
            except CertificationError:
                self.abort(txn_id, reason="certification-stale-snapshot")
                return GrantOutcome.ABORTED
        outcome = self.admission.request(txn, obj, invocation, self.now())
        if outcome == GrantOutcome.GRANTED and first_grant \
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
        if self._mvcc and invocation.op_class is OperationClass.READ \
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
    # externalization: commit-order logs and version rings
    # ------------------------------------------------------------------

    def _externalize(self, txn_id: str,
                     involved: list[ManagedObject]) -> None:
        """The single global externalization point, called by the
        commit pipeline right after ⟨commit, A⟩ is announced:
        commit-order logs gain one entry per touched partition, and each
        touched object's post-commit image joins its version ring under
        the new csn.  A pure lock-free reader touches none."""
        index_of = self.router.index_of
        partitions = [index_of(obj.name) for obj in involved]
        by_shard: dict[int, list[str]] = {}
        for obj, index in zip(involved, partitions):
            by_shard.setdefault(index, []).append(obj.name)
        assigned = self.certifier.externalize(txn_id, by_shard)
        publish = self.versions.publish
        for obj, index in zip(involved, partitions):
            publish(obj.name, assigned[index], obj.permanent, obj.exists)
        self.certifier.forget(txn_id)

    # The two abort exits only drop the finished transaction's pins and
    # served versions; the abort itself is the kernel's.

    def global_abort(self, txn_id: str, reason: str = "requested") -> None:
        super().global_abort(txn_id, reason=reason)
        self.certifier.forget(txn_id)

    def awake(self, txn_id: str) -> bool:
        survived = super().awake(txn_id)
        if not survived:
            self.certifier.forget(txn_id)
        return survived

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """The kernel's structural sweep plus the federation's own: no
        pair of transactions may be externalized in opposite orders on
        two partitions (the commitment-ordering audit)."""
        super().check_invariants()
        inverted = self.certifier.inversions()
        if inverted:
            first, second, shard_a, shard_b = inverted[0]
            raise GTMError(
                f"commitment-ordering violation: {first!r} precedes "
                f"{second!r} on shard {shard_a} but follows it on "
                f"shard {shard_b}")
