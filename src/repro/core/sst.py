"""Secure System Transactions (paper Section III).

"At commit time, a special transaction, called Secure System Transaction
(SST), is then generated by the GTM to report the effective changes from
the virtual copies to the LDBS."

An SST is an ordinary ACID transaction against the LDBS: one
transaction per global commit, writing every reconciled value (and
performing deletes/inserts for the whole-object classes).  The LDBS is
reached through the pluggable :class:`~repro.ldbs.backend.LDBSBackend`
seam — the in-memory dict-of-rows store
(:class:`~repro.ldbs.backend.MemoryBackend`) or SQLite in WAL mode
(:mod:`repro.ldbs.sqlite_backend`).  SSTs always take the
backend's serialized **write path** (``begin(write=True)``, i.e.
``BEGIN IMMEDIATE`` on SQLite); losing a serialization race raises
:class:`~repro.errors.BackendConflictError`, which the executor's
bounded retry loop treats as transient and re-runs.

Section VII admits the paper "assumed that SST is always correctly
executed" and defers recovery to future work — we implement that future
work: :class:`SSTExecutor` supports fault injection (a failure on the
k-th attempt, or a random failure rate) and a bounded retry loop; an SST
that exhausts its retries raises :class:`~repro.errors.SSTFailure`, which
the GTM converts into a clean global abort.  Each attempt is one
backend transaction, so a failed attempt leaves no partial effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import (
    BackendConflictError,
    ConstraintViolation,
    GTMError,
    ReproError,
    SSTFailure,
)
from repro.core.objects import ObjectBinding
from repro.ldbs.backend import LDBSBackend

if TYPE_CHECKING:  # pragma: no cover - numpy loads on the first draw
    import numpy as np


@dataclass(frozen=True)
class StagedWrite:
    """One object's reconciled outcome, ready to hit the LDBS.

    ``values`` maps GTM member names to final values; ``delete=True``
    marks a whole-object delete (``values`` ignored).  Objects without a
    binding are virtual-only: the executor counts and skips them.
    """

    object_name: str
    binding: ObjectBinding | None
    values: Mapping[str, Any]
    delete: bool = False


@dataclass(slots=True)
class SSTReport:
    """Outcome of one SST execution (the pipeline keeps those that
    took more than one attempt)."""

    txn_id: str
    attempts: int = 1
    rows_written: int = 0
    rows_deleted: int = 0
    skipped_unbound: int = 0
    injected_failures: int = 0
    conflict_retries: int = 0


class FailureInjector:
    """Decides whether an SST attempt fails (testing/ablation hook).

    ``failure_rate`` draws are made from one generator — injected
    (``rng=``, threaded from the episode RNG) or seeded from ``seed``
    — never from ambient entropy, so a failure-rate campaign replays
    identically from its seed.  The seeded generator is built on the
    first draw and numpy imported there: the live service builds an
    injector per executor and never draws, so it never loads numpy.
    """

    def __init__(self, failure_rate: float = 0.0,
                 rng: np.random.Generator | None = None,
                 fail_attempts: Sequence[int] = (),
                 should_fail: Callable[[str, int], bool] | None = None,
                 seed: int = 0,
                 ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise GTMError(f"failure_rate out of range: {failure_rate}")
        self.failure_rate = failure_rate
        self._rng = rng
        self._seed = seed
        self.fail_attempts = frozenset(fail_attempts)
        self.should_fail = should_fail
        self.injected = 0

    def fails(self, txn_id: str, attempt: int) -> bool:
        fail = False
        if self.should_fail is not None:
            fail = self.should_fail(txn_id, attempt)
        elif attempt in self.fail_attempts:
            fail = True
        elif self.failure_rate > 0.0:
            if self._rng is None:
                import numpy as np
                self._rng = np.random.default_rng(self._seed)
            fail = bool(self._rng.random() < self.failure_rate)
        if fail:
            self.injected += 1
        return fail


class SSTExecutor:
    """Applies staged writes to the LDBS with retry-on-failure.

    Every attempt opens the :class:`~repro.ldbs.backend.LDBSBackend`'s
    serialized write path; a lost serialization race
    (:class:`~repro.errors.BackendConflictError`) consumes a retry like
    an injected failure, while a constraint violation is deterministic
    and fails the SST immediately.
    """

    def __init__(self, backend: LDBSBackend,
                 max_retries: int = 2,
                 injector: FailureInjector | None = None) -> None:
        self.backend = backend
        if max_retries < 0:
            raise GTMError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.injector = injector or FailureInjector()
        self.executed = 0
        self.failed = 0

    def execute(self, txn_id: str,
                writes: Sequence[StagedWrite]) -> SSTReport:
        """Run one SST.  Raises :class:`SSTFailure` after retries expire,
        or at once on any other error the attempt raises."""
        report = SSTReport(txn_id=txn_id)
        last_error: Exception | None = None
        for attempt in range(1, self.max_retries + 2):
            report.attempts = attempt
            if self.injector.fails(txn_id, attempt):
                report.injected_failures += 1
                last_error = SSTFailure(txn_id,
                                        f"injected failure on attempt "
                                        f"{attempt}")
                continue
            try:
                self._apply(txn_id, attempt, writes, report)
            except ConstraintViolation as exc:
                # A constraint violation is deterministic: retrying cannot
                # help, report it immediately (paper Section VII's "high
                # rate of aborts ... during the data reconciliation").
                self.failed += 1
                raise SSTFailure(txn_id, f"constraint: {exc}") from exc
            except BackendConflictError as exc:
                # Lost a serialization race on the write path (libres'
                # TransactionRollbackError): transient, retry.
                report.conflict_retries += 1
                # without its traceback, which holds this very frame
                last_error = exc.with_traceback(None)
                continue
            except ReproError as exc:
                # Anything else an attempt raises (a closed backend, an
                # I/O error, a binding without its column) is final too,
                # and must surface as SSTFailure: only that makes the
                # commit pipeline abort the transaction from Committing.
                self.failed += 1
                raise SSTFailure(txn_id, f"backend: {exc}") from exc
            else:
                self.executed += 1
                return report
        self.failed += 1
        raise SSTFailure(
            txn_id,
            f"gave up after {report.attempts} attempts: {last_error}")

    def _apply(self, txn_id: str, attempt: int,
               writes: Sequence[StagedWrite], report: SSTReport) -> None:
        """One ACID attempt on the backend's serialized write path."""
        written = 0
        deleted = 0
        skipped = 0
        sst_id = f"sst:{txn_id}#{attempt}"
        with self.backend.begin(sst_id, write=True) as txn:
            for write in writes:
                if write.binding is None:
                    skipped += 1
                    continue
                binding = write.binding
                if write.delete:
                    deleted += txn.delete_by_key(binding.table, binding.key)
                    continue
                if not write.values:
                    continue  # pure READ: nothing to store
                columns = binding.member_columns
                changes = {}
                for member, value in write.values.items():
                    column = columns.get(member)
                    if column is None:
                        column = binding.column_for(member)  # raises
                    changes[column] = value
                # the update-vs-insert decision must be taken *through*
                # the open transaction, not around it: a catalog-level
                # probe sees neither this transaction's own earlier
                # writes nor (on a real backend) the current snapshot,
                # and a stale answer turns the upsert into a
                # duplicate-key failure.  The update itself is the
                # probe: it reports 0 rows for a key that is not there.
                if not txn.update_by_key(binding.table, binding.key,
                                         changes):
                    changes[self._key_column(binding.table)] = binding.key
                    txn.insert(binding.table, changes)
                written += 1
        report.rows_written = written
        report.rows_deleted = deleted
        report.skipped_unbound = skipped

    def _key_column(self, table: str) -> str:
        column = self.backend.key_column(table)
        if column is None:
            raise GTMError(
                f"SST bindings need a primary key on table {table!r}")
        return column
