"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems refine the hierarchy:
simulation-kernel errors, LDBS (schema / storage / locking) errors, and
GTM protocol errors are each grouped under their own intermediate class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-kernel errors."""


class ClockError(SimulationError):
    """An attempt to move the virtual clock backwards."""


class ProcessError(SimulationError):
    """A simulation process misbehaved (e.g. yielded an unknown command)."""


# ---------------------------------------------------------------------------
# LDBS: the relational substrate
# ---------------------------------------------------------------------------


class LDBSError(ReproError):
    """Base class for Local DataBase System errors."""


class SchemaError(LDBSError):
    """Invalid schema definition or a row that violates the schema."""


class CatalogError(LDBSError):
    """Unknown or duplicate table."""


class StorageError(LDBSError):
    """Row-level storage failure (missing row, duplicate key, ...)."""


class TransactionError(LDBSError):
    """Generic transaction-protocol violation at the LDBS layer."""


class TransactionAborted(TransactionError):
    """The transaction has been aborted and may not perform further work."""

    def __init__(self, txn_id: str, reason: str = "") -> None:
        self.txn_id = txn_id
        self.reason = reason
        message = f"transaction {txn_id!r} aborted"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)


class LockError(TransactionError):
    """Base class for lock-manager failures."""


class ConstraintViolation(LDBSError):
    """An integrity constraint was violated by a write or a commit."""

    def __init__(self, constraint: str, detail: str = "") -> None:
        self.constraint = constraint
        self.detail = detail
        message = f"constraint {constraint!r} violated"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class BackendError(LDBSError):
    """A pluggable LDBS backend failed outside the transaction protocol
    (connection loss, malformed DDL, backend-specific misuse)."""


class BackendConflictError(LockError):
    """A backend transaction lost a serialization conflict and was (or
    must be) rolled back — the ``TransactionRollbackError`` of the
    libres design, or SQLite's ``database is locked`` under
    ``BEGIN IMMEDIATE``.  Transient by definition: the SST executor's
    bounded retry loop re-runs the whole attempt."""


# ---------------------------------------------------------------------------
# GTM: the paper's middleware
# ---------------------------------------------------------------------------


class GTMError(ReproError):
    """Base class for Global Transaction Manager protocol errors."""


class ProtocolError(GTMError):
    """An event arrived whose preconditions (Algorithms 1-11) do not hold."""

    def __init__(self, event: str, reason: str) -> None:
        self.event = event
        self.reason = reason
        super().__init__(f"precondition failed for {event}: {reason}")


class IllegalTransition(GTMError):
    """A transaction state machine was asked to take a forbidden edge."""

    def __init__(self, txn_id: str, source: str, target: str) -> None:
        self.txn_id = txn_id
        self.source = source
        self.target = target
        super().__init__(
            f"transaction {txn_id!r}: illegal transition {source} -> {target}"
        )


class IncompatibleOperations(GTMError):
    """Two operation classes that must commute do not."""


class ReconciliationError(GTMError):
    """A reconciliation algorithm could not produce a final value."""


class SSTFailure(GTMError):
    """A Secure System Transaction failed while applying to the LDBS."""

    def __init__(self, txn_id: str, reason: str = "") -> None:
        self.txn_id = txn_id
        self.reason = reason
        message = f"SST for transaction {txn_id!r} failed"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)


class SessionError(GTMError):
    """Base class for wire-service session-protocol errors.

    Session failures live under :class:`GTMError` deliberately: the
    wire protocol maps *every* failure — core protocol violations and
    session-layer ones alike — onto one error-frame taxonomy (one
    exception class, one frame code; see
    :mod:`repro.service.protocol`).
    """


class UnknownToken(SessionError):
    """A reconnect presented a session token the server never issued."""

    def __init__(self, token: str) -> None:
        self.token = token
        super().__init__(f"unknown session token {token!r}")


class TokenInUse(SessionError):
    """A second connection presented a token with a live connection."""

    def __init__(self, token: str) -> None:
        self.token = token
        super().__init__(
            f"session token {token!r} already has a live connection")


class SessionExpired(SessionError):
    """A reconnect arrived after the BTO timeout aborted the session.

    Carries the transactions the timeout aborted so the reconnecting
    client learns which work it lost.
    """

    def __init__(self, token: str, aborted: tuple[str, ...] = ()) -> None:
        self.token = token
        self.aborted = tuple(aborted)
        detail = f"; aborted: {', '.join(aborted)}" if aborted else ""
        super().__init__(
            f"session {token!r} expired after BTO timeout{detail}")


class WireFormatError(GTMError):
    """A frame could not be parsed or failed wire-schema validation."""


# ---------------------------------------------------------------------------
# Workload / bench harness
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """Invalid workload specification."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured or failed."""
