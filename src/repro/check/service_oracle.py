"""Verdict layer for service-fuzzer episodes.

The GTM-level oracle and invariant sweep (:mod:`repro.check.oracle`,
:mod:`repro.check.invariants`) answer "did the scheduler serialize
correctly?".  A service episode has a second correctness surface the
core checks cannot see: the *wire contract* between `GTMService` and
its clients — request-id correlation, welcome-first framing, outcome
frames agreeing with the commit order — and the service's own
bookkeeping (`_pending_ops`, `_pending_commits`, `_txn_session`,
session residue), which must be empty of stranded state whenever the
episode quiesces.

The sweep runs in two stages around :meth:`GTMService.shutdown`:

1. **pre-shutdown** — bookkeeping and transcript checks against the
   quiesced-but-still-open service, so stranded correlation state is
   caught *before* the graceful shutdown aborts (and thereby cleans
   up after) the transactions that carried it;
2. **post-shutdown** — the regular object/quiescence invariant sweep;
   the fuzzer then runs the serializability oracle
   (``check_episode(record_gtm(service.gtm))``) over the recorded
   history.  When the episode retires finished transactions the
   commit-order residency check is skipped (retirement pops them from
   the registry by design); everything else still applies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.check.invariants import (
    _object_invariants,
    _quiescence_invariants,
    check_episode_invariants,
)
from repro.core.states import TransactionState
from repro.service.session import SessionState

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.core import GTMService

_TS = TransactionState

#: Transcript entry: (virtual time, connection serial, frame).
TranscriptEntry = tuple[float, int, dict[str, Any]]
Transcripts = dict[str, list[TranscriptEntry]]

#: Reply/push types that close out a ``queued`` request id.
_RESOLVING_TYPES = frozenset({"granted", "error", "aborted"})


def check_service_state(service: "GTMService",
                        bto_timeout: float | None) -> list[str]:
    """Pre-shutdown sweep: no stranded correlation state at quiescence.

    "Quiescence" here means the driving engine ran out of events while
    sessions may still be open — clients are allowed to leave
    transactions ACTIVE, but the service must not be holding
    correlation state that no future event can ever resolve.
    """
    violations: list[str] = []
    gtm = service.gtm

    # A queued-op request id is resolvable only while its transaction
    # is WAITING (the grant pops it) or SLEEPING (the reconnect
    # re-polices it).  ACTIVE means every grant already happened; a
    # terminal or missing transaction will never produce one.
    for txn_id in sorted(service._pending_ops):
        txn = gtm.transactions.get(txn_id)
        if txn is not None and txn.is_in(_TS.WAITING, _TS.SLEEPING):
            continue
        state = "gone" if txn is None else txn.state.value
        for (obj, member), fids in sorted(
                service._pending_ops[txn_id].items()):
            violations.append(
                f"service: stranded queued-op ids {fids!r} for txn "
                f"{txn_id!r} ({state}) on {obj}.{member}")

    for txn_id in sorted(service._pending_commits):
        txn = gtm.transactions.get(txn_id)
        if txn is None or not txn.is_in(_TS.COMMITTING):
            state = "gone" if txn is None else txn.state.value
            violations.append(
                f"service: stranded pending commit for txn {txn_id!r} "
                f"({state})")
        elif gtm.commit_ready(txn_id):
            violations.append(
                f"service: completable deferred commit {txn_id!r} "
                f"left unfinished at quiescence")

    for txn_id in sorted(service._txn_session):
        txn = gtm.transactions.get(txn_id)
        if txn is None or txn.state.terminal:
            state = "gone" if txn is None else txn.state.value
            violations.append(
                f"service: _txn_session holds {state} txn {txn_id!r}")

    for session in sorted(service.sessions.values(),
                          key=lambda s: s.token):
        if (session.state is SessionState.DETACHED
                and bto_timeout is not None):
            violations.append(
                f"session {session.token}: detached at quiescence with "
                f"a BTO configured (the expiry timer never fired)")
        if (session.bto_timer is not None
                and session.state is not SessionState.DETACHED):
            violations.append(
                f"session {session.token}: BTO timer armed while "
                f"{session.state.value}")
        for txn_id in sorted(session.txns):
            txn = gtm.transactions.get(txn_id)
            if txn is None or txn.state.terminal:
                state = "gone" if txn is None else txn.state.value
                violations.append(
                    f"session {session.token}: txns residue "
                    f"{txn_id!r} ({state})")
            elif session.state in (SessionState.EXPIRED,
                                   SessionState.CLOSED):
                violations.append(
                    f"session {session.token}: {session.state.value} "
                    f"but txn {txn_id!r} still "
                    f"{txn.state.value}")
    if service.config.retire_finished:
        finished = [s.token for s in service.sessions.values()
                    if s.state in (SessionState.EXPIRED,
                                   SessionState.CLOSED)]
        if finished:
            violations.append(
                f"service: retire_finished set but finished sessions "
                f"not purged: {sorted(finished)}")
    return violations


def check_transcripts(service: "GTMService",
                      transcripts: Transcripts) -> list[str]:
    """Wire-contract checks over every client's frame transcript."""
    violations: list[str] = []
    history = service.gtm.history
    if history.folded:
        # A folded transaction left the commit order: its 'committed'
        # frame would read as an outcome the GTM never had.  Episodes
        # stay far below the fold threshold, so this cannot happen.
        violations.append(
            f"service: the operation log folded {history.folded} "
            f"committed transactions; outcome frames need the whole "
            f"commit order")
    commit_order = set(history.commit_order)

    def outcome_check(client: str, txn: Any, ftype: str) -> None:
        if not isinstance(txn, str):
            return
        if ftype == "committed" and txn not in commit_order:
            violations.append(
                f"{client}: 'committed' frame for {txn!r} but it is "
                f"not in the commit order")
        elif ftype == "aborted" and txn in commit_order:
            violations.append(
                f"{client}: 'aborted' frame for {txn!r} but it "
                f"committed")

    for client in sorted(transcripts):
        entries = transcripts[client]
        by_conn: dict[int, list[dict[str, Any]]] = {}
        for _when, serial, frame in entries:
            by_conn.setdefault(serial, []).append(frame)
        for serial in sorted(by_conn):
            frames = by_conn[serial]
            if frames[0]["type"] not in ("welcome", "error"):
                violations.append(
                    f"{client}#conn{serial}: first frame is "
                    f"{frames[0]['type']!r}, not welcome/error")
            closed_at = next((i for i, f in enumerate(frames)
                              if f["type"] == "goodbye"), None)
            if closed_at is not None and closed_at != len(frames) - 1:
                violations.append(
                    f"{client}#conn{serial}: "
                    f"{len(frames) - 1 - closed_at} frame(s) delivered "
                    f"after goodbye")

        # request-id correlation: a 'queued' reply promises exactly one
        # later resolution (granted / error / aborted) for that id.
        queued: dict[Any, list[Any]] = {}  # re -> [txn, resolved]
        for _when, _serial, frame in entries:
            ftype = frame["type"]
            re = frame.get("re")
            if ftype == "queued" and re is not None:
                if re in queued:
                    violations.append(
                        f"{client}: request id {re!r} queued twice")
                queued[re] = [frame.get("txn"), False]
            elif ftype in _RESOLVING_TYPES and re in queued:
                if queued[re][1]:
                    violations.append(
                        f"{client}: request id {re!r} resolved twice")
                queued[re][1] = True
            if ftype in ("committed", "aborted"):
                outcome_check(client, frame.get("txn"), ftype)
            elif ftype == "welcome":
                for txn, outcome in sorted(
                        (frame.get("finished") or {}).items()):
                    outcome_check(client, txn, outcome)
        for re in sorted(queued, key=repr):
            txn, resolved = queued[re]
            if not resolved and txn in commit_order:
                violations.append(
                    f"{client}: queued op {re!r} of {txn!r} never got "
                    f"its grant reply, yet the transaction committed "
                    f"(lost in-flight frame)")
    return violations


def check_service_gtm(service: "GTMService",
                      retire_finished: bool) -> list[str]:
    """Post-shutdown GTM sweep, adjusted for retirement semantics."""
    gtm = service.gtm
    if retire_finished:
        # Retirement pops terminal transactions from the registry, so
        # the commit-order residency check cannot apply; the object
        # and quiescence sweeps still must hold.
        return _object_invariants(gtm) + _quiescence_invariants(gtm)
    return check_episode_invariants(gtm)
