"""Transaction operating states and the legal transition relation.

Paper Section IV: "the set of possible states that a transaction can
assume is: Active, Waiting, Sleeping, Committing, Aborting, Committed,
Aborted".  The transition edges below are those exercised by Algorithms
1-11; :class:`StateMachine` enforces them so that a protocol bug surfaces
as :class:`~repro.errors.IllegalTransition` instead of silent corruption.
"""

from __future__ import annotations

import enum

from repro.errors import IllegalTransition


class TransactionState(enum.Enum):
    """Operating states of a GTM transaction (paper Section IV).

    Each member carries ``successors``, its legal next states (set by
    the module loop below the transition table).
    """

    ACTIVE = "active"
    WAITING = "waiting"
    SLEEPING = "sleeping"
    COMMITTING = "committing"
    ABORTING = "aborting"
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def terminal(self) -> bool:
        return self in (TransactionState.COMMITTED,
                        TransactionState.ABORTED)


_S = TransactionState

#: Legal edges, derived from the pre/postconditions of Algorithms 1-11:
#: - Alg. 2: ACTIVE -> WAITING on an incompatible invocation;
#: - Alg. 3: ACTIVE -> COMMITTING on the first local commit;
#: - Alg. 4: COMMITTING -> COMMITTED at global commit;
#: - Alg. 5: ACTIVE/WAITING -> ABORTING on a local abort;
#: - Alg. 6: ABORTING -> ABORTED at global abort;
#: - Alg. 8: ACTIVE/WAITING -> SLEEPING when the sleep oracle fires;
#: - Alg. 9 (conflict case): SLEEPING -> ABORTED directly;
#: - Alg. 10: SLEEPING -> ACTIVE at global awakening;
#: - Alg. 11: WAITING -> ACTIVE when the unlock grants the waiter.
_ALLOWED: dict[TransactionState, tuple[TransactionState, ...]] = {
    _S.ACTIVE: (_S.WAITING, _S.SLEEPING, _S.COMMITTING, _S.ABORTING),
    _S.WAITING: (_S.ACTIVE, _S.SLEEPING, _S.ABORTING),
    _S.SLEEPING: (_S.ACTIVE, _S.ABORTED, _S.ABORTING),
    _S.COMMITTING: (_S.COMMITTED, _S.ABORTING),
    _S.ABORTING: (_S.ABORTED,),
    _S.COMMITTED: (),
    _S.ABORTED: (),
}

# Each state carries its legal successors as a plain tuple attribute:
# the test on every transition is then identity comparisons in C, where
# a dict or frozenset lookup hashes Enum members through
# ``Enum.__hash__`` — a Python-level call, twice per transition.
for _source, _targets in _ALLOWED.items():
    _source.successors = _targets
del _source, _targets


def can_transition(source: TransactionState,
                   target: TransactionState) -> bool:
    """True when ``source -> target`` is a legal edge."""
    return target in source.successors


class StateMachine:
    """Holds one transaction's state and validates every transition.

    ``state`` is a plain attribute: hot paths test it with ``is`` / ``in``
    directly; :meth:`is_in` is the readable form for the others.
    """

    __slots__ = ("txn_id", "state", "history")

    def __init__(self, txn_id: str,
                 initial: TransactionState = TransactionState.ACTIVE) -> None:
        self.txn_id = txn_id
        self.state = initial
        #: Every state ever entered, in order (useful for metrics/tests).
        self.history: list[TransactionState] = [initial]

    def transition(self, target: TransactionState) -> None:
        """Take an edge, or raise :class:`IllegalTransition`."""
        if target not in self.state.successors:
            raise IllegalTransition(self.txn_id, self.state.value,
                                    target.value)
        self.state = target
        self.history.append(target)

    def is_in(self, *states: TransactionState) -> bool:
        return self.state in states

    def __repr__(self) -> str:
        return f"<StateMachine {self.txn_id!r} {self.state.value}>"
