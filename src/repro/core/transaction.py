"""The global state of a GTM transaction (paper Section IV).

"The global state of a given transaction A is defined by the following
information: A_state ...; A_temp contains, for each object X accessed by
the transaction[, the virtual data] the transaction operations will be
operating [on]; A_t_sleep contains the time in which the transaction has
become sleeping; A_t_wait contains, for each object X, the arrival time
of the transaction in the related object wait-queue."
"""

from __future__ import annotations

from typing import Any

from repro.core.opclass import Invocation
from repro.core.states import StateMachine, TransactionState


class GTMTransaction(StateMachine):
    """One transaction as the GTM sees it.

    A_state is the inherited :class:`~repro.core.states.StateMachine`
    (``state``, ``history``, ``transition``, ``is_in``): the transaction
    *is* its state machine, so a state test reads one attribute.
    """

    # Flattened hot record: thousands are created per campaign and every
    # admission/commit step reads several fields, so no per-instance
    # __dict__.
    __slots__ = ("begin_time", "priority", "temp", "operations", "t_sleep",
                 "t_wait", "involved", "end_time")

    def __init__(self, txn_id: str, begin_time: float = 0.0,
                 priority: int = 0) -> None:
        super().__init__(txn_id)
        self.begin_time = begin_time
        #: Starvation-mitigation hook (Section VII): larger wins ties.
        self.priority = priority
        #: A_temp — per (object, member) virtual values.
        self.temp: dict[tuple[str, str], Any] = {}
        #: The granted invocation per object and data member (at most
        #: one pending invocation of a single member at any time).
        self.operations: dict[str, dict[str, Invocation]] = {}
        #: A_t_sleep — when the transaction went to sleep (⊥ = None).
        self.t_sleep: float | None = None
        #: A_t_wait — per-object arrival time in the object's wait queue.
        self.t_wait: dict[str, float] = {}
        #: Objects this transaction ever obtained a grant on or waited
        #: for ("X involved in A execution" in the algorithms).
        self.involved: set[str] = set()
        #: Completion timestamps for metrics.
        self.end_time: float | None = None

    # -- state --------------------------------------------------------------

    @property
    def state_history(self) -> tuple[TransactionState, ...]:
        return tuple(self.history)

    # -- virtual data --------------------------------------------------------

    def temp_value(self, object_name: str, member: str = "value") -> Any:
        """A_temp for one object member (KeyError if not granted)."""
        return self.temp[(object_name, member)]

    def set_temp(self, object_name: str, member: str, value: Any) -> None:
        self.temp[(object_name, member)] = value

    def clear_temp(self, object_name: str) -> None:
        """A_temp^X = ⊥ for every member of ``object_name``."""
        for key in [k for k in self.temp if k[0] == object_name]:
            del self.temp[key]

    def clear_all_temp(self) -> None:
        self.temp.clear()

    # -- bookkeeping -----------------------------------------------------------

    def record_wait(self, object_name: str, now: float) -> None:
        self.t_wait[object_name] = now
        self.involved.add(object_name)

    def clear_wait(self, object_name: str | None = None) -> None:
        """A_t_wait = ⊥ (for one object, or entirely)."""
        if object_name is None:
            self.t_wait.clear()
        else:
            self.t_wait.pop(object_name, None)

    def finish(self, target: TransactionState, now: float) -> None:
        """Terminal bookkeeping shared by the commit and abort paths:
        transition, clear A_t_wait / A_t_sleep / A_temp, stamp end_time."""
        self.transition(target)
        self.t_wait.clear()
        self.t_sleep = None
        self.end_time = now
        self.clear_all_temp()

    def __repr__(self) -> str:
        return (f"<GTMTransaction {self.txn_id!r} {self.state.value} "
                f"objects={sorted(self.involved)}>")
