"""Value-based concurrency throttling (paper Section VII).

"A possible solution for this problem [a high rate of reconciliation
aborts against integrity constraints] is to limit the number of possible
concurrent and compatible transactions on a given resource, in function
of the current value X of the resource."

The intuition, on the motivating example: if ``Flight.FreeTickets`` is 3
it is pointless (and abort-prone) to let ten concurrent subtractors in —
at most three can ever commit against the ``>= 0`` constraint.

:class:`ValueThrottle` implements that limit for additive decrements; a
custom ``limit_fn`` generalizes it to any value-dependent cap.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.core.objects import ManagedObject
from repro.core.opclass import Invocation, OperationClass


def _default_limit(value: Any) -> int:
    """Cap concurrent compatible writers at the current integer value.

    Non-numeric or negative values yield 0 extra admissions; infinite
    (None) means unlimited.
    """
    if value is None:
        return 0
    try:
        return max(0, int(math.floor(value)))
    except (TypeError, ValueError):
        return 0


class ValueThrottle:
    """Limits concurrent compatible transactions by resource value.

    The throttle only constrains *decrementing* additive updates (the
    constraint-threatening direction); reads, increments and everything
    else pass through.  When the number of already-granted decrementers
    reaches ``limit_fn(X_permanent)``, further decrementers are queued
    instead of granted.
    """

    def __init__(self,
                 limit_fn: Callable[[Any], int] = _default_limit) -> None:
        self.limit_fn = limit_fn
        self.denials = 0

    def _is_decrement(self, invocation: Invocation) -> bool:
        return (invocation.op_class is OperationClass.UPDATE_ADDSUB
                and isinstance(invocation.operand, (int, float))
                and invocation.operand < 0)

    def admits(self, obj: ManagedObject, invocation: Invocation) -> bool:
        """May this invocation join the object's pending set now?  A
        refusal is counted in ``denials``."""
        admitted = self.would_admit(obj, invocation)
        if not admitted:
            self.denials += 1
        return admitted

    def would_admit(self, obj: ManagedObject,
                    invocation: Invocation) -> bool:
        """:meth:`admits`, uncounted (what the progress check asks)."""
        if not self._is_decrement(invocation):
            return True
        member = invocation.member
        active_decrements = sum(
            1 for txn_id, ops in obj.pending.items()
            if txn_id not in obj.sleeping
            and any(op.member == member and self._is_decrement(op)
                    for op in ops.values()))
        return active_decrements < self.limit_fn(obj.permanent.get(member))


class NoThrottle:
    """The default: admit everything (paper's base model)."""

    denials = 0

    def admits(self, obj: ManagedObject, invocation: Invocation) -> bool:
        return True

    would_admit = admits
