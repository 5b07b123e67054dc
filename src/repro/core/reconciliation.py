"""Reconciliation algorithms (paper Eq. 1 and Eq. 2).

Compatible transactions operate on private virtual copies of an object
(``A_temp``).  When a transaction requests a commit, the GTM computes the
value to store from three ingredients:

- ``x_read`` — the permanent value the transaction saw when it first
  obtained the grant;
- ``a_temp`` — the transaction's current virtual value;
- ``x_permanent`` — the *current* permanent value, which may already
  include commits from concurrent compatible transactions.

Eq. (1), additive classes::

    X_new = A_temp + X_permanent - X_read

Eq. (2), multiplicative classes::

    X_new = (A_temp / X_read) * X_permanent

Assignment has no reconciler (it is incompatible with every update class,
so at commit time its virtual value is stored verbatim); READ writes
nothing.  The registry maps each operation class to its reconciler and is
the single extension point for richer ADTs (the Weihl framework the paper
builds on).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Protocol

from repro.errors import GTMError, ReconciliationError
from repro.core.opclass import OperationClass


class Reconciler(Protocol):
    """ρ(X_read, A_temp, X_permanent) -> X_new (paper Algorithm 3)."""

    name: str

    def reconcile(self, x_read: Any, a_temp: Any, x_permanent: Any) -> Any:
        """Compute the final value to store at commit."""
        ...


class IdentityReconciler:
    """Stores the virtual value verbatim.

    Used for ``UPDATE_ASSIGN``: assignment is incompatible with every
    other update class, so when it commits no concurrent compatible
    update can have moved ``X_permanent`` — the virtual value is final.
    """

    name = "identity"

    def reconcile(self, x_read: Any, a_temp: Any, x_permanent: Any) -> Any:
        return a_temp


class AdditiveReconciler:
    """Paper Eq. (1): ``X_new = A_temp + X_permanent - X_read``.

    Folds this transaction's *delta* onto the latest permanent value, so
    concurrent additive commits compose in any order (Table II's example:
    100 →(A:+4) 104 →(B:+2) 106).
    """

    name = "additive"

    def reconcile(self, x_read: Any, a_temp: Any, x_permanent: Any) -> Any:
        try:
            return a_temp + x_permanent - x_read
        except TypeError as exc:
            raise ReconciliationError(
                f"additive reconciliation needs numeric values, got "
                f"read={x_read!r} temp={a_temp!r} perm={x_permanent!r}"
            ) from exc


class MultiplicativeReconciler:
    """Paper Eq. (2): ``X_new = (A_temp / X_read) * X_permanent``.

    Folds this transaction's *factor* onto the latest permanent value.
    Requires ``X_read != 0`` — the paper's mul/div class assumes non-zero
    operands, and a zero snapshot makes the factor undefined.

    The factor ``A_temp / X_read`` is computed with
    :class:`fractions.Fraction` so that integer stock counters stay
    integers: with true division, ``(200 / 100) * 100`` is ``200.0`` and
    every multiplicative commit silently converts the column to float
    (Table II-style traces then drift through repeated rounding).  A
    result that is exactly integral is returned as ``int`` when every
    input was an ``int``; otherwise the float value is returned.
    """

    name = "multiplicative"

    def reconcile(self, x_read: Any, a_temp: Any, x_permanent: Any) -> Any:
        if x_read == 0:
            raise ReconciliationError(
                "multiplicative reconciliation undefined for X_read == 0")
        if type(x_read) is int and type(a_temp) is int \
                and type(x_permanent) is int:
            # The Fraction path below, in integers: exact when the
            # division is, and the same correctly rounded float when not
            # (true division of ints rounds the exact quotient once).
            product = a_temp * x_permanent
            quotient, remainder = divmod(product, x_read)
            return quotient if remainder == 0 else product / x_read
        try:
            exact = (Fraction(a_temp) / Fraction(x_read)) \
                * Fraction(x_permanent)
        except (TypeError, ValueError) as exc:
            raise ReconciliationError(
                f"multiplicative reconciliation needs numeric values, got "
                f"read={x_read!r} temp={a_temp!r} perm={x_permanent!r}"
            ) from exc
        all_int = all(isinstance(v, int) and not isinstance(v, bool)
                      for v in (x_read, a_temp, x_permanent))
        if all_int and exact.denominator == 1:
            return int(exact)
        return float(exact)


class ReconcilerRegistry:
    """Operation class -> reconciler mapping (Definition 1, condition 3).

    A class without a registered reconciler cannot share an object with
    concurrent updates — which is exactly why it must be incompatible
    with every update class in the matrix.  :meth:`validate_against`
    checks that coupling.
    """

    def __init__(self) -> None:
        #: keyed by ``op_class.bit``: hashing the member itself runs
        #: ``Enum.__hash__``, a Python frame per lookup.
        self._by_bit: dict[int, Reconciler] = {}

    def register(self, op_class: OperationClass,
                 reconciler: Reconciler) -> None:
        self._by_bit[op_class.bit] = reconciler

    @staticmethod
    def _unregistered(op_class: OperationClass) -> ReconciliationError:
        return ReconciliationError(
            f"no reconciler registered for {op_class.value!r}")

    def for_class(self, op_class: OperationClass) -> Reconciler:
        reconciler = self._by_bit.get(op_class.bit)
        if reconciler is None:
            raise self._unregistered(op_class)
        return reconciler

    def has(self, op_class: OperationClass) -> bool:
        return op_class.bit in self._by_bit

    def reconcile(self, op_class: OperationClass, x_read: Any, a_temp: Any,
                  x_permanent: Any) -> Any:
        """Apply ρ for the given class (:meth:`for_class`, inlined: this
        runs once per committed update)."""
        reconciler = self._by_bit.get(op_class.bit)
        if reconciler is None:
            raise self._unregistered(op_class)
        return reconciler.reconcile(x_read, a_temp, x_permanent)

    def validate_against(self, matrix: "CompatibilityMatrix") -> None:
        """Check Definition 1 condition 3 against a compatibility matrix.

        Every *update* class compatible with itself must have a
        reconciler: two concurrent same-class updates can only merge if ρ
        exists.
        """
        from repro.core.compatibility import CompatibilityMatrix  # noqa: F811
        if not isinstance(matrix, CompatibilityMatrix):
            # not an assert: this guards GTM startup and must survive -O.
            raise GTMError(
                f"validate_against needs a CompatibilityMatrix, got "
                f"{type(matrix).__name__}")
        for op_class in OperationClass:
            if not op_class.is_update:
                continue
            if matrix.compatible_classes(op_class, op_class) and \
                    not self.has(op_class):
                raise ReconciliationError(
                    f"{op_class.value!r} commutes with itself but has no "
                    f"reconciler — Definition 1 condition 3 violated")


def default_registry() -> ReconcilerRegistry:
    """The paper's registry: Eq. (1), Eq. (2), identity for assignment."""
    registry = ReconcilerRegistry()
    registry.register(OperationClass.UPDATE_ADDSUB, AdditiveReconciler())
    registry.register(OperationClass.UPDATE_MULDIV,
                      MultiplicativeReconciler())
    registry.register(OperationClass.UPDATE_ASSIGN, IdentityReconciler())
    return registry
