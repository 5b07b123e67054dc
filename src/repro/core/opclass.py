"""Operation classes and invocations (paper Section IV).

The paper assumes "the operation semantics in a transaction is a-priori
known, so that we can associate to the transactions a set of classes of
operation".  Table I distinguishes:

- ``READ``;
- ``INSERT`` / ``DELETE`` (of whole objects);
- ``UPDATE`` *with assignment* (``X = c``);
- ``UPDATE`` *with add/sub* (``X = X ± c``);
- ``UPDATE`` *with mul/div* (``X = X · c`` or ``X = X / c``, ``c ≠ 0``).

An :class:`Invocation` is the ⟨op, X, A⟩ event payload: an operation of
one class by one transaction on one *data member* of one object, with the
parameters needed to apply it to the transaction's virtual copy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import GTMError


class OperationClass(enum.Enum):
    """Semantic classes of transaction operations (paper Table I).

    Each member is an interned singleton carrying precomputed plain
    attributes — ``bit``, ``mask``, ``is_whole_object``, ``is_update``,
    ``mutates`` — set once by the module loop below.  They used to be
    properties; the admission hot path reads them per request, and a
    plain attribute load is ~5× cheaper than a property call.
    """

    READ = "read"
    INSERT = "insert"
    DELETE = "delete"
    UPDATE_ASSIGN = "update-assign"
    UPDATE_ADDSUB = "update-addsub"
    UPDATE_MULDIV = "update-muldiv"

    def apply(self, value: Any, operand: Any) -> Any:
        """Apply one operation of this class to a virtual value.

        ``operand`` is the constant ``c`` of the paper's examples; READ
        ignores it and returns the value unchanged.
        """
        if self is OperationClass.READ:
            return value
        if self is OperationClass.UPDATE_ASSIGN:
            return operand
        if self is OperationClass.UPDATE_ADDSUB:
            return value + operand
        if self is OperationClass.UPDATE_MULDIV:
            if operand == 0:
                raise GTMError("multiplicative operand must be non-zero")
            return value * operand
        raise GTMError(
            f"operation class {self.value!r} does not apply to a scalar "
            f"value; INSERT/DELETE act on whole objects")


#: Number of operation classes (width of the occupancy bitmasks).
OP_CLASS_COUNT = len(OperationClass)

# Stable bit position per class (definition order).  The bitmask
# conflict kernel in repro.core.compatibility / repro.core.conflicts
# indexes occupancy and conflict masks by these bits; they live only in
# memory (workload files record a class by its value, never its bit).
# ``mask``/``is_whole_object``/``is_update``/``mutates`` ride along as
# precomputed plain attributes (see the class docstring).
for _bit, _op_class in enumerate(OperationClass):
    _op_class.bit = _bit
    _op_class.mask = 1 << _bit
    _op_class.is_whole_object = _op_class.name in ("INSERT", "DELETE")
    _op_class.is_update = _op_class.name in (
        "UPDATE_ASSIGN", "UPDATE_ADDSUB", "UPDATE_MULDIV")
    _op_class.mutates = _op_class.name != "READ"
del _bit, _op_class

#: Bitmask covering the whole-object classes (INSERT | DELETE).
WHOLE_OBJECT_MASK = ((1 << OperationClass.INSERT.bit)
                     | (1 << OperationClass.DELETE.bit))

#: The exact types of a number: a member value and an update operand.
#: ``bool`` is not one, although it subclasses ``int``.
NUMBER_TYPES = frozenset({int, float})

#: Each class's operand domain, as the exact types its operand may
#: have.  READ and DELETE ignore theirs, so it is absent or a number;
#: INSERT carries an optional mapping of member values, each a number
#: (:func:`~repro.service.protocol.build_invocation` checks the
#: values); every update takes a number.  A value outside the domain
#: would be granted and then fail in ``apply`` or at reconciliation.
for _op_class in OperationClass:
    if _op_class.is_update:
        _op_class.operand_types = NUMBER_TYPES
    elif _op_class is OperationClass.INSERT:
        _op_class.operand_types = frozenset({type(None), dict})
    else:
        _op_class.operand_types = NUMBER_TYPES | {type(None)}
del _op_class


@dataclass(frozen=True, slots=True)
class Invocation:
    """The payload of an ⟨op, X, A⟩ invocation event.

    ``member`` identifies the object data member the operation touches
    (``"value"`` for atomic objects).  ``operand`` is the constant applied
    by update classes; for a subtraction ``X = X - 1`` the class is
    ``UPDATE_ADDSUB`` with ``operand=-1``, for a division ``X = X / 2``
    the class is ``UPDATE_MULDIV`` with ``operand=0.5``.
    """

    op_class: OperationClass
    member: str = "value"
    operand: Any = None

    def __post_init__(self) -> None:
        if self.op_class is OperationClass.UPDATE_MULDIV and \
                self.operand in (0, 0.0):
            raise GTMError("UPDATE_MULDIV operand must be non-zero")
        if self.op_class.is_update and self.operand is None:
            raise GTMError(
                f"{self.op_class.value} invocation requires an operand")

    def apply(self, value: Any) -> Any:
        """Apply this invocation to a virtual value."""
        return self.op_class.apply(value, self.operand)

    def describe(self) -> str:
        symbol = {
            OperationClass.READ: "read X",
            OperationClass.INSERT: "insert X",
            OperationClass.DELETE: "delete X",
            OperationClass.UPDATE_ASSIGN: f"X = {self.operand!r}",
            OperationClass.UPDATE_ADDSUB: f"X = X + {self.operand!r}",
            OperationClass.UPDATE_MULDIV: f"X = X * {self.operand!r}",
        }[self.op_class]
        if self.member != "value":
            symbol = symbol.replace("X", f"X.{self.member}")
        return symbol


def read(member: str = "value") -> Invocation:
    """Shorthand for a READ invocation."""
    return Invocation(OperationClass.READ, member=member)


def add(amount: Any, member: str = "value") -> Invocation:
    """Shorthand for ``X = X + amount`` (use a negative amount to subtract)."""
    return Invocation(OperationClass.UPDATE_ADDSUB, member=member,
                      operand=amount)


def subtract(amount: Any, member: str = "value") -> Invocation:
    """Shorthand for ``X = X - amount``."""
    return Invocation(OperationClass.UPDATE_ADDSUB, member=member,
                      operand=-amount)


def assign(value: Any, member: str = "value") -> Invocation:
    """Shorthand for ``X = value``."""
    return Invocation(OperationClass.UPDATE_ASSIGN, member=member,
                      operand=value)


def multiply(factor: Any, member: str = "value") -> Invocation:
    """Shorthand for ``X = X * factor`` (use 1/f to divide)."""
    return Invocation(OperationClass.UPDATE_MULDIV, member=member,
                      operand=factor)


def insert_object(values: Any = None) -> Invocation:
    """Shorthand for a whole-object INSERT.

    ``values`` is a mapping of member values passed at apply time (it
    rides on the operand); INSERT is exclusive against every class.
    """
    return Invocation(OperationClass.INSERT, operand=values)


def delete_object() -> Invocation:
    """Shorthand for a whole-object DELETE (exclusive against all)."""
    return Invocation(OperationClass.DELETE)
