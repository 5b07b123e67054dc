"""Whole-object INSERT and DELETE invocations for the kernel tests.

The wire builds these through ``repro.service.protocol.build_invocation``;
the tests that drive the facade directly spell them here.
"""

from typing import Any

from repro.core.opclass import Invocation, OperationClass


def insert_object(values: Any = None) -> Invocation:
    """A whole-object INSERT.

    ``values`` is a mapping of member values passed at apply time (it
    rides on the operand); INSERT is exclusive against every class.
    """
    return Invocation(OperationClass.INSERT, operand=values)


def delete_object() -> Invocation:
    """A whole-object DELETE (exclusive against all)."""
    return Invocation(OperationClass.DELETE)
