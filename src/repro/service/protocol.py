"""The wire protocol: newline-delimited JSON frames and error codes.

One frame per line, one JSON object per frame, ``type`` selects the
verb.  The client vocabulary mirrors the paper's event alphabet —
⟨begin, A⟩, ⟨op, X, A⟩, ⟨commit, A⟩, ⟨abort, A⟩, ⟨sleep, A⟩,
⟨awake, A⟩ — plus the session verbs (``hello``/``bye``/``ping``) that
do not exist in the simulator because there a "connection" is a
scheduled event, not a socket.

Requests may carry a client-chosen ``id``; the direct response echoes
it as ``re``.  Frames pushed by the server on its own initiative (a
late grant, a deferred commit completing, a shutdown notice) carry no
``re``.

Every failure crosses the wire as one ``error`` frame whose ``code``
identifies exactly one exception class in the
:class:`~repro.errors.GTMError` taxonomy — the mapping is bijective
and round-trips (:func:`error_frame` / :func:`frame_to_exception`),
which the table-driven test in ``tests/service/test_protocol.py``
enforces for every public subclass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable

import orjson

from repro.errors import (
    GTMError,
    IllegalTransition,
    IncompatibleOperations,
    ProtocolError,
    ReconciliationError,
    SSTFailure,
    SessionError,
    SessionExpired,
    TokenInUse,
    UnknownToken,
    WireFormatError,
)
from repro.core.opclass import NUMBER_TYPES, Invocation, OperationClass

#: Hard cap on one encoded frame; longer lines are a protocol error
#: (and the receiving end enforces it before parsing).
MAX_FRAME_BYTES = 64 * 1024

#: Client-initiated frame types.
REQUEST_TYPES = frozenset({
    "hello", "begin", "op", "commit", "abort", "sleep", "awake",
    "bye", "ping",
})

#: Server-initiated frame types (responses and pushes).
RESPONSE_TYPES = frozenset({
    "welcome", "begun", "granted", "queued", "committed",
    "commit-pending", "aborted", "sleeping", "awoken", "goodbye",
    "pong", "shutdown", "error",
})

#: Wire op name -> operation class (the ``op`` field of an op frame).
OP_NAMES: dict[str, OperationClass] = {
    "read": OperationClass.READ,
    "insert": OperationClass.INSERT,
    "delete": OperationClass.DELETE,
    "assign": OperationClass.UPDATE_ASSIGN,
    "add": OperationClass.UPDATE_ADDSUB,
    "mul": OperationClass.UPDATE_MULDIV,
}


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------


#: The stdlib's compact UTF-8 encoder, whose spelling the wire keeps,
#: and the C encoder ``JSONEncoder.encode`` builds from it inside every
#: call, built once: it writes what orjson would spell differently.
#: No marker dict (the circular-reference check): frames are trees
#: this package builds from scalars and decoded JSON.  Without the C
#: accelerator the stdlib falls back to its Python encoder, and so
#: does this.
_encoder = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
if json.encoder.c_make_encoder is not None:
    _iterencode = json.encoder.c_make_encoder(
        None, _encoder.default, json.encoder.encode_basestring, None,
        _encoder.key_separator, _encoder.item_separator, False, False,
        True)
else:  # pragma: no cover - CPython ships the accelerator
    def _iterencode(frame: Any, _level: int) -> tuple[str]:
        return (_encoder.encode(frame),)

#: Top-level value types orjson spells as the stdlib does.  A float
#: does not qualify (``1e16`` for ``1e+16``, ``0.00001`` for
#: ``1e-05``, ``null`` for NaN and ±inf), nor does a container, which
#: could hold one.
_SAME_SPELLING = frozenset({str, int, bool, type(None)})


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one frame to its wire form (compact JSON + newline)."""
    data = None
    if _SAME_SPELLING.issuperset(map(type, frame.values())):
        try:
            data = orjson.dumps(frame)
        except orjson.JSONEncodeError:
            pass  # an int beyond 64 bits, a non-str key, a surrogate
    if data is None:
        data = "".join(_iterencode(frame, 0)).encode("utf-8")
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return data + b"\n"


#: orjson reads an integer outside [-2**63, 2**64) as a float, and any
#: such integer is a run of at least 19 digits (digits map to "0").
_DIGITS_AS_ZERO = bytes.maketrans(b"123456789", b"0" * 9)
_LONG_DIGIT_RUN = b"0" * 19
#: orjson reads a text of any depth; ``json.loads`` raises
#: RecursionError near the interpreter's recursion limit (1000 by
#: default), which :func:`decode_frame` turns into a WireFormatError.
#: Nesting *d* deep takes at least 2 *d* characters, so no line this
#: short nests deep enough to tell the two apart.
_SHALLOW_LINE_BYTES = 1024


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a frame dict, validating the envelope."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise WireFormatError(
                f"frame of {len(line)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit")
        data = line
    else:
        data = line.encode("utf-8", "surrogatepass")
    frame = None
    if (len(data) <= _SHALLOW_LINE_BYTES
            and _LONG_DIGIT_RUN not in data.translate(_DIGITS_AS_ZERO)):
        try:
            frame = orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    if frame is None:
        # What orjson refuses or would read differently goes the long
        # way: NaN, Infinity, 1e999, BOMs, UTF-16/32, lone surrogates,
        # trailing garbage, every malformed line, and the two guards
        # above, so what is accepted, what it decodes to and what each
        # error says stay exactly ``json.loads``'s.  One exception: a
        # line nested past the recursion limit, which ``json.loads``
        # answers with RecursionError, is a malformed frame like any
        # other, not a dead connection.
        try:
            frame = json.loads(line)
        except (ValueError, UnicodeDecodeError) as exc:
            raise WireFormatError(
                f"frame is not valid JSON: {exc}") from None
        except RecursionError:
            raise WireFormatError("frame nests too deep") from None
    if not isinstance(frame, dict):
        raise WireFormatError(
            f"frame must be a JSON object, got {type(frame).__name__}")
    frame_type = frame.get("type")
    if not isinstance(frame_type, str):
        raise WireFormatError("frame has no string 'type' field")
    return frame


def split_lines(data: bytes) -> tuple[list[bytes], bytes]:
    """Cut received bytes into the complete lines (newline dropped) and
    the unterminated rest, which the receiver keeps for the next call:
    one ``bytes.split``, whose last piece is that rest."""
    lines = data.split(b"\n")
    return lines, lines.pop()


#: Most ⟨op, member, operand⟩ shapes :func:`build_invocation` keeps
#: interned; past it, a new shape is built per frame.
INTERNED_INVOCATIONS = 1024
#: ⟨op name, member, operand⟩ -> the Invocation built and validated
#: the first time that shape arrived.  An Invocation is immutable, so
#: one table serves every service in the process and changes no
#: answer, only its cost.  Keyed by the op's name, whose hash is C (an
#: enum member's ``__hash__`` is a Python call).  Only ``None`` and
#: ``int`` operands: a float key would merge ``0.0`` with ``-0.0`` and
#: ``1`` with ``1.0``, and ``True`` with ``1`` (equal, hashed alike),
#: which the wire tells apart.  An int of 64 bits or more and a member
#: name over 64 characters are not kept, so no entry is one a frame
#: made kilobytes long.
_INTERNED: dict[tuple[str, str, int | None], Invocation] = {}
_INTERNED_INT_LIMIT = 1 << 63
_INTERNED_MEMBER_CHARS = 64


def build_invocation(frame: dict[str, Any]) -> Invocation:
    """Turn an ``op`` frame into an :class:`Invocation`.

    This is the one place an operand is checked against its class's
    domain (``OperationClass.operand_types``): an operand outside it,
    which the GTM would grant and then fail on in ``apply`` or at
    reconciliation, raises :class:`WireFormatError`.  A zero
    multiplier is in the domain and surfaces as the core's own
    :class:`~repro.errors.GTMError`; both end up as error frames, each
    under its own code.  An invocation is immutable, so a shape with a
    ``None`` or ``int`` operand that passed once is served from
    ``_INTERNED``; one that raised was never stored and raises again.
    """
    op_name = frame.get("op")
    op_class = OP_NAMES.get(op_name) if type(op_name) is str else None
    if op_class is None:
        raise WireFormatError(
            f"unknown op {op_name!r}; known: {sorted(OP_NAMES)}")
    member = frame.get("member", "value")
    if not isinstance(member, str):
        raise WireFormatError(f"op member must be a string: {member!r}")
    operand = frame.get("operand")
    kind = type(operand)
    key = None
    if ((operand is None or (kind is int and -_INTERNED_INT_LIMIT < operand
                             < _INTERNED_INT_LIMIT))
            and len(member) <= _INTERNED_MEMBER_CHARS):
        key = (op_name, member, operand)
        invocation = _INTERNED.get(key)
        if invocation is not None:
            return invocation
    if kind not in op_class.operand_types:
        raise WireFormatError(
            f"{op_name!r} operand out of its domain: {operand!r}")
    values = operand.values() if kind is dict else (operand,)
    if kind is dict and not NUMBER_TYPES.issuperset(map(type, values)):
        raise WireFormatError(
            f"{op_name!r} member values must be numbers: {operand!r}")
    # The codec takes what ``json.loads`` takes, NaN, Infinity and
    # 1e999 included; a value that compares unequal to itself, once
    # committed, is a lost update that never heals.
    for value in values:
        if type(value) is float and not isfinite(value):
            raise WireFormatError(
                f"op operand must be finite: {operand!r}")
    invocation = Invocation(op_class, member=member, operand=operand)
    if key is not None and len(_INTERNED) < INTERNED_INVOCATIONS:
        _INTERNED[key] = invocation
    return invocation


# ---------------------------------------------------------------------------
# the error-frame taxonomy: one exception class <-> one wire code
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorSpec:
    """Codec for one exception class: frame fields in both directions."""

    cls: type
    code: str
    fields: Callable[[BaseException], dict[str, Any]]
    build: Callable[[dict[str, Any]], BaseException]


def _message_spec(cls: type, code: str) -> ErrorSpec:
    """Spec for classes whose constructor takes the message string."""
    return ErrorSpec(
        cls, code,
        fields=lambda exc: {"message": str(exc)},
        build=lambda f: cls(f.get("message", "")))


#: The full bijection.  Order matters only for documentation; lookup
#: goes through the exact-class and exact-code maps below.
ERROR_SPECS: tuple[ErrorSpec, ...] = (
    _message_spec(GTMError, "gtm/error"),
    ErrorSpec(
        ProtocolError, "gtm/protocol",
        fields=lambda e: {"event": e.event, "reason": e.reason},
        build=lambda f: ProtocolError(f.get("event", "?"),
                                      f.get("reason", ""))),
    ErrorSpec(
        IllegalTransition, "gtm/illegal-transition",
        fields=lambda e: {"txn": e.txn_id, "source": e.source,
                          "target": e.target},
        build=lambda f: IllegalTransition(f.get("txn", "?"),
                                          f.get("source", "?"),
                                          f.get("target", "?"))),
    _message_spec(IncompatibleOperations, "gtm/incompatible-operations"),
    _message_spec(ReconciliationError, "gtm/reconciliation"),
    ErrorSpec(
        SSTFailure, "gtm/sst-failure",
        fields=lambda e: {"txn": e.txn_id, "reason": e.reason},
        build=lambda f: SSTFailure(f.get("txn", "?"),
                                   f.get("reason", ""))),
    _message_spec(SessionError, "session/error"),
    ErrorSpec(
        UnknownToken, "session/unknown-token",
        fields=lambda e: {"token": e.token},
        build=lambda f: UnknownToken(f.get("token", "?"))),
    ErrorSpec(
        TokenInUse, "session/token-in-use",
        fields=lambda e: {"token": e.token},
        build=lambda f: TokenInUse(f.get("token", "?"))),
    ErrorSpec(
        SessionExpired, "session/expired",
        fields=lambda e: {"token": e.token,
                          "aborted": list(e.aborted)},
        build=lambda f: SessionExpired(f.get("token", "?"),
                                       tuple(f.get("aborted", ())))),
    _message_spec(WireFormatError, "wire/malformed"),
)

_SPEC_BY_CLASS: dict[type, ErrorSpec] = {s.cls: s for s in ERROR_SPECS}
_SPEC_BY_CODE: dict[str, ErrorSpec] = {s.code: s for s in ERROR_SPECS}


def error_frame(exc: BaseException, *,
                re: Any = None, **extra: Any) -> dict[str, Any]:
    """Encode an exception as one ``error`` frame.

    An exception class without its own spec is encoded under its
    nearest registered ancestor's code (so a future subclass degrades
    gracefully instead of crashing the connection).
    """
    spec = None
    for cls in type(exc).__mro__:
        spec = _SPEC_BY_CLASS.get(cls)
        if spec is not None:
            break
    frame: dict[str, Any] = {"type": "error"}
    if re is not None:
        frame["re"] = re
    if spec is None:
        frame["code"] = "gtm/error"
        frame["message"] = str(exc)
    else:
        frame["code"] = spec.code
        frame["message"] = str(exc)
        frame.update(spec.fields(exc))
    frame.update(extra)
    return frame


def frame_to_exception(frame: dict[str, Any]) -> BaseException:
    """Decode an ``error`` frame back into its exception.

    The inverse of :func:`error_frame` for every registered code; the
    round-trip test asserts class identity, message, and carried
    attributes survive the wire.
    """
    if frame.get("type") != "error":
        raise WireFormatError(
            f"not an error frame: type={frame.get('type')!r}")
    code = frame.get("code")
    spec = _SPEC_BY_CODE.get(code)
    if spec is None:
        raise WireFormatError(f"unknown error code {code!r}")
    return spec.build(frame)
