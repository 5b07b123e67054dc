"""Wire codec tests: frames, the op builder, and the error taxonomy."""

import json

import pytest
from hypothesis import given, strategies as st

import repro.errors as errors_module
from repro.errors import (
    GTMError,
    IllegalTransition,
    ProtocolError,
    SSTFailure,
    SessionExpired,
    TokenInUse,
    UnknownToken,
    WireFormatError,
)
from repro.core.opclass import OperationClass
from repro.service.protocol import (
    ERROR_SPECS,
    MAX_FRAME_BYTES,
    OP_NAMES,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    build_invocation,
    decode_frame,
    encode_frame,
    error_code,
    error_frame,
    frame_to_exception,
)


class TestFrameCodec:
    def test_round_trip(self):
        frame = {"type": "op", "txn": "t1", "op": "add", "operand": 3}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encoding_is_one_line(self):
        data = encode_frame({"type": "ping"})
        assert data.endswith(b"\n")
        assert b"\n" not in data[:-1]

    def test_non_json_rejected(self):
        with pytest.raises(WireFormatError):
            decode_frame(b"{nope}\n")

    def test_non_object_rejected(self):
        with pytest.raises(WireFormatError):
            decode_frame(b"[1,2]\n")

    def test_missing_type_rejected(self):
        with pytest.raises(WireFormatError):
            decode_frame(b'{"id": 3}\n')

    def test_oversize_frame_rejected_encoding(self):
        with pytest.raises(WireFormatError):
            encode_frame({"type": "op", "blob": "x" * MAX_FRAME_BYTES})

    def test_oversize_frame_rejected_decoding(self):
        line = b'{"type": "ping", "blob": "' + \
            b"x" * MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(WireFormatError):
            decode_frame(line)

    def test_vocabularies_are_disjoint(self):
        assert not REQUEST_TYPES & RESPONSE_TYPES


def reference_encoding(frame) -> bytes:
    """The wire form as first specified: what ``encode_frame`` must
    keep producing byte for byte, however it gets there."""
    return json.dumps(frame, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8") + b"\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.characters(blacklist_categories=("Cs",))),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


class TestEncodingIsUnchanged:
    @given(st.dictionaries(st.text(max_size=8), _json_values,
                           max_size=6))
    def test_matches_json_dumps(self, frame):
        assert encode_frame(frame) == reference_encoding(frame)

    def test_non_ascii_goes_out_as_utf8(self):
        frame = {"type": "op", "object": "vol/à-β-東京", "operand": 0.1}
        assert encode_frame(frame) == reference_encoding(frame)
        assert "東京".encode("utf-8") in encode_frame(frame)

    def test_limit_is_on_the_encoded_bytes(self):
        # 2 bytes per character: half the limit in characters is over
        with pytest.raises(WireFormatError):
            encode_frame({"type": "op", "blob": "é" * (MAX_FRAME_BYTES // 2)})
        fits = {"type": "op", "blob": "x" * (MAX_FRAME_BYTES - 100)}
        assert len(encode_frame(fits)) <= MAX_FRAME_BYTES
        assert encode_frame(fits) == reference_encoding(fits)


class TestBuildInvocation:
    def test_every_op_name_maps(self):
        for name, op_class in OP_NAMES.items():
            operand = ({"value": 1}
                       if op_class is OperationClass.INSERT else 2)
            invocation = build_invocation(
                {"type": "op", "op": name, "operand": operand})
            assert invocation.op_class is op_class

    def test_unknown_op_rejected(self):
        with pytest.raises(WireFormatError, match="unknown op"):
            build_invocation({"type": "op", "op": "increment"})

    def test_non_string_member_rejected(self):
        with pytest.raises(WireFormatError, match="member"):
            build_invocation({"type": "op", "op": "read", "member": 7})

    def test_semantic_operand_error_is_core_taxonomy(self):
        # a zero multiplier fails in the core's own vocabulary, not
        # as a wire-format problem
        with pytest.raises(GTMError) as exc_info:
            build_invocation({"type": "op", "op": "mul", "operand": 0})
        assert not isinstance(exc_info.value, WireFormatError)


def _public_gtm_error_classes():
    """Every public GTMError subclass, the bijection's domain."""
    found = {GTMError}
    frontier = [GTMError]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub.__module__ == errors_module.__name__:
                found.add(sub)
                frontier.append(sub)
    return sorted(found, key=lambda cls: cls.__name__)


#: Exemplar instances, one per class — building them here (rather than
#: generically) keeps attribute payloads realistic.
_EXEMPLARS = {
    "GTMError": lambda: GTMError("plain failure"),
    "CertificationError": lambda: errors_module.CertificationError(
        "t3", "snapshot of 'X' pinned at csn 2 is stale"),
    "ProtocolError": lambda: ProtocolError("awake", "not sleeping"),
    "IllegalTransition": lambda: IllegalTransition(
        "t1", "sleeping", "committed"),
    "IncompatibleOperations": lambda: errors_module.
    IncompatibleOperations("ASSIGN vs ADDSUB"),
    "ReconciliationError": lambda: errors_module.ReconciliationError(
        "undefined for X_read == 0"),
    "SSTFailure": lambda: SSTFailure("t2", "constraint violated"),
    "SessionError": lambda: errors_module.SessionError("generic"),
    "UnknownToken": lambda: UnknownToken("s000042"),
    "TokenInUse": lambda: TokenInUse("s000007"),
    "SessionExpired": lambda: SessionExpired("s000009", ("a", "b")),
    "WireFormatError": lambda: WireFormatError("bad json"),
}


class TestErrorTaxonomy:
    """Satellite (b): one class ↔ one code, round-trips attribute-true."""

    def test_bijection_covers_every_public_subclass(self):
        registered = {spec.cls for spec in ERROR_SPECS}
        assert set(_public_gtm_error_classes()) == registered

    def test_codes_are_unique(self):
        codes = [spec.code for spec in ERROR_SPECS]
        assert len(codes) == len(set(codes))

    def test_classes_are_unique(self):
        classes = [spec.cls for spec in ERROR_SPECS]
        assert len(classes) == len(set(classes))

    def test_exemplars_cover_the_domain(self):
        assert (sorted(_EXEMPLARS) ==
                [cls.__name__ for cls in _public_gtm_error_classes()])

    @pytest.mark.parametrize(
        "name", sorted(_EXEMPLARS),
        ids=sorted(_EXEMPLARS))
    def test_round_trip(self, name):
        original = _EXEMPLARS[name]()
        frame = error_frame(original, re=17)
        assert frame["type"] == "error"
        assert frame["re"] == 17
        assert frame["code"] == error_code(original)
        # ... and across a real encode/decode cycle
        decoded = frame_to_exception(decode_frame(encode_frame(frame)))
        assert type(decoded) is type(original)
        assert str(decoded) == str(original)
        for attr in ("token", "aborted", "txn_id", "event", "reason",
                     "source", "target"):
            if hasattr(original, attr):
                assert getattr(decoded, attr) == getattr(original, attr)

    def test_unregistered_subclass_degrades_to_ancestor(self):
        class FutureSessionError(errors_module.SessionError):
            pass

        frame = error_frame(FutureSessionError("from the future"))
        assert frame["code"] == "session/error"
        decoded = frame_to_exception(frame)
        assert type(decoded) is errors_module.SessionError

    def test_unknown_code_rejected(self):
        with pytest.raises(WireFormatError):
            frame_to_exception({"type": "error", "code": "no/such"})

    def test_non_error_frame_rejected(self):
        with pytest.raises(WireFormatError):
            frame_to_exception({"type": "pong"})
