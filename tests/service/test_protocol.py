"""Wire codec tests: frames, the op builder, and the error taxonomy."""

import asyncio
import json
import sys

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
from repro.driver.asyncio_driver import AsyncioDriver
from repro.service import GTMService, ServiceConfig, protocol
from repro.service.client import ServiceClient
from repro.service.protocol import (
    ERROR_SPECS,
    MAX_FRAME_BYTES,
    OP_NAMES,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    build_invocation,
    decode_frame,
    encode_frame,
    error_frame,
    frame_to_exception,
)
from repro.service.server import ServiceServer, memory_connector


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

    @pytest.mark.parametrize("frame", [
        # orjson refuses ints beyond 64 bits: the stdlib writes them
        pytest.param({"type": "op", "operand": 2**63 - 1}, id="2**63-1"),
        pytest.param({"type": "op", "operand": 2**63}, id="2**63"),
        pytest.param({"type": "op", "operand": 2**64 - 1}, id="2**64-1"),
        pytest.param({"type": "op", "operand": 2**64}, id="2**64"),
        pytest.param({"type": "op", "operand": -2**63}, id="-2**63"),
        pytest.param({"type": "op", "operand": -2**63 - 1}, id="-2**63-1"),
        # orjson spells these floats differently: 1e16, 0.00001, null
        pytest.param({"type": "op", "operand": 1e16}, id="1e16"),
        pytest.param({"type": "op", "operand": 1e-05}, id="1e-05"),
        pytest.param({"type": "op", "operand": 5e-324}, id="5e-324"),
        pytest.param({"type": "op", "operand": float("nan")}, id="nan"),
        pytest.param({"type": "op", "operand": float("inf")}, id="inf"),
        pytest.param({"type": "op", "operand": float("-inf")}, id="-inf"),
        pytest.param({"type": "op", "operand": {"v": 1e16}},
                     id="nested-1e16"),
        pytest.param({"type": "op", "operand": [2**64]}, id="nested-2**64"),
        pytest.param({"type": "op", 7: "seven"}, id="int-key"),
        pytest.param({"type": "ping", "id": None}, id="none-value"),
    ])
    def test_named_corner(self, frame):
        assert encode_frame(frame) == reference_encoding(frame)

    def test_a_lone_surrogate_raises_as_before(self):
        with pytest.raises(UnicodeEncodeError):
            encode_frame({"type": "p\ud800"})
        with pytest.raises(UnicodeEncodeError):
            reference_encoding({"type": "p\ud800"})

    def test_limit_is_on_the_encoded_bytes(self):
        # 2 bytes per character: half the limit in characters is over
        with pytest.raises(WireFormatError):
            encode_frame({"type": "op", "blob": "é" * (MAX_FRAME_BYTES // 2)})
        fits = {"type": "op", "blob": "x" * (MAX_FRAME_BYTES - 100)}
        assert len(encode_frame(fits)) <= MAX_FRAME_BYTES
        assert encode_frame(fits) == reference_encoding(fits)


def reference_decode_frame(line):
    """``decode_frame`` as it stood before it learned a fast path
    (``json.loads`` for everything): what it must keep accepting,
    returning and saying, whatever it does first."""
    if isinstance(line, bytes) and len(line) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame of {len(line)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise WireFormatError(
            f"frame must be a JSON object, got {type(frame).__name__}")
    frame_type = frame.get("type")
    if not isinstance(frame_type, str):
        raise WireFormatError("frame has no string 'type' field")
    return frame


def decoding(decode, line) -> tuple[str, str]:
    """What ``decode`` makes of ``line``, comparable across decoders
    (``repr``: a NaN in a frame is not equal to itself)."""
    try:
        return "frame", repr(decode(line))
    except WireFormatError as exc:
        return "error", str(exc)


#: JSON's own whitespace, and four characters ``str.strip()`` would
#: take for whitespace although JSON does not.
_padding = st.text(" \t\n\r\x0b\x0c\xa0\u2028", max_size=3)
_garbage = st.sampled_from(["", "", "", "x", "{}", ",", "\x00", "]", "1"])
_payloads = st.one_of(
    # frames, and objects that are not: no 'type', or not a string
    st.builds(lambda frame, kind: {**frame, "type": kind},
              st.dictionaries(st.text(max_size=8), _json_values,
                              max_size=5),
              st.sampled_from(sorted(REQUEST_TYPES)) | st.text(max_size=6)),
    st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
    st.fixed_dictionaries({"type": _json_values}),
    _json_values,  # not an object at all
)
_texts = st.one_of(
    st.builds(
        lambda payload, ascii_only, indent, before, after, garbage:
        before + json.dumps(payload, ensure_ascii=ascii_only,
                            indent=indent) + after + garbage,
        _payloads, st.booleans(), st.sampled_from([None, None, 1]),
        _padding, _padding, _garbage),
    st.text(max_size=40),  # mostly not JSON
)
_encodings = st.sampled_from([
    "utf-8", "utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be",
    "utf-32", "utf-32-le", "utf-32-be"])


def _spoil(data: bytes, at: int, junk: bytes) -> bytes:
    at %= len(data) + 1
    return data[:at] + junk + data[at:]


_lines = st.one_of(
    _texts,                                    # str, as tests pass it
    _texts.map(lambda text: "\ufeff" + text),  # ...with a BOM
    st.builds(lambda text, encoding: text.encode(encoding,
                                                 "surrogatepass"),
              _texts, _encodings),
    # bytes that are not (all) text: truncated and spoiled encodings
    st.builds(_spoil, _texts.map(lambda text: text.encode("utf-8")),
              st.integers(min_value=0), st.binary(min_size=1, max_size=3)),
    st.binary(max_size=24),
)


class TestDecodingIsUnchanged:
    @given(_lines)
    def test_matches_the_json_loads_decoder(self, line):
        assert decoding(decode_frame, line) == \
            decoding(reference_decode_frame, line)

    @pytest.mark.parametrize("line", [
        b'{"type":"ping","id":1}\n',
        ' \t\r\n{"type": "ping"}\r\n ',
        b'{"type":"ping"} x\n',              # trailing garbage
        b'{"type":"ping"}{"type":"ping"}\n',
        b'{"type":"ping"}\x0b\n',            # not JSON whitespace
        '\xa0{"type":"ping"}',               # nor is NBSP
        b'\xef\xbb\xbf{"type":"ping"}\n',    # UTF-8 BOM: bytes may
        '\ufeff{"type":"ping"}',             # ...a str may not
        '{"type":"ping"}'.encode("utf-16"),
        '{"type":"ping"}'.encode("utf-16-le"),
        '{"type":"ping"}'.encode("utf-32-be"),
        b'{"type":"p\xed\xa0\x80"}\n',       # an encoded surrogate
        b'{"type":"p\xff"}\n',                # not UTF-8 at all
        b'{"type":"ping","nul":"\x00"}\n',
        b'"\x00"', b"1\x00", b"\x00", b"", b"\n", "", "nul",
        b'{"type":"ping","n":NaN,"i":-Infinity}\n',
        b'{"type":"a","type":"b"}\n',         # the last key wins
        b"[1,2]\n", b"17\n", b'"ping"\n', b"null\n",
        b'{"id":3}\n', b'{"type":7}\n', b'{"type":null}\n',
        b'{"type":"ping"', b"{nope}\n",
        b'{"type":"ping","n":' + b"9" * 5000 + b"}\n",  # int digit limit
        # orjson reads an int outside [-2**63, 2**64) as a float
        pytest.param(b'{"type":"ping","n":9223372036854775807}',
                     id="2**63-1"),
        pytest.param(b'{"type":"ping","n":9223372036854775808}',
                     id="2**63"),
        pytest.param(b'{"type":"ping","n":18446744073709551615}',
                     id="2**64-1"),
        pytest.param(b'{"type":"ping","n":18446744073709551616}',
                     id="2**64"),
        pytest.param(b'{"type":"ping","n":-9223372036854775808}',
                     id="-2**63"),
        pytest.param(b'{"type":"ping","n":-9223372036854775809}',
                     id="-2**63-1"),
        pytest.param(b'{"type":"ping","n":1234567890123456789}',
                     id="19-digit-run"),
        pytest.param(b'{"type":"ping","n":12345678901234567890}',
                     id="20-digit-run"),
        pytest.param(b'{"type":"ping","n":0.12345678901234567890123}',
                     id="20-digit-fraction"),
        pytest.param(
            b'{"type":"op","op":"insert","operand":'
            b'{"a":18446744073709551616,"b":-9223372036854775809}}',
            id="insert-operand-2**64"),
        pytest.param(
            '{"type":"op","op":"insert","operand":'
            '{"a":18446744073709551615,"b":-9223372036854775808}}',
            id="insert-operand-str-64-bit"),
        pytest.param(
            '{"type":"op","op":"insert","operand":'
            '{"a":18446744073709551616,"b":-9223372036854775809}}',
            id="insert-operand-str-2**64"),
        b'{"type":"ping","blob":"' + b"x" * MAX_FRAME_BYTES + b'"}\n',
        '{"type":"ping","blob":"' + "x" * MAX_FRAME_BYTES + '"}',
    ])
    def test_named_corner(self, line):
        assert decoding(decode_frame, line) == \
            decoding(reference_decode_frame, line)

    @pytest.mark.parametrize("depth", [400, 600])
    def test_nesting_decodes_as_before(self, depth):
        line = (b'{"type":"ping","n":' + b"[" * depth + b"]" * depth
                + b"}")
        assert decoding(decode_frame, line) == \
            decoding(reference_decode_frame, line)

    def test_nesting_past_the_recursion_limit_raises_as_before(self):
        # orjson would read it; json.loads cannot
        depth = 4 * sys.getrecursionlimit()
        line = (b'{"type":"ping","n":' + b"[" * depth + b"]" * depth
                + b"}")
        with pytest.raises(RecursionError):
            reference_decode_frame(line)
        with pytest.raises(RecursionError):
            decode_frame(line)

    def test_the_fast_path_is_what_frames_take(self, monkeypatch):
        # every frame the program itself writes decodes without the
        # json.loads fallback (the differential above would not notice
        # a fast path that never succeeds)
        monkeypatch.setattr(json, "loads", None)
        frame = {"type": "op", "object": "vol/à-β-東京", "operand": 0.1}
        assert decode_frame(encode_frame(frame)) == frame
        assert decode_frame(' {"type": "ping"}\r\n') == {"type": "ping"}

    def test_frames_between_client_and_service_take_orjson(self, monkeypatch):
        # a transaction between the repository's own client and
        # service, with the stdlib's encoder and json.loads unable to
        # run: every frame either side builds is written and read by
        # orjson (the differentials above would not notice a fast path
        # that never succeeds)
        def long_way(*args):
            raise AssertionError(f"a frame went the long way: {args!r}")

        monkeypatch.setattr(protocol, "_iterencode", long_way)
        monkeypatch.setattr(json, "loads", long_way)
        replies = asyncio.run(_one_transaction())
        assert [reply["type"] for reply in replies] == [
            "welcome", "granted", "granted", "committed", "goodbye"]


async def _one_transaction():
    service = GTMService(AsyncioDriver(), config=ServiceConfig(
        ldbs_backend="memory"))
    service.create_object("vol/à-β-東京", value=1)
    service.create_object("x", value=5)
    server = ServiceServer(service)
    client = ServiceClient(*await memory_connector(server)())
    replies = [await client.hello()]
    txn = await client.begin()
    replies.append(await client.op(txn, "read", "vol/à-β-東京", None))
    replies.append(await client.op(txn, "add", "x", 2))
    replies.append(await client.commit(txn))
    replies.append(await client.bye())
    await server.shutdown()
    return replies


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


    @pytest.mark.parametrize("line", [
        b'{"type":"op","op":"assign","operand":NaN}',
        b'{"type":"op","op":"assign","operand":Infinity}',
        b'{"type":"op","op":"add","operand":-Infinity}',
        b'{"type":"op","op":"add","operand":1e999}',
        b'{"type":"op","op":"mul","operand":-1e999}',
        b'{"type":"op","op":"insert","operand":{"value":NaN}}',
        b'{"type":"op","op":"insert","operand":{"a":1,"b":1e999}}',
    ])
    def test_non_finite_operand_refused_at_the_door(self, line):
        """The scanner takes these on purpose (``json.loads`` does); a
        committed NaN is unequal to itself for good, so no op is built
        from one."""
        frame = decode_frame(line)  # the codec is not the door
        with pytest.raises(WireFormatError, match="finite"):
            build_invocation(frame)

    @pytest.mark.parametrize("operand", [
        0, -3, 2.5, 1e308, 10 ** 400, -7, 0.5, {"value": 1.5}])
    def test_finite_operands_pass(self, operand):
        name = "insert" if isinstance(operand, dict) else "assign"
        invocation = build_invocation(
            {"type": "op", "op": name, "operand": operand})
        assert invocation.operand == operand

    @pytest.mark.parametrize("op, operand", [
        ("assign", True), ("add", False), ("assign", "NaN"),
        ("add", "x"), ("mul", [2]), ("assign", {"v": 1}),
        ("add", None), ("insert", {"value": None}),
        ("insert", {"value": "a"}), ("insert", 3), ("read", "x"),
        ("delete", [])])
    def test_out_of_domain_operand_refused(self, op, operand):
        """Each class declares the types its operand may have; a bool
        is not a number, and an INSERT's member values are numbers."""
        with pytest.raises(WireFormatError, match="operand|member"):
            build_invocation({"type": "op", "op": op, "operand": operand})

    @pytest.mark.parametrize("op", [[], {}, 7, None])
    def test_non_string_op_rejected(self, op):
        with pytest.raises(WireFormatError, match="unknown op"):
            build_invocation({"type": "op", "op": op})


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
