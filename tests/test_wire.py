"""Frame codec: structure, limits, truncation, and stream semantics."""

import io
import json
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from onhs.errors import FrameTooLargeError, MalformedFrameError, WireError
from onhs.wire import (
    KINDS,
    MAX_FRAME_BYTES,
    WireMessage,
    decode_message,
    encode_message,
    read_message,
)


def frame_of(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class TestCodec:
    def test_every_kind_round_trips(self):
        for kind in KINDS:
            msg = WireMessage(kind=kind, correlation_id="c-1", body={"x": [1, 2]})
            assert decode_message(encode_message(msg)) == msg

    def test_encoding_is_deterministic(self):
        a = WireMessage(kind="RESPONSE", correlation_id="c", body={"b": 1, "a": 2})
        b = WireMessage(kind="RESPONSE", correlation_id="c", body={"a": 2, "b": 1})
        assert encode_message(a) == encode_message(b)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(MalformedFrameError):
            WireMessage(kind="GOSSIP", correlation_id="c", body={})

    def test_non_dict_body_rejected_at_construction(self):
        with pytest.raises(MalformedFrameError):
            WireMessage(kind="RESPONSE", correlation_id="c", body=[1])

    def test_oversize_encode_rejected(self):
        msg = WireMessage(
            kind="RESPONSE", correlation_id="c", body={"blob": "x" * MAX_FRAME_BYTES}
        )
        with pytest.raises(FrameTooLargeError):
            encode_message(msg)


class TestDecodeRejections:
    GOOD = encode_message(
        WireMessage(kind="RESPONSE", correlation_id="c-1", body={"ok": True})
    )

    def test_truncation_at_every_offset_is_structured(self):
        for cut in range(len(self.GOOD)):
            with pytest.raises(MalformedFrameError):
                decode_message(self.GOOD[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MalformedFrameError):
            decode_message(self.GOOD + b"!")

    def test_declared_length_above_cap_rejected(self):
        data = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(FrameTooLargeError):
            decode_message(data)

    def test_zero_length_frame_rejected(self):
        with pytest.raises(MalformedFrameError):
            decode_message(frame_of(b""))

    def test_invalid_utf8_rejected(self):
        with pytest.raises(MalformedFrameError):
            decode_message(frame_of(b"\xff\xfe{}"))

    def test_non_object_json_rejected(self):
        for payload in (b"[1,2]", b'"hi"', b"42", b"null"):
            with pytest.raises(MalformedFrameError):
                decode_message(frame_of(payload))

    def test_missing_or_wrong_typed_fields_rejected(self):
        cases = [
            {},
            {"kind": "RESPONSE"},
            {"kind": "RESPONSE", "correlation_id": "c"},
            {"kind": 5, "correlation_id": "c", "body": {}},
            {"kind": "RESPONSE", "correlation_id": 7, "body": {}},
            {"kind": "RESPONSE", "correlation_id": "c", "body": "text"},
            {"kind": "GOSSIP", "correlation_id": "c", "body": {}},
        ]
        for obj in cases:
            with pytest.raises(MalformedFrameError):
                decode_message(frame_of(json.dumps(obj).encode()))

    def test_random_bytes_never_crash(self):
        rng = random.Random(99)
        for _ in range(2000):
            blob = rng.randbytes(rng.randint(0, 64))
            try:
                decode_message(blob)
            except WireError:
                pass


class _DribbleStream(io.RawIOBase):
    """Returns at most one byte per read call."""

    def __init__(self, data: bytes):
        self._buf = io.BytesIO(data)

    def read(self, n=-1):
        return self._buf.read(1 if n is None or n < 0 or n > 1 else n)

    def readable(self):
        return True


class TestStream:
    def msg(self, i: int) -> WireMessage:
        return WireMessage(kind="RESPONSE", correlation_id=f"c-{i}", body={"i": i})

    def test_back_to_back_frames_then_clean_eof(self):
        stream = io.BytesIO()
        for i in range(3):
            stream.write(encode_message(self.msg(i)))
        stream.seek(0)
        got = [read_message(stream) for _ in range(4)]
        assert got[:3] == [self.msg(0), self.msg(1), self.msg(2)]
        assert got[3] is None
        assert read_message(stream) is None  # stays at EOF

    def test_eof_inside_header_is_an_error(self):
        stream = io.BytesIO(encode_message(self.msg(0))[:2])
        with pytest.raises(MalformedFrameError):
            read_message(stream)

    def test_eof_inside_payload_is_an_error(self):
        data = encode_message(self.msg(0))
        stream = io.BytesIO(data[: len(data) - 3])
        with pytest.raises(MalformedFrameError):
            read_message(stream)

    def test_oversize_declaration_fails_before_payload_read(self):
        stream = io.BytesIO(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameTooLargeError):
            read_message(stream)

    def test_one_byte_at_a_time_stream_still_assembles(self):
        data = encode_message(self.msg(7)) + encode_message(self.msg(8))
        stream = _DribbleStream(data)
        assert read_message(stream) == self.msg(7)
        assert read_message(stream) == self.msg(8)
        assert read_message(stream) is None


# ---- drawn frames -------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
messages = st.builds(
    WireMessage,
    kind=st.sampled_from(KINDS),
    correlation_id=st.text(max_size=10),
    body=st.dictionaries(st.text(max_size=6), json_values, max_size=3),
)
FIELDS = ("kind", "correlation_id", "body")


def fields_of(msg: WireMessage) -> dict:
    return {"kind": msg.kind, "correlation_id": msg.correlation_id, "body": msg.body}


def refused_or_exact(frame: bytes) -> None:
    """frame raises a WireError, or decodes to a message that encodes to it."""
    try:
        got = decode_message(frame)
    except WireError:
        return
    assert encode_message(got) == frame


class TestDrawnFrames:
    @settings(max_examples=75, deadline=None)
    @given(msg=messages)
    def test_a_message_round_trips_to_the_same_bytes(self, msg):
        frame = encode_message(msg)
        assert decode_message(frame) == msg
        assert encode_message(decode_message(frame)) == frame

    @settings(max_examples=75, deadline=None)
    @given(msg=messages, data=st.data())
    def test_a_frame_with_a_field_added_retyped_or_dropped(self, msg, data):
        obj = fields_of(msg)
        how = data.draw(st.sampled_from(["add", "retype", "drop"]))
        if how == "add":
            name = data.draw(st.text(max_size=6).filter(lambda k: k not in obj))
            obj[name] = data.draw(json_values)
        elif how == "retype":
            name = data.draw(st.sampled_from(FIELDS))
            obj[name] = data.draw(json_values.filter(lambda v: type(v) is not type(obj[name])))
        else:
            del obj[data.draw(st.sampled_from(FIELDS))]
        refused_or_exact(frame_of(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()))

    @settings(max_examples=75, deadline=None)
    @given(msg=messages, data=st.data())
    def test_a_frame_with_one_byte_changed(self, msg, data):
        frame = bytearray(encode_message(msg))
        at = data.draw(st.integers(0, len(frame) - 1))
        frame[at] = data.draw(st.integers(0, 255).filter(lambda b: b != frame[at]))
        refused_or_exact(bytes(frame))

    @pytest.mark.parametrize("payload", [
        b'{"body":{"a":1},"correlation_id":"c","kind":"RESPONSE","x":0}',  # a fourth field
        b'{"body":{"a": 1},"correlation_id":"c","kind":"RESPONSE"}',  # a space
        b'{"body":{"b":1,"a":2},"correlation_id":"c","kind":"RESPONSE"}',  # keys out of order
        b'{"body":{"a":1,"a":2},"correlation_id":"c","kind":"RESPONSE"}',  # a key twice
        b'{"body":{"a":"\\u0041"},"correlation_id":"c","kind":"RESPONSE"}',  # an escaped A
        b'{"body":{"a":1e0},"correlation_id":"c","kind":"RESPONSE"}',  # 1.0 with an exponent
    ])
    def test_a_frame_that_encodes_back_differently_is_refused(self, payload):
        with pytest.raises(MalformedFrameError):
            decode_message(frame_of(payload))

    def test_a_mistyped_field_is_named(self):
        with pytest.raises(MalformedFrameError, match="'kind'"):
            decode_message(frame_of(b'{"body":{},"correlation_id":"c","kind":7}'))


# ---- nesting deeper than the JSON layer reads ----------------------------------


def nested_frame(depth: int) -> bytes:
    """A resolve request whose handle is depth nested arrays."""
    handle = b"[" * depth + b"]" * depth
    return frame_of(b'{"body":{"handle":' + handle + b'},"correlation_id":"c","kind":"QUERY_RESOLVE"}')


class TestNesting:
    def test_a_frame_nested_past_the_recursion_limit_is_malformed(self):
        frame = nested_frame(1000)
        assert len(frame) == 2068
        with pytest.raises(MalformedFrameError, match="nested too deep"):
            decode_message(frame)

    def test_a_frame_nested_within_it_reads(self):
        msg = decode_message(nested_frame(100))
        assert encode_message(msg) == nested_frame(100)
