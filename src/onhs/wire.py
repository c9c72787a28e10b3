"""Length-prefixed JSON framing for client/server traffic.

A frame is a 4-byte big-endian length followed by that many bytes of
codec.canonical_json: an object of kind, correlation_id and body, and no
other field. Frames are capped at 1 MiB. Decoding is total: anything that
is not a well-formed frame raises a structured error rather than
propagating whatever the JSON layer happened to throw, and a frame that
decodes encodes back to the same bytes.

Framing keeps no state between frames. The answers in frame bodies do,
per connection: an answer may name a KEY or NXT set that an earlier
answer on the same connection carried in full by its slot
(codec.SET_SLOTS), so a connection's answers are read in the order they
arrive, and a frame lifted out of its connection need not read alone.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass
from typing import BinaryIO, Optional

from .codec import body_field, canonical_json
from .errors import FrameTooLargeError, MalformedFrameError

MAX_FRAME_BYTES = 1 << 20

KIND_QUERY_RESOLVE = "QUERY_RESOLVE"
KIND_QUERY_RECORD = "QUERY_RECORD"
KIND_UPDATE = "UPDATE"
KIND_AUDIT_SUBSCRIBE = "AUDIT_SUBSCRIBE"
KIND_AUDIT_EVENT = "AUDIT_EVENT"
KIND_RESPONSE = "RESPONSE"
KIND_ERROR = "ERROR"

KINDS = (
    KIND_QUERY_RESOLVE,
    KIND_QUERY_RECORD,
    KIND_UPDATE,
    KIND_AUDIT_SUBSCRIBE,
    KIND_AUDIT_EVENT,
    KIND_RESPONSE,
    KIND_ERROR,
)


@dataclass(frozen=True)
class WireMessage:
    kind: str
    correlation_id: str
    body: dict

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MalformedFrameError(f"unknown message kind {self.kind!r}")
        if not isinstance(self.body, dict):
            raise MalformedFrameError("message body must be a mapping")


def encode_message(msg: WireMessage) -> bytes:
    payload = canonical_json(
        {"kind": msg.kind, "correlation_id": msg.correlation_id, "body": msg.body}
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return struct.pack(">I", len(payload)) + payload


def decode_message(data: bytes) -> WireMessage:
    """Decode data, which must be one whole frame, as read_message reads it.
    Raises WireError subclasses, nothing else."""
    stream = io.BytesIO(data)
    msg = read_message(stream)
    if msg is None or stream.read(1):
        raise MalformedFrameError(f"{len(data)} bytes are not one whole frame")
    return msg


# The C scanner json.loads runs, built once. It reads one JSON value from
# an offset and returns it with the offset after it, so a payload is one
# value when that offset is its end; it raises StopIteration where no value
# starts.
_scan = json.scanner.c_make_scanner(json.decoder.JSONDecoder())


def _decode_payload(payload: bytes) -> WireMessage:
    try:
        text = payload.decode("utf-8")
        obj, end = _scan(text, 0)
    except StopIteration:
        raise MalformedFrameError("frame payload is not valid JSON: no value at its start") from None
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise MalformedFrameError(f"frame payload is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedFrameError("frame payload is nested too deep to read") from None
    if end != len(text):
        raise MalformedFrameError(f"frame payload is not valid JSON: extra data at {end}")
    try:
        msg = WireMessage(
            kind=body_field(obj, "kind", str, "frame"),
            correlation_id=body_field(obj, "correlation_id", str, "frame"),
            body=body_field(obj, "body", dict, "frame"),
        )
        canonical = len(obj) == 3 and canonical_json(obj) == payload
    except ValueError as exc:
        raise MalformedFrameError(str(exc)) from None
    except RecursionError:
        raise MalformedFrameError("frame payload is nested too deep to write back") from None
    if not canonical:
        # a fourth field; or a space, a key out of order or twice, an escape
        raise MalformedFrameError("frame is not kind, correlation_id and body in canonical JSON")
    return msg


def read_message(stream: BinaryIO) -> Optional[WireMessage]:
    """Read one frame from a blocking stream; None on clean EOF at a boundary."""
    header = _read_exact(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"declared length {length} exceeds {MAX_FRAME_BYTES}")
    payload = _read_exact(stream, length)
    if payload is None:
        raise MalformedFrameError("stream ended inside a frame")
    return _decode_payload(payload)


def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    """None on EOF before the first byte; error on EOF partway through."""
    first = stream.read(count)
    if len(first) == count:
        return first
    if not first:
        return None
    chunks = [first]
    got = len(first)
    while got < count:
        chunk = stream.read(count - got)
        if not chunk:
            raise MalformedFrameError("stream ended inside a frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
