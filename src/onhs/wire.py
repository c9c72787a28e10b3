"""Length-prefixed JSON framing for client/server traffic.

A frame is a 4-byte big-endian length followed by that many bytes of UTF-8
JSON. Frames are capped at 1 MiB. Decoding is total: anything that is not a
well-formed frame raises a structured error rather than propagating whatever
the JSON layer happened to throw.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import BinaryIO, Optional

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
    payload = json.dumps(
        {"kind": msg.kind, "correlation_id": msg.correlation_id, "body": msg.body},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return struct.pack(">I", len(payload)) + payload


def decode_message(data: bytes) -> WireMessage:
    """Decode one complete frame. Raises WireError subclasses, nothing else."""
    if len(data) < 4:
        raise MalformedFrameError("frame shorter than its length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"declared length {length} exceeds {MAX_FRAME_BYTES}")
    if len(data) != 4 + length:
        raise MalformedFrameError(
            f"frame declares {length} payload bytes but carries {len(data) - 4}"
        )
    return _decode_payload(data[4:])


def _decode_payload(payload: bytes) -> WireMessage:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrameError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedFrameError("frame payload must be a JSON object")
    kind = obj.get("kind")
    correlation_id = obj.get("correlation_id")
    body = obj.get("body")
    if not isinstance(kind, str) or not isinstance(correlation_id, str):
        raise MalformedFrameError("frame needs string kind and correlation_id")
    if not isinstance(body, dict):
        raise MalformedFrameError("frame body must be a JSON object")
    return WireMessage(kind=kind, correlation_id=correlation_id, body=body)


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
    chunks = []
    got = 0
    while got < count:
        chunk = stream.read(count - got)
        if not chunk:
            if got == 0:
                return None
            raise MalformedFrameError("stream ended inside a frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
