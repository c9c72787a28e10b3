"""Layer spans recorded from outside the program.

install() replaces the program's layer functions with timing wrappers,
under every name a caller looks them up by: a ``from .records import
build_nxt_chain`` in server.py binds a second name, so both are wrapped.
Each span records its layer, start, duration, self time (duration minus
the spans nested inside it on the same thread) and, for the wire encoder,
the frame size. Spans stay in memory, one flat array per thread, until
dump() writes them out when the process ends.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from array import array
from pathlib import Path

FIELDS = 5  # layer id, start ns, duration ns, self ns, size
BUILDERS = (
    "make_claim", "make_create_child", "make_assign", "make_delegate",
    "make_transfer", "make_cancel", "make_compromise",
)


class Tracer:
    def __init__(self) -> None:
        self.layers: list = []
        self._buffers: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = array("q")
            local.stack = []
            with self._lock:
                self._buffers.append(local.spans)
        return local

    def wrap(self, layer: str, fn, size=None):
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            local = self._buffer()
            stack = local.stack
            stack.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                local.spans.extend(
                    (layer_id, start, duration, duration - nested,
                     size(result) if size is not None and result is not None else 0)
                )

        traced.__wrapped__ = fn
        return traced

    def _rows(self) -> array:
        rows = array("q")
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            rows.extend(buf[:len(buf) - len(buf) % FIELDS])
        return rows

    def spans(self) -> list:
        """(layer, start, duration, self, size) rows from every thread."""
        return _split(self.layers, self._rows())

    def dump(self, path: Path) -> None:
        path = Path(path)
        with open(path.with_suffix(".bin"), "wb") as fh:
            self._rows().tofile(fh)
        path.with_suffix(".json").write_text(json.dumps({"layers": self.layers}))


def load(path: Path) -> list:
    """Read back what dump() wrote, in the form spans() returns."""
    path = Path(path)
    layers = json.loads(path.with_suffix(".json").read_text())["layers"]
    rows = array("q")
    rows.frombytes(path.with_suffix(".bin").read_bytes())
    return _split(layers, rows)


def _split(layers: list, rows: array) -> list:
    data = rows.tolist()
    return [
        (layers[data[i]],) + tuple(data[i + 1:i + FIELDS])
        for i in range(0, len(data), FIELDS)
    ]


class _TimedLock:
    """The server lock, with the wait to acquire it recorded as a span."""

    def __init__(self, inner, acquire) -> None:
        self._inner = inner
        self.acquire = acquire
        self.release = inner.release

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._inner.release()


def _wrap_attr(tracer: Tracer, owner, attr: str, layer: str, size=None) -> None:
    """Wrap owner.attr in place; owner is a module or a class."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(tracer.wrap(layer, raw.__func__, size)))
    else:
        setattr(owner, attr, tracer.wrap(layer, raw, size))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the onhs package imported in this process."""
    from onhs import cli, client, crypto, handles, records, server, service, wire

    for module in (handles, server, client, service, cli):
        _wrap_attr(tracer, module, "parse_handle", "handles.parse_handle")

    _wrap_attr(tracer, crypto.SecretKey, "sign", "crypto.sign")
    _wrap_attr(tracer, crypto.SecretKey, "public_key", "crypto.public_key")
    _wrap_attr(tracer, crypto.PublicKey, "verify", "crypto.verify")
    _wrap_attr(tracer, crypto, "canonical_rrset_bytes", "crypto.canonical_rrset_bytes")

    for module in (records, server):
        _wrap_attr(tracer, module, "build_nxt_chain", "records.build_nxt_chain")
        _wrap_attr(tracer, module, "covering_nxt", "records.covering_nxt")
    _wrap_attr(tracer, records.ZoneSnapshot, "with_rrset", "records.with_rrset")

    cls = server.HandleServer
    _wrap_attr(tracer, cls, "resolve", "server.resolve")
    _wrap_attr(tracer, cls, "owner_zone_snapshot", "server.owner_zone_snapshot")
    _wrap_attr(tracer, cls, "root_zone_snapshot", "server.root_zone_snapshot")
    _wrap_attr(tracer, cls, "apply_update", "server.apply_update")
    for builder in BUILDERS:
        _wrap_attr(tracer, server, builder, "server.make_update")
    _wrap_attr(tracer, server.Resolution, "to_dict", "server.resolution_codec")
    _wrap_attr(tracer, server.Resolution, "from_dict", "server.resolution_codec")

    original_init = cls.__init__

    def init_with_timed_lock(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        inner = self._lock
        self._lock = _TimedLock(inner, tracer.wrap("server.lock_wait", inner.acquire))

    cls.__init__ = init_with_timed_lock

    _wrap_attr(tracer, client, "verify_resolution", "client.verify_resolution")

    _wrap_attr(tracer, wire, "encode_message", "wire.encode_message", size=len)
    # The decode step of read_message; read_message itself also spans the
    # wait for the peer's next frame, which is idle time, not codec work.
    _wrap_attr(tracer, wire, "_decode_payload", "wire.read_message")

    _wrap_attr(tracer, service.HandleService, "handle_request", "service.handle_request")
    _wrap_attr(tracer, service.UpdateLog, "append", "service.log_append")
    _wrap_attr(tracer, service.UpdateLog, "replay_into", "service.replay")
