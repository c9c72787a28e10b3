"""Process-level plumbing: config, durability, and the TCP front end.

The durable unit is one line in updates.log per apply_update call, flushed
and fsynced before the verdict leaves the process, so a killed server
replays to exactly the state its clients observed. Replay feeds each
logged update back through the normal path using the logged arrival
timestamp as the clock, which keeps signature-window decisions stable
across restarts.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import crypto, wire
from .errors import (
    DelegationLoopError,
    DepthExceededError,
    FrameTooLargeError,
    LogFormatError,
    MalformedFrameError,
    OnhsError,
    WireError,
)
from .handles import Handle, parse_handle
from .server import (
    DEFAULT_AUDIT_CAP,
    DEFAULT_DEPTH_BUDGET,
    AuditEvent,
    AuditSubscription,
    HandleServer,
    RecordAnswer,
    Resolution,
    UpdateMessage,
    Verdict,
    canonical_json,
)

DEFAULT_PORT = 4431


# ---- configuration ---------------------------------------------------------


@dataclass
class ServerConfig:
    root_zone: str
    listen_host: str = "127.0.0.1"
    listen_port: int = DEFAULT_PORT
    data_dir: str = "./onhs-data"
    depth_budget: int = DEFAULT_DEPTH_BUDGET
    audit_cap: int = DEFAULT_AUDIT_CAP

    @staticmethod
    def parse(text: str) -> "ServerConfig":
        values: Dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {raw!r} is not key=value")
            values[key.strip()] = value.strip()
        if "root_zone" not in values:
            raise ValueError("config needs root_zone")
        cfg = ServerConfig(root_zone=values["root_zone"])
        if "listen" in values:
            host, _, port = values["listen"].rpartition(":")
            cfg.listen_host = host or "127.0.0.1"
            cfg.listen_port = int(port)
        if "data_dir" in values:
            cfg.data_dir = values["data_dir"]
        if "depth_budget" in values:
            cfg.depth_budget = int(values["depth_budget"])
        if "audit_cap" in values:
            cfg.audit_cap = int(values["audit_cap"])
        env_dir = os.environ.get("ONHS_DATA_DIR")
        if env_dir:
            cfg.data_dir = env_dir
        return cfg

    @staticmethod
    def load(path) -> "ServerConfig":
        return ServerConfig.parse(Path(path).read_text())


# ---- durability ------------------------------------------------------------


class UpdateLog:
    """Append-only file: base64 canonical update, verdict tag, timestamp."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = None
        self.dropped_tail = 0  # bytes of a torn last line cut off at replay

    def open_for_append(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, line: str) -> None:
        assert self._fh is not None, "log not opened"
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def replay_into(self, server: HandleServer) -> int:
        """Re-apply every logged update; returns the number applied.

        A last line with no newline is an append a crash cut short. If it
        does not decode, it is cut off the file and its length kept in
        dropped_tail; if it does, its newline is restored. Either way the
        next append starts a line of its own. Any other line that does not
        decode raises LogFormatError naming its line number.
        """
        self.dropped_tail = 0
        if not self.path.exists():
            return 0
        count = 0
        end = 0
        torn_at = None
        raw = b"\n"
        with open(self.path, "rb") as fh:
            for number, raw in enumerate(fh, start=1):
                start, end = end, end + len(raw)
                if not raw.strip():
                    continue
                try:
                    msg, stamp = _decode_line(raw)
                except (ValueError, KeyError, TypeError, OnhsError) as exc:
                    if raw.endswith(b"\n"):
                        raise LogFormatError(f"{self.path} line {number}: {exc}") from exc
                    torn_at = start
                    break
                server.apply_update(msg, now=stamp)
                count += 1
        if torn_at is not None:
            with open(self.path, "r+b") as fh:
                fh.truncate(torn_at)
                os.fsync(fh.fileno())
            self.dropped_tail = end - torn_at
        elif not raw.endswith(b"\n"):
            with open(self.path, "ab") as fh:
                fh.write(b"\n")
                os.fsync(fh.fileno())
        return count


def _decode_line(raw: bytes) -> Tuple[UpdateMessage, str]:
    """One log line's update and arrival timestamp."""
    blob, _, rest = raw.decode("utf-8").strip().partition(" ")
    _tag, _, stamp = rest.rpartition(" ")
    msg = UpdateMessage.from_dict(json.loads(base64.b64decode(blob, validate=True)))
    return msg, crypto.check_stamp(stamp)


# ---- request dispatch (shared by sockets and in-process use) ----------------


class HandleService:
    """Owns a HandleServer plus its durability; answers wire messages."""

    def __init__(self, config: ServerConfig, *, key_bits: int = 2048):
        self.config = config
        data_dir = Path(config.data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        key_path = data_dir / "server.key"
        if key_path.exists():
            secret = crypto.load_secret_key(key_path)
        else:
            _, secret = crypto.generate_keypair(crypto.RSA_SHA1, bits=key_bits)
            crypto.save_secret_key(key_path, secret)
        self.server = HandleServer(
            config.root_zone,
            secret,
            depth_budget=config.depth_budget,
            audit_cap=config.audit_cap,
        )
        self.log = UpdateLog(data_dir / "updates.log")
        self.replayed = self.log.replay_into(self.server)
        self.log.open_for_append()
        self.server.set_log_writer(self.log.append)
        self._push_lock = threading.Lock()
        self._pushers: Dict[str, "_EventPusher"] = {}
        self.server.add_event_sink(self._on_event)

    def close(self) -> None:
        self.server.set_log_writer(None)
        self.log.close()

    # -- audit push --

    def register_pusher(self, endpoint_id: str, pusher: "_EventPusher") -> None:
        with self._push_lock:
            self._pushers[endpoint_id] = pusher

    def drop_pusher(self, endpoint_id: str) -> None:
        with self._push_lock:
            self._pushers.pop(endpoint_id, None)

    def _on_event(self, sub: AuditSubscription, event: AuditEvent) -> None:
        with self._push_lock:
            pusher = self._pushers.get(sub.endpoint_id)
        if pusher is not None:
            pusher.push(event)

    # -- dispatch --

    def handle_request(
        self, msg: wire.WireMessage, endpoint_id: Optional[str] = None
    ) -> wire.WireMessage:
        try:
            return self._dispatch(msg, endpoint_id)
        except (DelegationLoopError, DepthExceededError) as exc:
            code = (
                "delegation-loop"
                if isinstance(exc, DelegationLoopError)
                else "depth-exceeded"
            )
            return _error(msg.correlation_id, code, str(exc))
        except OnhsError as exc:
            return _error(msg.correlation_id, "bad-request", str(exc))
        except (KeyError, ValueError, TypeError) as exc:
            return _error(msg.correlation_id, "bad-request", str(exc))

    def _dispatch(
        self, msg: wire.WireMessage, endpoint_id: Optional[str]
    ) -> wire.WireMessage:
        body = msg.body
        root = self.config.root_zone
        if msg.kind == wire.KIND_QUERY_RESOLVE:
            handle = parse_handle(str(body["handle"]), root)
            budget = body.get("depth_budget")
            resolution = self.server.resolve(
                handle, None if budget is None else int(budget)
            )
            return _response(msg.correlation_id, {"resolution": resolution.to_dict()})
        if msg.kind == wire.KIND_QUERY_RECORD:
            handle = parse_handle(str(body["handle"]), root)
            answer = self.server.query_record(handle, str(body["rtype"]))
            return _response(msg.correlation_id, {"answer": answer.to_dict()})
        if msg.kind == wire.KIND_UPDATE:
            update = UpdateMessage.from_dict(body["update"])
            verdict = self.server.apply_update(update)
            return _response(msg.correlation_id, {"verdict": _verdict_dict(verdict)})
        if msg.kind == wire.KIND_AUDIT_SUBSCRIBE:
            handle = parse_handle(str(body["handle"]), root)
            sub_id = endpoint_id or str(body.get("endpoint_id", "")) or str(uuid.uuid4())
            owner = bool(body.get("owner", False))
            verdict = self.server.subscribe_audit(handle, sub_id, owner=owner)
            backlog = []
            if verdict.accepted and body.get("backlog", True):
                backlog = [
                    {"update": u.to_dict(), "verdict": _verdict_dict(v)}
                    for u, v in self.server.entry_log(handle)
                ]
            return _response(
                msg.correlation_id,
                {
                    "verdict": _verdict_dict(verdict),
                    "endpoint_id": sub_id,
                    "backlog": backlog,
                },
            )
        return _error(msg.correlation_id, "bad-request", f"cannot serve kind {msg.kind}")


def _verdict_dict(verdict: Verdict) -> dict:
    return {
        "accepted": verdict.accepted,
        "reason": verdict.reason,
        "detail": verdict.detail,
    }


def _verdict_from_dict(data: dict) -> Verdict:
    return Verdict(
        accepted=bool(data["accepted"]),
        reason=data.get("reason"),
        detail=data.get("detail"),
    )


def _response(correlation_id: str, body: dict) -> wire.WireMessage:
    return wire.WireMessage(wire.KIND_RESPONSE, correlation_id, body)


def _error(correlation_id: str, code: str, detail: str) -> wire.WireMessage:
    return wire.WireMessage(
        wire.KIND_ERROR, correlation_id, {"error": code, "detail": detail}
    )


class _EventPusher:
    """Writes audit events onto one client connection, best effort."""

    def __init__(self, sock: socket.socket, lock: threading.Lock):
        self.sock = sock
        self.lock = lock
        self.failed = False

    def push(self, event: AuditEvent) -> None:
        if self.failed:
            return
        frame = wire.encode_message(
            wire.WireMessage(wire.KIND_AUDIT_EVENT, f"event-{event.seq}", event.to_dict())
        )
        try:
            with self.lock:
                self.sock.sendall(frame)
        except OSError:
            self.failed = True


# ---- TCP front end -----------------------------------------------------------


class TcpHandleServer:
    """Threaded socket server; one reader thread per connection."""

    def __init__(self, service: HandleService):
        self.service = service
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.bound_port: Optional[int] = None

    def start(self) -> int:
        cfg = self.service.config
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((cfg.listen_host, cfg.listen_port))
        listener.listen(64)
        self._listener = listener
        self.bound_port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self.bound_port

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        self.service.close()

    def serve_forever(self) -> None:
        """Block until interrupted; used by the command line front end."""
        import signal

        done = threading.Event()

        def _quit(_signo, _frame):
            done.set()

        signal.signal(signal.SIGTERM, _quit)
        signal.signal(signal.SIGINT, _quit)
        done.wait()
        self.stop()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        endpoint_id = str(uuid.uuid4())
        write_lock = threading.Lock()
        stream = conn.makefile("rb")
        try:
            while not self._stop.is_set():
                try:
                    msg = wire.read_message(stream)
                except FrameTooLargeError as exc:
                    self._send(conn, write_lock, _error("", "frame-too-large", str(exc)))
                    return
                except MalformedFrameError as exc:
                    self._send(conn, write_lock, _error("", "malformed-frame", str(exc)))
                    return
                if msg is None:
                    return
                if msg.kind == wire.KIND_AUDIT_SUBSCRIBE:
                    self.service.register_pusher(
                        endpoint_id, _EventPusher(conn, write_lock)
                    )
                reply = self.service.handle_request(msg, endpoint_id=endpoint_id)
                self._send(conn, write_lock, reply)
        except OSError:
            pass
        finally:
            self.service.drop_pusher(endpoint_id)
            try:
                stream.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _send(conn: socket.socket, lock: threading.Lock, msg: wire.WireMessage) -> None:
        frame = wire.encode_message(msg)
        try:
            with lock:
                conn.sendall(frame)
        except OSError:
            pass


# ---- client-side endpoint ----------------------------------------------------


class RemoteEndpoint:
    """ResolverEndpoint over one TCP connection.

    Audit events that arrive interleaved with responses are buffered on
    .events; request() skips past them while waiting for its answer.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._stream = None
        self._lock = threading.Lock()
        self.events: List[dict] = []

    def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock = sock
        self._stream = sock.makefile("rb")

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._stream = None

    def __enter__(self) -> "RemoteEndpoint":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, msg: wire.WireMessage) -> wire.WireMessage:
        with self._lock:
            if self._sock is None:
                self.connect()
            assert self._sock is not None and self._stream is not None
            self._sock.sendall(wire.encode_message(msg))
            while True:
                reply = wire.read_message(self._stream)
                if reply is None:
                    raise MalformedFrameError("connection closed awaiting a response")
                if reply.kind == wire.KIND_AUDIT_EVENT:
                    self.events.append(reply.body)
                    continue
                if reply.correlation_id != msg.correlation_id:
                    continue
                return reply

    def read_event(self, timeout: float = 5.0) -> Optional[dict]:
        """Block for one pushed audit event (outside of a request)."""
        if self.events:
            return self.events.pop(0)
        assert self._sock is not None and self._stream is not None
        self._sock.settimeout(timeout)
        try:
            reply = wire.read_message(self._stream)
        except socket.timeout:
            return None
        finally:
            self._sock.settimeout(self.timeout)
        if reply is not None and reply.kind == wire.KIND_AUDIT_EVENT:
            return reply.body
        return None

    # -- ResolverEndpoint protocol --

    def _call(self, kind: str, body: dict) -> dict:
        reply = self.request(wire.WireMessage(kind, str(uuid.uuid4()), body))
        if reply.kind == wire.KIND_ERROR:
            code = str(reply.body.get("error", "error"))
            detail = str(reply.body.get("detail", ""))
            if code == "delegation-loop":
                raise DelegationLoopError(detail)
            if code == "depth-exceeded":
                raise DepthExceededError(detail)
            raise OnhsError(f"{code}: {detail}")
        return reply.body

    def resolve(
        self,
        handle: Handle,
        depth_budget: Optional[int] = None,
        now: Optional[str] = None,
    ) -> Resolution:
        body: dict = {"handle": handle.fqdn_no_dot()}
        if depth_budget is not None:
            body["depth_budget"] = depth_budget
        data = self._call(wire.KIND_QUERY_RESOLVE, body)
        return Resolution.from_dict(data["resolution"])

    def query_record(
        self, handle: Handle, rtype: str, now: Optional[str] = None
    ) -> RecordAnswer:
        data = self._call(
            wire.KIND_QUERY_RECORD, {"handle": handle.fqdn_no_dot(), "rtype": rtype}
        )
        return RecordAnswer.from_dict(data["answer"])

    def apply_update(self, msg: UpdateMessage, now: Optional[str] = None) -> Verdict:
        data = self._call(wire.KIND_UPDATE, {"update": msg.to_dict()})
        return _verdict_from_dict(data["verdict"])

    def subscribe_audit(
        self, handle: Handle, *, owner: bool = False, backlog: bool = True
    ) -> Tuple[Verdict, List[dict]]:
        data = self._call(
            wire.KIND_AUDIT_SUBSCRIBE,
            {"handle": handle.fqdn_no_dot(), "owner": owner, "backlog": backlog},
        )
        return _verdict_from_dict(data["verdict"]), list(data.get("backlog", []))
