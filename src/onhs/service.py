"""Process-level plumbing: config, durability, and the TCP front end.

The durable unit is one line in updates.log per apply_update call, flushed
and fsynced before the verdict leaves the process, so a killed server
replays to exactly the state its clients observed. Replay feeds each
logged update back through the normal path using the logged arrival
timestamp as the clock, which keeps signature-window decisions stable
across restarts. A server that logs updates holds its data directory's
lock (serve.lock) while it runs, so no two append to one log.

Each TCP connection keeps, at both ends, the slot table of the KEY and
NXT sets its answers have carried (codec.SET_SLOTS); it lives and ends
with the connection.
"""

from __future__ import annotations

import contextlib
import fcntl
import itertools
import os
import socket
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import crypto, wire
from .codec import (
    ReaderSlots,
    RecordAnswer,
    Resolution,
    UpdateMessage,
    Verdict,
    WriterSlots,
    body_field,
    decode_log_line,
    optional_field,
)
from .errors import (
    DataDirInUseError,
    DelegationLoopError,
    DepthExceededError,
    FrameTooLargeError,
    LogFormatError,
    MalformedFrameError,
    OnhsError,
)
from .handles import Handle, parse_handle
from .server import DEFAULT_AUDIT_CAP, AuditSubscriber, HandleServer

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 4431


# ---- configuration ---------------------------------------------------------


@dataclass
class ServerConfig:
    root_zone: str
    listen_host: str = DEFAULT_HOST
    listen_port: int = DEFAULT_PORT
    data_dir: str = "./onhs-data"
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
            cfg.listen_host = host or DEFAULT_HOST
            cfg.listen_port = int(port)
        if "data_dir" in values:
            cfg.data_dir = values["data_dir"]
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
    """Append-only file: base64 canonical update, verdict tag, timestamp.

    The lines are also the store's update history: each entry keeps the
    byte offsets of its lines, and read_at reads them back.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = None
        self.dropped_tail = 0  # bytes of a torn last line left out at replay

    def open_for_append(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")

    def append(self, line: str) -> int:
        """Write one line and fsync it; returns the byte offset it starts at."""
        assert self._fh is not None, "log not opened"
        start = self._fh.tell()
        self._fh.write(line.encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return start

    def read_at(self, offsets: List[int]) -> List[bytes]:
        """The lines that start at these byte offsets."""
        with open(self.path, "rb") as fh:
            out = []
            for offset in offsets:
                fh.seek(offset)
                out.append(fh.readline())
            return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def replay_into(self, server: HandleServer, *, repair: bool = True) -> int:
        """Re-apply every logged update; returns the number applied.

        A last line with no newline is an append a crash cut short. If it
        does not decode, it is left out and its length kept in dropped_tail;
        if it does, it is applied. With repair, the file is then mended so
        the next append starts a line of its own: a torn line is cut off,
        a missing newline restored. Without it, the file is only read. Any
        other line that does not decode, a blank one as well, since the
        writer never writes one, raises LogFormatError naming its line
        number.
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
                try:
                    msg, _, stamp = decode_log_line(raw)
                except (ValueError, KeyError, TypeError, OnhsError) as exc:
                    if raw.endswith(b"\n"):
                        raise LogFormatError(f"{self.path} line {number}: {exc}") from exc
                    torn_at = start
                    break
                server.apply_update(msg, now=stamp, logged_at=start)
                count += 1
        if torn_at is not None:
            self.dropped_tail = end - torn_at
        if not repair:
            return count
        if torn_at is not None:
            with open(self.path, "r+b") as fh:
                fh.truncate(torn_at)
                os.fsync(fh.fileno())
        elif not raw.endswith(b"\n"):
            with open(self.path, "ab") as fh:
                fh.write(b"\n")
                os.fsync(fh.fileno())
        return count


LOCK_FILE = "serve.lock"


def _lock_data_dir(data_dir: Path):
    """The open lock file of data_dir, holding an exclusive flock on it
    until it is closed; DataDirInUseError when another holds the lock."""
    fh = open(data_dir / LOCK_FILE, "ab")
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        fh.close()
        raise DataDirInUseError(
            f"data directory {data_dir} is in use by another server"
        ) from None
    return fh


# ---- request dispatch (shared by sockets and in-process use) ----------------


class HandleService:
    """Owns a HandleServer plus its durability; answers wire messages.

    A service that logs updates owns its data directory: it holds an
    exclusive lock on the directory's serve.lock from before replay until
    close(), so two servers never append to one log. A read_only service
    replays the log without mending it, never opens it for append and
    takes no lock, so a command that only reads the store can run beside
    a live server on the same data directory; it logs no update. It
    writes nothing at all: it refuses a data directory that does not
    exist, with FileNotFoundError, and where no server.key is kept it
    signs with a key made for that run only.
    """

    def __init__(self, config: ServerConfig, *, read_only: bool = False):
        self.config = config
        data_dir = Path(config.data_dir)
        self._lock_file = None
        if read_only and not data_dir.is_dir():
            raise FileNotFoundError(f"data directory {data_dir} does not exist")
        if not read_only:
            data_dir.mkdir(parents=True, exist_ok=True)
            self._lock_file = _lock_data_dir(data_dir)
        self.log = UpdateLog(data_dir / "updates.log")
        try:
            key_path = data_dir / "server.key"
            if key_path.exists():
                secret = crypto.load_secret_key(key_path)
            else:
                _, secret = crypto.generate_keypair(crypto.DEFAULT_ALGORITHM)
                if not read_only:  # else a key for this run only
                    crypto.save_secret_key(key_path, secret)
            self.server = HandleServer(config.root_zone, secret, audit_cap=config.audit_cap)
            self.replayed = self.log.replay_into(self.server, repair=not read_only)
            if not read_only:
                self.log.open_for_append()
                self.server.set_log_writer(self.log.append)
        except BaseException:
            self.log.close()
            self._unlock()
            raise

    def close(self) -> None:
        self.server.set_log_writer(None)
        self.log.close()
        self._unlock()

    def _unlock(self) -> None:
        if self._lock_file is not None:
            self._lock_file.close()  # which releases the flock
            self._lock_file = None

    def entry_log(self, handle: Handle) -> List[Tuple[UpdateMessage, Verdict]]:
        """The updates to handle with their verdicts, oldest first, read back
        from the log; a verdict keeps its reason but not its detail."""
        lines = self.log.read_at(self.server.entry_log_offsets(handle))
        return [decode_log_line(raw)[:2] for raw in lines]

    # -- dispatch --

    def handle_request(
        self,
        msg: wire.WireMessage,
        endpoint_id: Optional[str] = None,
        slots: Optional[WriterSlots] = None,
    ) -> wire.WireMessage:
        """The reply to msg. slots is the writer table of the connection
        msg came on, if any: the answer names each KEY and NXT set that
        connection has carried by its slot (codec.SET_SLOTS)."""
        try:
            return self._dispatch(msg, endpoint_id, slots)
        except (DelegationLoopError, DepthExceededError) as exc:
            code = (
                "delegation-loop"
                if isinstance(exc, DelegationLoopError)
                else "depth-exceeded"
            )
            return _error(msg.correlation_id, code, str(exc))
        except (OnhsError, KeyError, ValueError, TypeError) as exc:
            return _error(msg.correlation_id, "bad-request", str(exc))

    def _dispatch(
        self, msg: wire.WireMessage, endpoint_id: Optional[str], slots: Optional[WriterSlots]
    ) -> wire.WireMessage:
        body = msg.body
        root = self.config.root_zone
        if msg.kind == wire.KIND_QUERY_RESOLVE:
            handle = parse_handle(body_field(body, "handle", str, "resolve request"), root)
            budget = optional_field(body, "depth_budget", int, "resolve request")
            resolution = self.server.resolve(handle, budget)
            return _response(msg.correlation_id, {"resolution": resolution.to_dict(slots)})
        if msg.kind == wire.KIND_QUERY_RECORD:
            handle = parse_handle(body_field(body, "handle", str, "record query"), root)
            answer = self.server.query_record(
                handle, body_field(body, "rtype", str, "record query")
            )
            return _response(msg.correlation_id, {"answer": answer.to_dict(slots)})
        if msg.kind == wire.KIND_UPDATE:
            update = UpdateMessage.from_dict(body_field(body, "update", dict, "update request"))
            verdict = self.server.apply_update(update)
            return _response(msg.correlation_id, {"verdict": verdict.to_dict()})
        if msg.kind == wire.KIND_AUDIT_SUBSCRIBE:
            handle = parse_handle(body_field(body, "handle", str, "audit subscription"), root)
            owner = optional_field(body, "owner", bool, "audit subscription", False)
            send_backlog = optional_field(body, "backlog", bool, "audit subscription", True)
            sub_id = endpoint_id or _new_endpoint_id()
            verdict = self.server.subscribe_audit(handle, sub_id, owner=owner)
            backlog = []
            if verdict.accepted and send_backlog:
                backlog = [
                    {"update": u.to_dict(), "verdict": v.to_dict()}
                    for u, v in self.entry_log(handle)
                ]
            return _response(
                msg.correlation_id,
                {
                    "verdict": verdict.to_dict(),
                    "endpoint_id": sub_id,
                    "backlog": backlog,
                },
            )
        return _error(msg.correlation_id, "bad-request", f"cannot serve kind {msg.kind}")


def _response(correlation_id: str, body: dict) -> wire.WireMessage:
    return wire.WireMessage(wire.KIND_RESPONSE, correlation_id, body)


def _error(correlation_id: str, code: str, detail: str) -> wire.WireMessage:
    return wire.WireMessage(
        wire.KIND_ERROR, correlation_id, {"error": code, "detail": detail}
    )


def _new_endpoint_id() -> str:
    """32 random hex digits naming one connection's audit subscriptions.
    The server makes each id and only echoes it in a subscription reply."""
    return os.urandom(16).hex()


# ---- TCP front end -----------------------------------------------------------


def _on_stop_signal(_signo, _frame) -> None:
    """Nothing: TcpHandleServer.serve_forever wakes on the byte the signal
    writes to its wakeup socket."""


class TcpHandleServer:
    """Threaded socket server: per connection a reader thread, and a writer if it subscribes."""

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
            with contextlib.suppress(OSError):
                self._listener.close()
        self.service.close()

    def serve_forever(self) -> None:
        """Block until SIGTERM or SIGINT, then stop; used by the command
        line front end. The handlers do nothing and take no lock: each
        signal writes a byte to a wakeup socket (signal.set_wakeup_fd) that
        this thread waits on, so a signal that lands anywhere, a later one
        during stop() as well, cannot block the thread it interrupts."""
        import signal

        waiting, waking = socket.socketpair()
        with waiting, waking:
            waking.setblocking(False)
            previous = signal.set_wakeup_fd(waking.fileno())
            try:
                signal.signal(signal.SIGTERM, _on_stop_signal)
                signal.signal(signal.SIGINT, _on_stop_signal)
                waiting.recv(1)
            finally:
                signal.set_wakeup_fd(previous)
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
        """Answer conn's requests in order. Its first accepted subscription
        starts a writer that sends its audit events; when conn ends, so do
        its subscriptions and the writer. Its answers share one writer
        table of the sets they carry, which ends with conn."""
        endpoint_id = _new_endpoint_id()
        slots: WriterSlots = {}
        write_lock = threading.Lock()
        writer: Optional[threading.Thread] = None

        def send(msg: wire.WireMessage) -> None:
            frame = wire.encode_message(msg)
            with write_lock:
                conn.sendall(frame)

        def send_events(sub: AuditSubscriber) -> None:
            with contextlib.suppress(OSError):
                while (event := sub.take()) is not None:
                    body = event.to_dict()
                    send(wire.WireMessage(wire.KIND_AUDIT_EVENT, f"event-{event.seq}", body))

        try:
            with conn.makefile("rb") as stream:
                while not self._stop.is_set():
                    try:
                        msg = wire.read_message(stream)
                    except FrameTooLargeError as exc:
                        send(_error("", "frame-too-large", str(exc)))
                        return
                    except MalformedFrameError as exc:
                        send(_error("", "malformed-frame", str(exc)))
                        return
                    if msg is None:
                        return
                    send(self.service.handle_request(msg, endpoint_id=endpoint_id, slots=slots))
                    if writer is None and msg.kind == wire.KIND_AUDIT_SUBSCRIBE:
                        sub = self.service.server.audit_subscriber(endpoint_id)
                        if sub is not None:
                            writer = threading.Thread(target=send_events, args=(sub,), daemon=True)
                            writer.start()
        except OSError:
            pass
        finally:
            self.service.server.end_audit(endpoint_id)
            if writer is not None:
                # wakes a writer blocked in sendall; end_audit woke one waiting for events
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
                writer.join()
            conn.close()


# ---- client-side endpoint ----------------------------------------------------


class RemoteEndpoint:
    """ResolverEndpoint over one TCP connection.

    Audit events that arrive interleaved with responses are buffered on
    .events; request() skips past them while waiting for its answer.
    Correlation ids are this endpoint's request numbers: "1", "2", ...

    Each connection keeps the reader table of the sets its answers carry
    (codec.SET_SLOTS), in step with the server's writer table: connect()
    starts a fresh one, and answers are read in the order they arrive. A
    request that fails on the way, by a timeout or a reply that does not
    read, closes the connection, so the two tables start over together.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._stream = None
        self._slots: ReaderSlots = {}
        # an RLock: _call holds it from the request until its answer is read
        self._lock = threading.RLock()
        self.events: List[dict] = []
        self._ids = itertools.count(1)

    def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock = sock
        self._stream = sock.makefile("rb")
        self._slots = {}

    def close(self) -> None:
        if self._stream is not None:
            with contextlib.suppress(OSError):
                self._stream.close()
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
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
            try:
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
            except BaseException:
                self.close()
                raise

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

    def _call(self, kind: str, body: dict, read=None):
        """The body of the reply to a request of kind, or what read(body,
        slots) gives for it, read before the next request is sent."""
        with self._lock:
            reply = self.request(wire.WireMessage(kind, str(next(self._ids)), body))
            if reply.kind == wire.KIND_ERROR:
                code = body_field(reply.body, "error", str, "error reply")
                detail = body_field(reply.body, "detail", str, "error reply")
                if code == "delegation-loop":
                    raise DelegationLoopError(detail)
                if code == "depth-exceeded":
                    raise DepthExceededError(detail)
                raise OnhsError(f"{code}: {detail}")
            if read is None:
                return reply.body
            try:
                return read(reply.body, self._slots)
            except BaseException:
                self.close()
                raise

    def resolve(
        self,
        handle: Handle,
        depth_budget: Optional[int] = None,
        now: Optional[str] = None,
    ) -> Resolution:
        body: dict = {"handle": handle.fqdn_no_dot()}
        if depth_budget is not None:
            body["depth_budget"] = depth_budget
        return self._call(wire.KIND_QUERY_RESOLVE, body, _read_resolution)

    def query_record(
        self, handle: Handle, rtype: str, now: Optional[str] = None
    ) -> RecordAnswer:
        return self._call(
            wire.KIND_QUERY_RECORD, {"handle": handle.fqdn_no_dot(), "rtype": rtype},
            _read_record_answer,
        )

    def apply_update(self, msg: UpdateMessage, now: Optional[str] = None) -> Verdict:
        data = self._call(wire.KIND_UPDATE, {"update": msg.to_dict()})
        return Verdict.from_dict(body_field(data, "verdict", dict, "update reply"))

    def subscribe_audit(
        self, handle: Handle, *, owner: bool = False, backlog: bool = True
    ) -> Tuple[Verdict, List[dict]]:
        data = self._call(
            wire.KIND_AUDIT_SUBSCRIBE,
            {"handle": handle.fqdn_no_dot(), "owner": owner, "backlog": backlog},
        )
        verdict = Verdict.from_dict(body_field(data, "verdict", dict, "audit reply"))
        return verdict, body_field(data, "backlog", list, "audit reply")


def _read_resolution(data: dict, slots: ReaderSlots) -> Resolution:
    return Resolution.from_dict(body_field(data, "resolution", dict, "resolve reply"), slots)


def _read_record_answer(data: dict, slots: ReaderSlots) -> RecordAnswer:
    return RecordAnswer.from_dict(body_field(data, "answer", dict, "record reply"), slots)
