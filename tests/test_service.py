"""Config, durability, and the TCP front end."""

import base64
import json
import socket
import struct
import threading
import uuid

import pytest

from conftest import ROOT

from onhs import wire
from onhs.client import verify_resolution
from onhs.errors import DelegationLoopError, LogFormatError, OnhsError
from onhs.handles import HandleLabel, parse_handle
from onhs.server import (
    OUTCOME_ADDRESS,
    make_assign,
    make_claim,
    make_create_child,
    make_delegate,
)
from onhs.service import (
    DEFAULT_PORT,
    HandleService,
    RemoteEndpoint,
    ServerConfig,
    TcpHandleServer,
)

IA = HandleLabel.ia


class TestConfig:
    def test_minimal_config_uses_defaults(self):
        cfg = ServerConfig.parse(f"root_zone = {ROOT}\n")
        assert cfg.root_zone == ROOT
        assert cfg.listen_host == "127.0.0.1"
        assert cfg.listen_port == DEFAULT_PORT
        assert cfg.depth_budget == 16
        assert cfg.audit_cap == 8

    def test_full_config_parses(self):
        text = "\n".join(
            [
                "# server settings",
                f"root_zone = {ROOT}",
                "",
                "listen = 0.0.0.0:5310",
                "data_dir = /var/lib/onhs",
                "depth_budget = 8",
                "audit_cap = 3",
            ]
        )
        cfg = ServerConfig.parse(text)
        assert (cfg.listen_host, cfg.listen_port) == ("0.0.0.0", 5310)
        assert cfg.data_dir == "/var/lib/onhs"
        assert cfg.depth_budget == 8
        assert cfg.audit_cap == 3

    def test_listen_port_only(self):
        cfg = ServerConfig.parse(f"root_zone={ROOT}\nlisten=6000\n")
        assert (cfg.listen_host, cfg.listen_port) == ("127.0.0.1", 6000)

    def test_root_zone_required(self):
        with pytest.raises(ValueError):
            ServerConfig.parse("listen = :4431\n")

    def test_non_assignment_line_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig.parse(f"root_zone {ROOT}\n")

    def test_environment_overrides_data_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ONHS_DATA_DIR", str(tmp_path / "elsewhere"))
        cfg = ServerConfig.parse(f"root_zone={ROOT}\ndata_dir=/ignored\n")
        assert cfg.data_dir == str(tmp_path / "elsewhere")

    def test_load_reads_a_file(self, tmp_path):
        path = tmp_path / "onhs.conf"
        path.write_text(f"root_zone = {ROOT}\n")
        assert ServerConfig.load(path).root_zone == ROOT


def service_config(tmp_path) -> ServerConfig:
    cfg = ServerConfig(root_zone=ROOT)
    cfg.data_dir = str(tmp_path / "data")
    cfg.listen_port = 0
    return cfg


class TestDurability:
    def populate(self, service, keypool):
        _, sec1 = keypool.key(0)
        _, sec2 = keypool.key(1)
        claim = make_claim(sec1, ROOT, 16, 1)
        assert service.server.apply_update(claim).accepted
        apex = parse_handle(claim.target, ROOT)
        leaf = apex.child(IA("1"))
        assert service.server.apply_update(make_create_child(sec1, leaf, 2)).accepted
        assert service.server.apply_update(make_assign(sec1, leaf, "10.0.0.1", 3)).accepted
        # one rejected update, logged all the same
        foreign = make_assign(sec2, apex.child(IA("2")), "10.0.0.2", 4)
        assert not service.server.apply_update(foreign).accepted
        return leaf

    def test_restart_replays_to_identical_state(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg, key_bits=1024)
        leaf = self.populate(service, keypool)
        state = service.server.dump_state()
        key_bytes = service.server.server_key.key_bytes
        service.close()

        reborn = HandleService(cfg, key_bits=1024)
        try:
            assert reborn.replayed == 4
            assert reborn.server.dump_state() == state
            assert reborn.server.server_key.key_bytes == key_bytes
            got = reborn.server.resolve(leaf)
            assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "10.0.0.1")
        finally:
            reborn.close()

    def test_log_lines_are_replayable_records(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg, key_bits=1024)
        self.populate(service, keypool)
        service.close()

        lines = (tmp_path / "data" / "updates.log").read_text().splitlines()
        assert len(lines) == 4
        tags = []
        for line in lines:
            blob, tag, stamp = line.split(" ")
            decoded = json.loads(base64.b64decode(blob, validate=True))
            assert {"target", "action", "payload", "serial"} <= decoded.keys()
            assert len(stamp) == 14 and stamp.isdigit()
            tags.append(tag)
        assert tags[:3] == ["accepted"] * 3
        assert tags[3].startswith("rejected:")

    def test_double_restart_is_stable(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg, key_bits=1024)
        self.populate(service, keypool)
        state = service.server.dump_state()
        service.close()
        for _ in range(2):
            service = HandleService(cfg, key_bits=1024)
            assert service.server.dump_state() == state
            service.close()
        # the log did not grow from replaying
        lines = (tmp_path / "data" / "updates.log").read_text().splitlines()
        assert len(lines) == 4

    def test_torn_last_line_is_cut_off_and_reported(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg, key_bits=1024)
        leaf = self.populate(service, keypool)
        service.close()
        log = tmp_path / "data" / "updates.log"
        whole = log.read_bytes()
        last = whole[whole.rindex(b"\n", 0, len(whole) - 1) + 1:]
        log.write_bytes(whole[:-7])  # a crash inside the last timestamp

        reborn = HandleService(cfg, key_bits=1024)
        assert reborn.replayed == 3
        assert reborn.log.dropped_tail == len(last) - 7
        assert log.read_bytes() == whole[:-len(last)]
        _, sec1 = keypool.key(0)
        assert reborn.server.apply_update(make_assign(sec1, leaf, "10.0.0.9", 5)).accepted
        reborn.close()

        again = HandleService(cfg, key_bits=1024)
        try:
            assert again.replayed == 4
            assert again.log.dropped_tail == 0
            got = again.server.resolve(leaf)
            assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "10.0.0.9")
        finally:
            again.close()

    def test_complete_last_line_missing_its_newline_is_kept(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg, key_bits=1024)
        leaf = self.populate(service, keypool)
        state = service.server.dump_state()
        service.close()
        log = tmp_path / "data" / "updates.log"
        log.write_bytes(log.read_bytes()[:-1])

        reborn = HandleService(cfg, key_bits=1024)
        assert reborn.replayed == 4
        assert reborn.log.dropped_tail == 0
        assert reborn.server.dump_state() == state
        _, sec1 = keypool.key(0)
        assert reborn.server.apply_update(make_assign(sec1, leaf, "10.0.0.9", 5)).accepted
        reborn.close()
        assert len(log.read_text().splitlines()) == 5

    def test_bad_line_before_the_end_names_its_line(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg, key_bits=1024)
        self.populate(service, keypool)
        service.close()
        log = tmp_path / "data" / "updates.log"
        lines = log.read_bytes().split(b"\n")
        lines[1] = lines[1][:-7]
        log.write_bytes(b"\n".join(lines))
        with pytest.raises(LogFormatError, match="line 2"):
            HandleService(cfg, key_bits=1024)
        # a complete last line that does not decode is corruption too
        lines = log.read_bytes().split(b"\n")
        lines[1] = lines[0]
        lines[3] = b"not an update 20260816120000"
        log.write_bytes(b"\n".join(lines))
        with pytest.raises(LogFormatError, match="line 4"):
            HandleService(cfg, key_bits=1024)


@pytest.fixture()
def tcp_server(tmp_path):
    cfg = service_config(tmp_path)
    service = HandleService(cfg, key_bits=1024)
    front = TcpHandleServer(service)
    port = front.start()
    yield front, port
    front.stop()


def raw_exchange(port: int, payload: bytes, max_frames: int = 4):
    """Send raw bytes; collect reply frames until the server closes."""
    frames = []
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(payload)
        stream = sock.makefile("rb")
        for _ in range(max_frames):
            try:
                msg = wire.read_message(stream)
            except OnhsError:
                break
            if msg is None:
                break
            frames.append(msg)
    return frames


class TestTcp:
    def test_update_resolve_query_round_trip(self, tcp_server, keypool):
        _, port = tcp_server
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        leaf = apex.child(IA("1"))
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            assert endpoint.apply_update(claim).accepted
            assert endpoint.apply_update(make_assign(sec, leaf, "10.0.0.1", 2)).accepted
            res = endpoint.resolve(leaf)
            assert (res.outcome, res.address) == (OUTCOME_ADDRESS, "10.0.0.1")
            checked = verify_resolution(res, leaf, ROOT)
            assert checked.verified, checked.failures
            answer = endpoint.query_record(leaf, "A")
            assert answer.found
            assert answer.rrset.records[0].rdata == "10.0.0.1"

    def test_rejected_update_reports_reason(self, tcp_server, keypool):
        _, port = tcp_server
        _, sec1 = keypool.key(0)
        _, sec2 = keypool.key(1)
        claim = make_claim(sec1, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            assert endpoint.apply_update(claim).accepted
            verdict = endpoint.apply_update(
                make_assign(sec2, apex.child(IA("1")), "10.0.0.2", 2)
            )
            assert not verdict.accepted
            assert verdict.reason == "wrong-authority"

    def test_delegation_loop_crosses_the_wire(self, tcp_server, keypool):
        _, port = tcp_server
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        a, b = apex.child(IA("1")), apex.child(IA("2"))
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            assert endpoint.apply_update(claim).accepted
            assert endpoint.apply_update(make_delegate(sec, a, b, 2)).accepted
            assert endpoint.apply_update(make_delegate(sec, b, a, 3)).accepted
            with pytest.raises(DelegationLoopError):
                endpoint.resolve(a)

    def test_bad_request_surfaces_as_error(self, tcp_server):
        _, port = tcp_server
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            reply = endpoint.request(
                wire.WireMessage(
                    wire.KIND_QUERY_RESOLVE, str(uuid.uuid4()), {"handle": "!!not-a-name"}
                )
            )
            assert reply.kind == wire.KIND_ERROR
            assert reply.body["error"] == "bad-request"

    def test_client_sent_event_kind_is_refused(self, tcp_server):
        _, port = tcp_server
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            reply = endpoint.request(
                wire.WireMessage(wire.KIND_AUDIT_EVENT, "c-1", {"seq": 1})
            )
            assert reply.kind == wire.KIND_ERROR

    def test_malformed_frame_gets_error_then_close(self, tcp_server):
        _, port = tcp_server
        junk = struct.pack(">I", 9) + b"not json!"
        frames = raw_exchange(port, junk)
        assert len(frames) == 1
        assert frames[0].kind == wire.KIND_ERROR
        assert frames[0].body["error"] == "malformed-frame"

    def test_oversize_frame_gets_error_then_close(self, tcp_server):
        _, port = tcp_server
        frames = raw_exchange(port, struct.pack(">I", wire.MAX_FRAME_BYTES + 1))
        assert len(frames) == 1
        assert frames[0].body["error"] == "frame-too-large"

    def test_flooding_connection_does_not_disturb_others(self, tcp_server, keypool):
        _, port = tcp_server
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            assert endpoint.apply_update(claim).accepted
            raw_exchange(port, b"\x00\x00\x00\x04abcd" * 3)
            res = endpoint.resolve(apex.child(IA("1")))
            assert res.outcome == "NOT_FOUND"

    def test_concurrent_clients_get_their_own_answers(self, tcp_server, keypool):
        _, port = tcp_server
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        leaves = [apex.child(IA(str(i))) for i in range(1, 7)]
        with RemoteEndpoint("127.0.0.1", port) as endpoint:
            assert endpoint.apply_update(claim).accepted
            for i, leaf in enumerate(leaves, start=2):
                assert endpoint.apply_update(
                    make_assign(sec, leaf, f"10.0.0.{i}", i)
                ).accepted

        results = {}
        errors = []

        def worker(leaf, expected):
            try:
                with RemoteEndpoint("127.0.0.1", port) as ep:
                    for _ in range(5):
                        res = ep.resolve(leaf)
                        if res.address != expected:
                            errors.append((leaf, res.address))
                    results[leaf.name_key()] = res.address
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((leaf, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(leaf, f"10.0.0.{i}"))
            for i, leaf in enumerate(leaves, start=2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert len(results) == len(leaves)

    def test_audit_subscribe_backlog_and_push(self, tcp_server, keypool):
        _, port = tcp_server
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        leaf = apex.child(IA("1"))
        with RemoteEndpoint("127.0.0.1", port) as writer:
            assert writer.apply_update(claim).accepted
            assert writer.apply_update(make_create_child(sec, leaf, 2)).accepted
            assert writer.apply_update(make_assign(sec, leaf, "10.0.0.1", 3)).accepted

            with RemoteEndpoint("127.0.0.1", port) as watcher:
                verdict, backlog = watcher.subscribe_audit(leaf)
                assert verdict.accepted
                assert [e["update"]["action"] for e in backlog] == [
                    "CREATE_CHILD",
                    "ASSIGN",
                ]
                # a later update is pushed to the watcher's connection
                assert writer.apply_update(
                    make_assign(sec, leaf, "10.0.0.9", 4)
                ).accepted
                event = watcher.read_event(timeout=10)
                assert event is not None
                assert event["update"]["action"] == "ASSIGN"
                assert event["update"]["serial"] == 4
                assert event["verdict"]["accepted"] is True

    def test_restarted_server_serves_the_old_state(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg, key_bits=1024)
        front = TcpHandleServer(service)
        port = front.start()
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        leaf = apex.child(IA("1"))
        try:
            with RemoteEndpoint("127.0.0.1", port) as endpoint:
                assert endpoint.apply_update(claim).accepted
                assert endpoint.apply_update(make_assign(sec, leaf, "10.0.0.1", 2)).accepted
        finally:
            front.stop()

        service2 = HandleService(cfg, key_bits=1024)
        front2 = TcpHandleServer(service2)
        port2 = front2.start()
        try:
            with RemoteEndpoint("127.0.0.1", port2) as endpoint:
                res = endpoint.resolve(leaf)
                assert (res.outcome, res.address) == (OUTCOME_ADDRESS, "10.0.0.1")
                checked = verify_resolution(res, leaf, ROOT)
                assert checked.verified, checked.failures
        finally:
            front2.stop()
