"""Config, durability, and the TCP front end."""

import base64
import gc
import json
import socket
import struct
import threading
import types
import uuid
from dataclasses import replace

import pytest

from conftest import FIXED_NOW, ROOT, new_service, with_server_key

from onhs import crypto, server as srv, wire
from onhs.client import verify_resolution
from onhs.errors import DataDirInUseError, DelegationLoopError, LogFormatError, OnhsError
from onhs.handles import HandleLabel, parse_handle
from onhs.server import (
    OUTCOME_ADDRESS,
    R_KEY_LABEL_MISMATCH,
    R_WRONG_AUTHORITY,
    HandleEntry,
    UpdateMessage,
    make_assign,
    make_claim,
    make_compromise,
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
        assert cfg.audit_cap == 8

    def test_full_config_parses(self):
        text = "\n".join(
            [
                "# server settings",
                f"root_zone = {ROOT}",
                "",
                "listen = 0.0.0.0:5310",
                "data_dir = /var/lib/onhs",
                "audit_cap = 3",
            ]
        )
        cfg = ServerConfig.parse(text)
        assert (cfg.listen_host, cfg.listen_port) == ("0.0.0.0", 5310)
        assert cfg.data_dir == "/var/lib/onhs"
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
    return with_server_key(cfg)


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
        service = HandleService(cfg)
        leaf = self.populate(service, keypool)
        state = service.server.dump_state()
        key_bytes = service.server.server_key.key_bytes
        service.close()

        reborn = HandleService(cfg)
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
        service = HandleService(cfg)
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
        service = HandleService(cfg)
        self.populate(service, keypool)
        state = service.server.dump_state()
        service.close()
        for _ in range(2):
            service = HandleService(cfg)
            assert service.server.dump_state() == state
            service.close()
        # the log did not grow from replaying
        lines = (tmp_path / "data" / "updates.log").read_text().splitlines()
        assert len(lines) == 4

    def test_torn_last_line_is_cut_off_and_reported(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg)
        leaf = self.populate(service, keypool)
        service.close()
        log = tmp_path / "data" / "updates.log"
        whole = log.read_bytes()
        last = whole[whole.rindex(b"\n", 0, len(whole) - 1) + 1:]
        log.write_bytes(whole[:-7])  # a crash inside the last timestamp

        reborn = HandleService(cfg)
        assert reborn.replayed == 3
        assert reborn.log.dropped_tail == len(last) - 7
        assert log.read_bytes() == whole[:-len(last)]
        _, sec1 = keypool.key(0)
        assert reborn.server.apply_update(make_assign(sec1, leaf, "10.0.0.9", 5)).accepted
        reborn.close()

        again = HandleService(cfg)
        try:
            assert again.replayed == 4
            assert again.log.dropped_tail == 0
            got = again.server.resolve(leaf)
            assert (got.outcome, got.address) == (OUTCOME_ADDRESS, "10.0.0.9")
        finally:
            again.close()

    def test_complete_last_line_missing_its_newline_is_kept(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg)
        leaf = self.populate(service, keypool)
        state = service.server.dump_state()
        service.close()
        log = tmp_path / "data" / "updates.log"
        log.write_bytes(log.read_bytes()[:-1])

        reborn = HandleService(cfg)
        assert reborn.replayed == 4
        assert reborn.log.dropped_tail == 0
        assert reborn.server.dump_state() == state
        _, sec1 = keypool.key(0)
        assert reborn.server.apply_update(make_assign(sec1, leaf, "10.0.0.9", 5)).accepted
        reborn.close()
        assert len(log.read_text().splitlines()) == 5

    def test_bad_line_before_the_end_names_its_line(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg)
        self.populate(service, keypool)
        service.close()
        log = tmp_path / "data" / "updates.log"
        lines = log.read_bytes().split(b"\n")
        lines[1] = lines[1][:-7]
        log.write_bytes(b"\n".join(lines))
        with pytest.raises(LogFormatError, match="line 2"):
            HandleService(cfg)
        # a complete last line that does not decode is corruption too
        lines = log.read_bytes().split(b"\n")
        lines[1] = lines[0]
        lines[3] = b"not an update 20260816120000"
        log.write_bytes(b"\n".join(lines))
        with pytest.raises(LogFormatError, match="line 4"):
            HandleService(cfg)

    @pytest.mark.parametrize("depth, why", [
        (1000, "nested too deep to read"), (100, "nests deeper than 16 levels"),
    ])
    def test_a_line_nested_too_deep_names_its_line(self, tmp_path, keypool, depth, why):
        cfg = service_config(tmp_path)
        service = HandleService(cfg)
        self.populate(service, keypool)
        service.close()
        log = tmp_path / "data" / "updates.log"
        lines = log.read_bytes().split(b"\n")
        update = json.loads(base64.b64decode(lines[1].split(b" ")[0]))
        update["payload"]["x"] = "@"
        text = json.dumps(update, sort_keys=True, separators=(",", ":"))
        text = text.replace('"@"', "[" * depth + "]" * depth)
        lines[1] = b" ".join([base64.b64encode(text.encode())] + lines[1].split(b" ")[1:])
        log.write_bytes(b"\n".join(lines))
        with pytest.raises(LogFormatError, match=f"line 2: .*{why}"):
            HandleService(cfg)


class TestOneServerPerDataDir:
    """A service that logs updates holds its data directory's lock from
    before replay until close(); a read-only one takes no lock."""

    def test_a_second_service_is_refused_until_the_first_closes(self, tmp_path):
        cfg = service_config(tmp_path)
        first = HandleService(cfg)
        try:
            with pytest.raises(DataDirInUseError, match=f"data directory {tmp_path / 'data'} "):
                HandleService(cfg)
            HandleService(cfg, read_only=True).close()  # as zone dump and zone load run
        finally:
            first.close()
        third = HandleService(cfg)
        third.close()

    def test_a_constructor_that_raises_lets_the_lock_go(self, tmp_path):
        cfg = service_config(tmp_path)
        log = tmp_path / "data" / "updates.log"
        log.write_bytes(b"not an update 20260816120000\n")
        with pytest.raises(LogFormatError, match="line 1") as caught:
            HandleService(cfg)
        log.unlink()
        HandleService(cfg).close()  # while the failed service is still referenced
        assert caught.traceback


class TestOneRsaKeyPerApex:
    """Update intake binds the signer key through server.bound_apex_keys,
    so the updates to one apex, live or replayed, build its RSA key once."""

    def test_twenty_updates_build_one_rsa_key_live_and_in_replay(
        self, tmp_path, keypool, monkeypatch
    ):
        built = []
        real = crypto._material_to_rsa
        monkeypatch.setattr(crypto, "_material_to_rsa", lambda m: built.append(m) or real(m))
        public, secret = keypool.fresh()  # a key no earlier test has bound
        _, other = keypool.key(1)
        claim = make_claim(secret, ROOT, 16, 1, now=FIXED_NOW)
        apex = parse_handle(claim.target, ROOT)
        updates = [claim]
        for i in range(1, 10):
            updates.append(make_create_child(secret, apex.child(IA(i)), 2 * i, now=FIXED_NOW))
        for i in range(1, 11):
            updates.append(make_assign(secret, apex.child(IA(i)), f"10.0.0.{i}", 30 + i,
                                       now=FIXED_NOW))
        wrong_key = make_assign(other, apex.child(IA(1)), "10.9.9.9", 99, now=FIXED_NOW)
        mismatched_claim = replace(make_claim(other, ROOT, 16, 1, now=FIXED_NOW),
                                   target=claim.target)

        service = new_service(tmp_path / "data")
        for update in updates:
            assert service.server.apply_update(update, now=FIXED_NOW).accepted
        assert service.server.apply_update(wrong_key, now=FIXED_NOW).reason == R_WRONG_AUTHORITY
        assert service.server.apply_update(
            mismatched_claim, now=FIXED_NOW
        ).reason == R_KEY_LABEL_MISMATCH
        assert built == [public.material]
        state = service.server.dump_state()
        service.close()

        srv.bound_apex_keys.cache_clear()  # as a restarted process finds it
        reborn = new_service(tmp_path / "data")
        try:
            assert reborn.replayed == 22
            assert reborn.server.dump_state() == state
            assert built == [public.material] * 2
        finally:
            reborn.close()


def _reachable(root):
    """Every object reachable from root's state, not following classes,
    modules or functions (through which everything is reachable)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.CodeType)
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)


class TestHistoryInTheLog:
    """The audit backlog is read back from updates.log, not kept in memory."""

    def backlog(self, service, handle):
        request = wire.WireMessage(
            wire.KIND_AUDIT_SUBSCRIBE, "c1", {"handle": handle.fqdn_no_dot()}
        )
        reply = service.handle_request(request, endpoint_id="watcher")
        assert reply.kind == wire.KIND_RESPONSE, reply.body
        return [
            (e["update"]["action"], e["update"]["serial"],
             e["verdict"]["accepted"], e["verdict"]["reason"])
            for e in reply.body["backlog"]
        ]

    def test_backlog_survives_restarts_and_a_torn_last_line(self, tmp_path, keypool):
        data = tmp_path / "data"
        service = new_service(data)
        leaf = TestDurability().populate(service, keypool)
        _, sec1 = keypool.key(0)
        _, sec2 = keypool.key(1)
        foreign = make_assign(sec2, leaf, "10.0.0.3", 5)
        assert not service.server.apply_update(foreign).accepted
        before = self.backlog(service, leaf)
        assert before == [
            ("CREATE_CHILD", 2, True, None),
            ("ASSIGN", 3, True, None),
            ("ASSIGN", 5, False, R_WRONG_AUTHORITY),
        ]
        service.close()

        reborn = new_service(data)
        assert self.backlog(reborn, leaf) == before
        assert reborn.server.apply_update(make_assign(sec1, leaf, "10.0.0.6", 6)).accepted
        reborn.close()
        log = data / "updates.log"
        log.write_bytes(log.read_bytes()[:-7])  # a crash inside the last line

        torn = new_service(data)
        try:
            assert torn.log.dropped_tail > 0
            assert self.backlog(torn, leaf) == before
            # lines appended after the cut are found at their offsets
            assert torn.server.apply_update(make_assign(sec1, leaf, "10.0.0.7", 7)).accepted
            assert self.backlog(torn, leaf) == before + [("ASSIGN", 7, True, None)]
        finally:
            torn.close()

    def test_no_update_message_stays_in_the_server(self, logged_service, keypool):
        leaf = TestDurability().populate(logged_service, keypool)
        reached = list(_reachable(logged_service.server))
        assert any(isinstance(o, HandleEntry) for o in reached)
        assert not [o for o in reached if isinstance(o, UpdateMessage)]
        assert len(logged_service.entry_log(leaf)) == 2


class TestMalformedRequests:
    """A malformed body is a bad-request whose detail names the field."""

    APEX = "h1g5k0061A38F9A3540B9." + ROOT

    def detail(self, service, kind, body) -> str:
        reply = service.handle_request(wire.WireMessage(kind, "c-1", body))
        assert reply.kind == wire.KIND_ERROR
        assert reply.body["error"] == "bad-request"
        return reply.body["detail"]

    def test_update_body_that_is_an_array(self, logged_service):
        detail = self.detail(logged_service, wire.KIND_UPDATE, {"update": []})
        assert detail == "update request field 'update' must be an object, not an array"

    def test_update_body_that_is_null(self, logged_service):
        detail = self.detail(logged_service, wire.KIND_UPDATE, {"update": None})
        assert detail == "update request field 'update' must be an object, not null"

    def test_update_body_without_fields(self, logged_service):
        detail = self.detail(logged_service, wire.KIND_UPDATE, {"update": {}})
        assert detail == "update lacks field 'target'"

    def test_update_with_a_payload_nested_too_deep(self, logged_service, keypool):
        # deep enough to read as a frame, and to overrun the copy made to log it
        update = make_claim(keypool.key(0)[1], ROOT, 16, 1).to_dict()
        update["payload"]["x"] = "@"
        body = json.dumps({"update": update}, sort_keys=True, separators=(",", ":"))
        body = body.replace('"@"', "[" * 900 + "]" * 900)
        payload = ('{"body":' + body + ',"correlation_id":"c","kind":"UPDATE"}').encode()
        msg = wire.decode_message(struct.pack(">I", len(payload)) + payload)
        reply = logged_service.handle_request(msg)
        assert reply.body == {
            "error": "bad-request",
            "detail": "update field 'payload' nests deeper than 16 levels",
        }
        assert logged_service.server.update_count == 0
        assert logged_service.log.path.read_bytes() == b""

    def test_update_with_a_bare_signer_key(self, logged_service, keypool):
        update = make_claim(keypool.key(0)[1], ROOT, 16, 1).to_dict()
        update["signer_key"] = {}
        detail = self.detail(logged_service, wire.KIND_UPDATE, {"update": update})
        assert detail == "update field 'signer_key' lacks field 'algorithm'"

    def test_update_with_an_oversized_signer_key_binds_nothing(self, logged_service, keypool):
        public, secret = keypool.key(0)
        update = make_claim(secret, ROOT, 16, 1).to_dict()
        oversized = public.key_bytes + b"\x01" * crypto.MAX_KEY_PAYLOAD
        update["signer_key"]["key"] = base64.b64encode(oversized).decode()
        bound = srv.bound_apex_keys.cache_info()
        detail = self.detail(logged_service, wire.KIND_UPDATE, {"update": update})
        assert detail == (
            "update field 'signer_key' field 'key': "
            f"key payload longer than {crypto.MAX_KEY_PAYLOAD} octets"
        )
        # refused before intake binds anything: no lookup, no entry
        assert srv.bound_apex_keys.cache_info() == bound

    def claim(self, keypool, field, inner, value) -> dict:
        update = make_claim(keypool.key(0)[1], ROOT, 16, 1).to_dict()
        update[field][inner] = value
        return {"update": update}

    def test_update_with_a_null_signature_algorithm(self, logged_service, keypool):
        body = self.claim(keypool, "signature", "algorithm", None)
        detail = self.detail(logged_service, wire.KIND_UPDATE, body)
        assert detail == "update field 'signature' field 'algorithm' must be an integer, not null"

    def test_update_with_a_signer_key_that_is_not_base64(self, logged_service, keypool):
        body = self.claim(keypool, "signer_key", "key", "!!")
        detail = self.detail(logged_service, wire.KIND_UPDATE, body)
        assert detail.startswith("update field 'signer_key' field 'key' is not base64: ")

    def test_update_with_a_string_label_count(self, logged_service, keypool):
        body = self.claim(keypool, "signature", "label_count", "x")
        detail = self.detail(logged_service, wire.KIND_UPDATE, body)
        assert detail == (
            "update field 'signature' field 'label_count' must be an integer, not a string"
        )

    def test_update_with_a_bad_signature_stamp(self, logged_service, keypool):
        body = self.claim(keypool, "signature", "expiration", "soon")
        detail = self.detail(logged_service, wire.KIND_UPDATE, body)
        assert detail == "update field 'signature': timestamp 'soon' is not 14 digits"

    def verdict(self, service, update: dict) -> dict:
        reply = service.handle_request(wire.WireMessage(wire.KIND_UPDATE, "c-1", {"update": update}))
        assert reply.kind == wire.KIND_RESPONSE
        return reply.body["verdict"]

    def test_claim_payload_key_that_is_not_base64(self, logged_service, keypool):
        update = make_claim(keypool.key(0)[1], ROOT, 16, 1).to_dict()
        update["payload"]["key"] = "!!"
        verdict = self.verdict(logged_service, update)
        assert (verdict["accepted"], verdict["reason"]) == (False, "malformed")
        assert verdict["detail"].startswith("claim payload field 'key' is not base64: ")

    def test_compromise_payload_with_a_string_label_count(self, logged_service, keypool):
        secret = keypool.key(0)[1]
        claim = make_claim(secret, ROOT, 16, 1)
        assert logged_service.server.apply_update(claim).accepted
        update = make_compromise(secret, parse_handle(claim.target, ROOT), "2026-01-01", 2).to_dict()
        update["payload"]["cancel_signature"]["label_count"] = "x"
        verdict = self.verdict(logged_service, update)
        assert (verdict["accepted"], verdict["reason"]) == (False, "malformed")
        assert verdict["detail"] == (
            "compromise payload field 'cancel_signature' field 'label_count' "
            "must be an integer, not a string"
        )

    def test_resolve_without_handle(self, logged_service):
        detail = self.detail(logged_service, wire.KIND_QUERY_RESOLVE, {})
        assert detail == "resolve request lacks field 'handle'"

    @pytest.mark.parametrize("budget, found", [("4", "a string"), (2.5, "a number"),
                                                (True, "a boolean")])
    def test_resolve_with_a_non_integer_depth_budget(self, logged_service, budget, found):
        body = {"handle": self.APEX, "depth_budget": budget}
        detail = self.detail(logged_service, wire.KIND_QUERY_RESOLVE, body)
        assert detail == f"resolve request field 'depth_budget' must be an integer, not {found}"

    def test_resolve_with_an_integer_depth_budget_is_served(self, logged_service):
        body = {"handle": self.APEX, "depth_budget": 4}
        reply = logged_service.handle_request(
            wire.WireMessage(wire.KIND_QUERY_RESOLVE, "c-1", body)
        )
        assert reply.kind == wire.KIND_RESPONSE
        assert reply.body["resolution"]["outcome"] == "NOT_FOUND"

    def test_a_request_cannot_raise_the_depth_budget(self, logged_service, keypool):
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        assert logged_service.server.apply_update(claim).accepted
        nodes = [parse_handle(claim.target, ROOT).child(IA(str(i))) for i in range(1, 19)]
        for serial, (src, dst) in enumerate(zip(nodes, nodes[1:]), 2):
            assert logged_service.server.apply_update(make_delegate(sec, src, dst, serial)).accepted

        def resolve(first) -> wire.WireMessage:
            body = {"handle": first.fqdn_no_dot(), "depth_budget": 100}
            request = wire.WireMessage(wire.KIND_QUERY_RESOLVE, "c-1", body)
            return logged_service.handle_request(request)

        # seventeen rewrites are one past the default budget, which a request may only lower
        refused = resolve(nodes[0]).body
        assert refused["error"] == "depth-exceeded"
        assert refused["detail"].startswith("depth-exceeded after 16 rewrites")
        assert resolve(nodes[1]).body["resolution"]["outcome"] == "NOT_FOUND"


@pytest.fixture()
def tcp_server(tmp_path):
    cfg = service_config(tmp_path)
    service = HandleService(cfg)
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

    def test_a_frame_nested_too_deep_gets_error_then_close(self, tcp_server):
        _, port = tcp_server
        handle = b"[" * 1000 + b"]" * 1000
        payload = b'{"body":{"handle":' + handle + b'},"correlation_id":"c","kind":"QUERY_RESOLVE"}'
        frames = raw_exchange(port, struct.pack(">I", len(payload)) + payload)
        assert len(frames) == 1
        assert frames[0].body["error"] == "malformed-frame"
        assert "nested too deep" in frames[0].body["detail"]

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

    def test_an_endpoint_numbers_its_requests(self, tcp_server, keypool):
        _, port = tcp_server
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        apex = parse_handle(claim.target, ROOT)
        sent = []
        with RemoteEndpoint("127.0.0.1", port) as endpoint, RemoteEndpoint(
            "127.0.0.1", port
        ) as other:
            request = endpoint.request

            def recorded(msg):
                sent.append(msg.correlation_id)
                reply = request(msg)
                assert reply.correlation_id == msg.correlation_id
                return reply

            endpoint.request = recorded
            assert endpoint.apply_update(claim).accepted
            endpoint.resolve(apex)
            endpoint.resolve(apex.child(IA("1")))
            endpoint.query_record(apex, "KEY")
            other.resolve(apex)  # numbered on its own connection
        assert sent == ["1", "2", "3", "4"]

    def test_a_reply_to_another_request_is_skipped(self):
        """request() returns the reply that carries its id, past an audit
        event and a reply that carries another."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        got = []

        def answer():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                msg = wire.read_message(stream)
                got.append(msg)
                for kind, cid, body in [
                    (wire.KIND_RESPONSE, "another", {"n": 1}),
                    (wire.KIND_AUDIT_EVENT, "event-1", {"seq": 1}),
                    (wire.KIND_RESPONSE, msg.correlation_id, {"n": 2}),
                ]:
                    conn.sendall(wire.encode_message(wire.WireMessage(kind, cid, body)))

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            with RemoteEndpoint("127.0.0.1", port, timeout=10) as endpoint:
                sent = wire.WireMessage(wire.KIND_QUERY_RESOLVE, "7", {})
                reply = endpoint.request(sent)
                assert (reply.correlation_id, reply.body) == ("7", {"n": 2})
                assert endpoint.events == [{"seq": 1}]
        finally:
            thread.join(timeout=10)
            listener.close()
        assert [m.correlation_id for m in got] == ["7"]

    def test_restarted_server_serves_the_old_state(self, tmp_path, keypool):
        cfg = service_config(tmp_path)
        service = HandleService(cfg)
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

        service2 = HandleService(cfg)
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


class TestAuditDelivery:
    """Each subscribing connection sends its own events, outside the server
    lock, and its subscriptions end when it closes. Connections are served
    over socket pairs, one at a time."""

    @staticmethod
    def connect(front, sndbuf=None):
        """(the client's socket, the thread serving the other end)."""
        served, client = socket.socketpair()
        if sndbuf is not None:
            served.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
        client.settimeout(10)
        thread = threading.Thread(target=front._serve_connection, args=(served,), daemon=True)
        thread.start()
        return client, thread

    @staticmethod
    def subscribe(client, handle) -> dict:
        body = {"handle": handle.fqdn_no_dot(), "backlog": False}
        client.sendall(
            wire.encode_message(wire.WireMessage(wire.KIND_AUDIT_SUBSCRIBE, "s-1", body))
        )
        reply = wire.read_message(client.makefile("rb"))
        return reply.body["verdict"]

    def test_a_watcher_that_stops_reading_stalls_no_update(self, logged_service, keypool):
        server = logged_service.server
        _, sec = keypool.key(0)
        claim = make_claim(sec, ROOT, 16, 1)
        assert server.apply_update(claim).accepted
        leaf = parse_handle(claim.target, ROOT).child(IA("1"))
        update = make_assign(sec, leaf, "10.0.0.1", 2)
        watcher, served = self.connect(TcpHandleServer(logged_service), sndbuf=4096)
        try:
            assert self.subscribe(watcher, leaf)["accepted"]
            # the watcher reads nothing more; each update queues an event for it
            flood = threading.Thread(
                target=lambda: [server.apply_update(update) for _ in range(300)], daemon=True
            )
            flood.start()
            flood.join(timeout=30)
            assert not flood.is_alive()
            assert server.resolve(leaf).address == "10.0.0.1"
        finally:
            # a half-close: the connection ends while its writer is blocked
            watcher.shutdown(socket.SHUT_WR)
            served.join(timeout=10)
            watcher.close()
        assert not served.is_alive()
        assert server.subscriptions(leaf) == []

    def test_subscriptions_end_with_their_connection(self, logged_service, keypool):
        server = logged_service.server
        server.audit_cap = 2
        _, sec = keypool.key(0)
        leaf = parse_handle(make_claim(sec, ROOT, 16, 1).target, ROOT).child(IA("1"))
        front = TcpHandleServer(logged_service)
        for _ in range(server.audit_cap + 1):
            watcher, served = self.connect(front)
            try:
                verdict = self.subscribe(watcher, leaf)
            finally:
                watcher.close()
                served.join(timeout=10)
            assert verdict["accepted"], verdict
            assert not served.is_alive()
        assert server.subscriptions(leaf) == []
