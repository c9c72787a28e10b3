"""End-to-end checks of the command line tools, run as subprocesses, and
of their error reports on replies that do not read, run in process."""

import base64
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import ROOT, new_server, with_server_key

import onhs
from onhs import cli, wire
from onhs.crypto import load_secret_key
from onhs.handles import HandleLabel, parse_handle
from onhs.server import make_assign, make_claim, make_create_child
from onhs.service import HandleService, RemoteEndpoint, ServerConfig

# The CLI as `python -m onhs`, so the tests need no installed `onhs` script.
CLI = [sys.executable, "-m", "onhs"]
# The directory holding the imported package; the child imports the same code.
PACKAGE_PARENT = str(Path(onhs.__file__).resolve().parent.parent)


def clean_env():
    env = dict(os.environ)
    env.pop("ONHS_DATA_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_PARENT, env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(*args, expect=None):
    proc = subprocess.run(
        [*CLI, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
        env=clean_env(),
    )
    if expect is not None:
        assert proc.returncode == expect, (
            f"onhs {' '.join(map(str, args))}\n"
            f"exit {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


def write_config(tmp_path, name="server.conf"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    data_dir = tmp_path / "data"
    path = tmp_path / name
    path.write_text(
        f"root_zone = {ROOT}\nlisten = 127.0.0.1:0\ndata_dir = {data_dir}\n"
    )
    return path


class ServeProcess:
    """`onhs serve` as a child process, port read from its startup line."""

    def __init__(self, config_path):
        self.proc = subprocess.Popen(
            [*CLI, "serve", "--config", str(config_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=clean_env(),
        )
        self.lines = []
        deadline = time.time() + 30
        self.port = None
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip("\n"))
            m = re.search(r"^serving \S+ on [\d.]+:(\d+)$", line.strip())
            if m:
                self.port = int(m.group(1))
                return
        raise RuntimeError(f"server did not start: {self.lines}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-server")
    server = ServeProcess(write_config(tmp))
    yield server
    server.stop()


def test_keygen_writes_a_loadable_key(tmp_path):
    out = tmp_path / "key1.pem"
    proc = run_cli("keygen", "--alg", 5, "--bits", 1024, "--out", out, expect=0)
    assert "algorithm 5" in proc.stdout
    match = re.search(r"key-hash ([0-9A-F]{40})", proc.stdout)
    assert match
    secret = load_secret_key(out)
    assert secret.public_key().key_hash_hex() == match.group(1)


def test_keygen_supports_the_stronger_algorithm(tmp_path):
    out = tmp_path / "key8.pem"
    proc = run_cli("keygen", "--alg", 8, "--bits", 1024, "--out", out, expect=0)
    assert "algorithm 8" in proc.stdout
    assert load_secret_key(out).algorithm == 8


def test_workflow_over_a_live_server(live, tmp_path):
    at = f"127.0.0.1:{live.port}"
    key1 = tmp_path / "owner1.pem"
    key2 = tmp_path / "owner2.pem"
    run_cli("keygen", "--alg", 5, "--bits", 1024, "--out", key1, expect=0)
    run_cli("keygen", "--alg", 8, "--bits", 1024, "--out", key2, expect=0)

    # claim two apexes, one per key
    proc = run_cli(
        "claim", "--server", at, "--root", ROOT, "--key", key1, "--serial", 1,
        expect=0,
    )
    apex1 = re.search(r"^handle (\S+)$", proc.stdout, re.M).group(1)
    assert apex1.startswith("h1g5k") and apex1.endswith(f".{ROOT}")
    proc = run_cli(
        "claim", "--server", at, "--root", ROOT, "--key", key2, "--serial", 1,
        expect=0,
    )
    apex2 = re.search(r"^handle (\S+)$", proc.stdout, re.M).group(1)
    assert apex2.startswith("h1g8k")

    leaf1 = f"h0k1.{apex1}"
    run_cli("create", "--server", at, "--key", key1, "--serial", 2, leaf1, expect=0)
    run_cli(
        "assign", "--server", at, "--key", key1, "--serial", 3, leaf1, "10.0.0.1",
        expect=0,
    )

    # plain resolve, then client-verified resolve
    proc = run_cli("resolve", "--server", at, leaf1, expect=0)
    assert "outcome ADDRESS" in proc.stdout
    assert "address 10.0.0.1" in proc.stdout
    proc = run_cli("resolve", "--server", at, "--verify", leaf1, expect=0)
    assert "verified yes" in proc.stdout

    # a delegated handle resolves through its DNAME to leaf1's address
    pointer = f"h0k4.{apex1}"
    run_cli("create", "--server", at, "--key", key1, "--serial", 2, pointer, expect=0)
    proc = run_cli(
        "delegate", "--server", at, "--key", key1, "--serial", 3, pointer, leaf1,
        expect=0,
    )
    assert proc.stdout == f"accepted delegate {pointer} -> {leaf1}\n"
    proc = run_cli("resolve", "--server", at, "--verify", pointer, expect=0)
    assert "outcome ADDRESS" in proc.stdout and "address 10.0.0.1" in proc.stdout
    assert "verified yes" in proc.stdout

    # record queries, present and missing
    proc = run_cli("query", "--server", at, leaf1, "A", expect=0)
    assert re.search(r"A 10\.0\.0\.1$", proc.stdout, re.M)
    proc = run_cli("query", "--server", at, f"h0k99.{apex1}", "A", expect=1)
    assert "no A record" in proc.stdout
    assert "NXT" in proc.stdout  # denial comes with proof

    # a foreign key cannot touch the hierarchy
    proc = run_cli(
        "assign", "--server", at, "--key", key2, "--serial", 4, leaf1, "10.9.9.9",
        expect=1,
    )
    assert "rejected" in proc.stderr and "wrong-authority" in proc.stderr
    proc = run_cli("resolve", "--server", at, leaf1, expect=0)
    assert "address 10.0.0.1" in proc.stdout

    # transfer leaf1 to a handle under the second apex
    new_home = f"h0k5.{apex2}"
    run_cli("create", "--server", at, "--key", key2, "--serial", 2, new_home, expect=0)
    run_cli(
        "assign", "--server", at, "--key", key2, "--serial", 3, new_home, "10.0.0.7",
        expect=0,
    )
    run_cli(
        "transfer", "--server", at, "--key", key1, "--serial", 5, leaf1, new_home,
        expect=0,
    )
    proc = run_cli("resolve", "--server", at, leaf1, expect=0)
    assert "outcome TRANSFERRED_AND_ADDRESS" in proc.stdout
    assert "address 10.0.0.7" in proc.stdout
    assert re.search(r"^transferred \S+ -> \S+$", proc.stdout, re.M)

    # the transfer is irrevocable: the old key cannot re-point it
    proc = run_cli(
        "assign", "--server", at, "--key", key1, "--serial", 6, leaf1, "10.0.0.2",
        expect=1,
    )
    assert "handle-transferred" in proc.stderr

    # audit backlog lists the handle's history
    proc = run_cli("audit", "--server", at, leaf1, expect=0)
    actions = re.findall(r"^past (\S+)", proc.stdout, re.M)
    assert actions[:3] == ["CREATE_CHILD", "ASSIGN", "ASSIGN"]
    assert "TRANSFER" in actions

    # cancellation is terminal and blocks later creates
    gone = f"h0k2.{apex1}"
    run_cli("cancel", "--server", at, "--key", key1, "--serial", 7, gone, expect=0)
    proc = run_cli("resolve", "--server", at, gone, expect=1)
    assert "outcome CANCELLED" in proc.stdout
    proc = run_cli(
        "create", "--server", at, "--key", key1, "--serial", 8, f"h0k1.{gone}",
        expect=1,
    )
    assert "handle-cancelled" in proc.stderr

    # compromise notice with the legacy date form, normalized on output
    run_cli(
        "compromise", "--server", at, "--key", key2, "--serial", 9,
        "--note", "01/04/2003", apex2, expect=0,
    )
    proc = run_cli("resolve", "--server", at, new_home, expect=1)
    assert "outcome COMPROMISED" in proc.stdout
    proc = run_cli("query", "--server", at, apex2, "TXT", expect=0)
    assert "Compromised 2003-04-01" in proc.stdout


def test_resolve_rejects_a_malformed_name():
    proc = run_cli("resolve", "--server", "127.0.0.1:1", "!!bad-name!!", expect=1)
    assert proc.stderr.startswith("error:")


def test_missing_key_file_is_a_clean_error(tmp_path):
    proc = run_cli(
        "claim", "--server", "127.0.0.1:1", "--root", ROOT,
        "--key", tmp_path / "absent.pem", "--serial", 1,
        expect=1,
    )
    assert proc.stderr.startswith("error:")


def _garbage_der_key(path):
    """A key file of the right shape whose secret line is valid base64
    over bytes that are no DER key."""
    junk = base64.b64encode(b"not a DER private key").decode()
    path.write_text(f"5\n{junk}\n{junk}\n")
    return path


def test_corrupt_key_file_is_a_clean_error(tmp_path):
    proc = run_cli(
        "claim", "--server", "127.0.0.1:1", "--root", ROOT,
        "--key", _garbage_der_key(tmp_path / "bad.key"), "--serial", 1,
        expect=1,
    )
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_serve_with_a_corrupt_server_key_is_a_clean_error(tmp_path):
    conf = write_config(tmp_path)
    (tmp_path / "data").mkdir()
    _garbage_der_key(tmp_path / "data" / "server.key")
    proc = run_cli("serve", "--config", conf, expect=1)
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_zone_dump_and_load(tmp_path, keypool):
    # build some state directly, then drive the zone tools from the CLI
    src_conf = write_config(tmp_path / "src", name="src.conf")
    cfg = ServerConfig.load(src_conf)
    service = HandleService(with_server_key(cfg))
    _, sec = keypool.key(0)
    claim = make_claim(sec, ROOT, 16, 1)
    service.server.apply_update(claim)
    from onhs.handles import parse_handle, HandleLabel

    apex = parse_handle(claim.target, ROOT)
    leaf = apex.child(HandleLabel.ia("1"))
    service.server.apply_update(make_create_child(sec, leaf, 2))
    service.server.apply_update(make_assign(sec, leaf, "10.0.0.1", 3))
    service.close()

    root_zone_file = tmp_path / "root.zone"
    proc = run_cli(
        "zone", "dump", "--config", src_conf, "--out", root_zone_file, expect=0,
    )
    assert f"wrote {root_zone_file}" in proc.stdout
    root_text = root_zone_file.read_text()
    assert apex.fqdn_no_dot().split(".")[0] in root_text
    assert " KEY " in root_text

    # owner zone dump goes to stdout when --out is omitted
    proc = run_cli(
        "zone", "dump", "--config", src_conf, "--owner", apex.fqdn_no_dot(),
        expect=0,
    )
    assert "10.0.0.1" in proc.stdout
    owner_zone_file = tmp_path / "owner.zone"
    owner_zone_file.write_text(proc.stdout)

    # only an apex has an owner zone
    proc = run_cli(
        "zone", "dump", "--config", src_conf, "--owner", leaf.fqdn_no_dot(),
        expect=1,
    )
    assert proc.stdout == "" and proc.stderr.startswith("error: ")

    # a second instance verifies the dumped zone, and keeps none of it
    dst_conf = write_config(tmp_path / "dst", name="dst.conf")
    (tmp_path / "dst" / "data").mkdir()
    proc = run_cli("zone", "load", str(owner_zone_file), "--config", dst_conf, expect=0)
    assert re.search(r"\d+ record sets verify; nothing was stored", proc.stdout)
    assert proc.stderr == ""
    kept = HandleService(ServerConfig.load(dst_conf))
    try:
        assert kept.replayed == 0
    finally:
        kept.close()

    # a tampered zone is reported and fails the load
    broken = owner_zone_file.read_text().replace("10.0.0.1", "10.0.0.2")
    broken_file = tmp_path / "broken.zone"
    broken_file.write_text(broken)
    proc = run_cli("zone", "load", str(broken_file), "--config", dst_conf, expect=1)
    assert "skipped" in proc.stderr


def logged_store(tmp_path, keypool):
    """A config whose data directory logs a claim, a create and an assign
    of 10.0.0.1, with the claimed apex's name."""
    conf = write_config(tmp_path)
    service = HandleService(with_server_key(ServerConfig.load(conf)))
    _, sec = keypool.key(0)
    claim = make_claim(sec, ROOT, 16, 1)
    leaf = parse_handle(claim.target, ROOT).child(HandleLabel.ia("1"))
    for msg in (claim, make_create_child(sec, leaf, 2), make_assign(sec, leaf, "10.0.0.1", 3)):
        assert service.server.apply_update(msg).accepted
    service.close()
    return conf, claim.target


@pytest.mark.parametrize("command", ["dump", "load"])
@pytest.mark.parametrize("cut, assigned", [(7, False), (1, True)])
def test_zone_commands_replay_a_log_and_leave_it_as_it_is(
    tmp_path, keypool, capsys, command, cut, assigned
):
    """A torn last line (7 bytes cut) is left out and reported, a complete
    one missing its newline (1 byte cut) is applied, and either way the
    file stays byte for byte as it was: a serve beside the command may
    still be writing that line."""
    conf, apex = logged_store(tmp_path, keypool)
    log = tmp_path / "data" / "updates.log"
    whole = log.read_bytes()
    last = len(whole) - whole.rindex(b"\n", 0, len(whole) - 1) - 1
    log.write_bytes(whole[:-cut])
    zone_file = tmp_path / "owner.zone"
    if command == "load":
        zone_file.write_text(f"$ORIGIN {ROOT}.\n")
    args = ["dump", "--owner", apex] if command == "dump" else ["load", str(zone_file)]
    assert cli.main(["zone", *args, "--config", str(conf)]) == 0
    out, err = capsys.readouterr()
    assert log.read_bytes() == whole[:-cut]
    if command == "dump":
        assert ("10.0.0.1" in out) == assigned
    torn = f"skipped a torn last line ({last - cut} bytes) of the update log"
    assert (torn in err) == (not assigned)


def test_zone_load_makes_no_update_log(tmp_path, capsys):
    conf = write_config(tmp_path)
    (tmp_path / "data").mkdir()
    zone_file = tmp_path / "empty.zone"
    zone_file.write_text(f"$ORIGIN {ROOT}.\n")
    assert cli.main(["zone", "load", str(zone_file), "--config", str(conf)]) == 0
    assert "0 record sets verify" in capsys.readouterr().out
    assert not (tmp_path / "data" / "updates.log").exists()


def test_serve_replays_the_log_on_restart(tmp_path):
    conf = write_config(tmp_path)
    key = tmp_path / "key.pem"
    run_cli("keygen", "--alg", 5, "--bits", 1024, "--out", key, expect=0)

    first = ServeProcess(conf)
    try:
        proc = run_cli(
            "claim", "--server", f"127.0.0.1:{first.port}", "--root", ROOT,
            "--key", key, "--serial", 1, expect=0,
        )
        apex = re.search(r"^handle (\S+)$", proc.stdout, re.M).group(1)
    finally:
        first.stop()

    second = ServeProcess(conf)
    try:
        assert any("replayed 1 logged updates" in line for line in second.lines)
        proc = run_cli(
            "query", "--server", f"127.0.0.1:{second.port}", apex, "KEY", expect=0,
        )
        assert " KEY " in proc.stdout
    finally:
        second.stop()


# `onhs serve`, with its main thread watched: once a SIGTERM handler is set,
# it prints "armed", and right after the thread next takes a lock it sends
# its own process SIGTERM, which the handler then runs inside.
SIGNAL_WHILE_LOCKED = """
import os, signal, sys
from onhs import cli

armed = fired = False
install = signal.signal

def watched(signo, handler):
    global armed
    previous = install(signo, handler)
    if signo == signal.SIGTERM and callable(handler) and not armed:
        armed = True
        print("armed", flush=True)
    return previous

def on_event(frame, event, arg):
    global fired
    took_lock = (
        event == "c_return"
        and getattr(arg, "__name__", "") in ("acquire", "__enter__")
        and type(getattr(arg, "__self__", None)).__name__ in ("lock", "RLock")
    )
    if armed and took_lock and not fired:
        fired = True
        os.kill(os.getpid(), signal.SIGTERM)

signal.signal = watched
sys.setprofile(on_event)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_serve_stops_on_a_signal_that_lands_while_it_holds_a_lock(tmp_path):
    """A SIGTERM handler that took a lock would wait forever on one its own
    thread holds, and ignore every later SIGTERM as well; serve's takes
    none. The child signals itself inside its first lock after arming, and
    the test sends one more SIGTERM once it is armed."""
    proc = subprocess.Popen(
        [sys.executable, "-c", SIGNAL_WHILE_LOCKED, "serve", "--config", str(write_config(tmp_path))],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=clean_env(),
    )
    try:
        lines = []
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if lines[-1] == "armed":
                break
        assert lines[-1:] == ["armed"], lines
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pytest.fail("serve ignored SIGTERM: its handler waits on a lock its thread holds")
        assert code == 0, lines + proc.stdout.read().splitlines()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# ---- replies that do not read, in process with a stub endpoint ----------------


def stub_reply(monkeypatch, body):
    """Make every RemoteEndpoint answer each request with body, unconnected."""
    monkeypatch.setattr(RemoteEndpoint, "connect", lambda self: None)
    monkeypatch.setattr(
        RemoteEndpoint, "request",
        lambda self, msg: wire.WireMessage(wire.KIND_RESPONSE, msg.correlation_id, body),
    )


def test_a_reply_that_does_not_read_is_a_clean_error(monkeypatch, capsys, keypool):
    stub_reply(monkeypatch, {"answer": {"found": "x"}})
    apex = make_claim(keypool.key(0)[1], ROOT, 16, 1).target
    assert cli.main(["query", apex, "A"]) == 1
    assert capsys.readouterr().err == (
        "error: answer field 'found' must be a boolean, not a string\n"
    )


def test_an_audit_item_is_read_through_the_codec(monkeypatch, capsys, keypool):
    item = {"update": {"action": "ASSIGN"}, "verdict": {"accepted": True}}
    stub_reply(monkeypatch, {"verdict": {"accepted": True}, "backlog": [item]})
    apex = make_claim(keypool.key(0)[1], ROOT, 16, 1).target
    assert cli.main(["audit", apex]) == 1
    assert capsys.readouterr().err == "error: update lacks field 'target'\n"


@pytest.mark.parametrize("verify", [True, False])
def test_resolve_verify_prints_only_the_warnings_it_found(monkeypatch, capsys, keypool, verify):
    """An honest answer with a forged served warning, as a connection's first
    answer: --verify prints only the verifier's own warnings, after its
    verdict; a plain resolve prints the served ones."""
    server = new_server()
    _, sec = keypool.key(0)
    claim = make_claim(sec, ROOT, 16, 1)
    leaf = parse_handle(claim.target, ROOT).child(HandleLabel.ia("1"))
    for msg in (claim, make_create_child(sec, leaf, 2), make_assign(sec, leaf, "10.0.0.1", 3)):
        assert server.apply_update(msg).accepted
    forged = f"stale-irrevocable {leaf.name_key()} A"
    answer = replace(server.resolve(leaf), warnings=(forged,))
    stub_reply(monkeypatch, {"resolution": answer.to_dict({})})
    args = ["resolve", *(["--verify"] if verify else []), leaf.fqdn_no_dot()]
    assert cli.main(args) == 0
    out = capsys.readouterr().out.splitlines()
    if verify:
        assert out == ["outcome ADDRESS", "address 10.0.0.1", "verified yes"]
    else:
        assert out == ["outcome ADDRESS", "address 10.0.0.1", f"warning {forged}"]


@pytest.mark.parametrize("command", ["dump", "load"])
def test_zone_commands_on_a_missing_data_dir_write_nothing(tmp_path, capsys, command):
    conf = write_config(tmp_path)
    zone_file = tmp_path / "empty.zone"
    zone_file.write_text(f"$ORIGIN {ROOT}.\n")
    args = ["dump"] if command == "dump" else ["load", str(zone_file)]
    assert cli.main(["zone", *args, "--config", str(conf)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: data directory {tmp_path / 'data'} does not exist\n"
    assert not (tmp_path / "data").exists()
