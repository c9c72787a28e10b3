"""One benchmark run of the served handle system.

    python3 perfbench/run.py --workload resolve_miss --seed 1 --seconds 30 --trace 0

Copies the prepared data directory (server key and updates.log, built by
prepare.py on first use), starts the program's own server on the copy with
``python -m onhs serve`` on 127.0.0.1:0, drives one workload against it in a
closed loop over at most two TCP connections from this process, checks
every answer, stops and reaps the server, and prints one JSON result as the
last line of standard output. --trace 1 runs the server under
traced_serve.py and reports per-layer metrics instead of end-to-end ones.
BENCHMARK.json lists resolve_miss and update; resolve_hit is run by hand
(README.md says why). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
DATA_ROOT = HERE / ".data"
RUNS_ROOT = HERE / ".runs"
ZONE_SEED = 1
CPUS = sorted(os.sched_getaffinity(0))
CONNECTIONS = min(2, len(CPUS))
WORKLOADS = ("resolve_hit", "resolve_miss", "update")
START_TIMEOUT = 60.0

# resolve_hit block: the share of each answer kind is fixed per block.
HIT_BLOCK = (
    ("plain", 12), ("delegated", 2), ("transferred", 2),
    ("cancelled", 2), ("compromised", 2),
)

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

try:
    from onhs import client, crypto, handles, service  # noqa: E402
    from onhs import server as srv  # noqa: E402
except ImportError as exc:  # a directory without the program
    sys.exit(f"error: cannot import the program from {SRC}: {exc}")


class CheckFailed(Exception):
    """The program gave an answer the benchmark's own model disagrees with."""


# ---- prepared data -----------------------------------------------------------


def prepared_dir() -> Path:
    """The prepared data set for this checkout, built once and reused.

    It is keyed by the recipe and the program's source, so it is made anew
    whenever either changes; the sets it replaces are removed.
    """
    digest = hashlib.sha256((HERE / "prepare.py").read_bytes())
    for path in sorted((SRC / "onhs").glob("*.py")):
        digest.update(path.read_bytes())
    target = DATA_ROOT / f"zone-s{ZONE_SEED}-{digest.hexdigest()[:12]}"
    if (target / "recipe.json").exists():
        return target
    import prepare

    DATA_ROOT.mkdir(parents=True, exist_ok=True)
    staging = DATA_ROOT / f".building-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    prepare.build(ZONE_SEED, staging)
    try:
        staging.rename(target)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)  # another run got there first
    for stale in DATA_ROOT.glob("zone-*"):
        if stale != target:
            shutil.rmtree(stale, ignore_errors=True)
    return target


# ---- the server process ------------------------------------------------------


def pin_server() -> None:
    """With two CPUs or more, the server runs on the second and this
    process on the first. Measured in README.md: unpinned, the threads of
    each process hand their interpreter lock across CPUs, and runs were
    slower and spread wider."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS[1:2])


class ServerProcess:
    """`onhs serve` on one data directory, output captured to files."""

    def __init__(self, run_dir: Path, data_dir: Path, root: str, trace_file=None):
        self.run_dir = run_dir
        self.config = run_dir / "server.conf"
        self.config.write_text(
            f"root_zone = {root}\nlisten = 127.0.0.1:0\ndata_dir = {data_dir}\n"
        )
        self.trace_file = trace_file
        self.proc = None
        self.started_at = None

    def start(self) -> int:
        n = len(list(self.run_dir.glob("server-*.out")))
        self.out_path = self.run_dir / f"server-{n}.out"
        self.err_path = self.run_dir / f"server-{n}.err"
        if self.trace_file is None:
            cmd = [sys.executable, "-m", "onhs"]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(self.trace_file)]
        cmd += ["serve", "--config", str(self.config)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("ONHS_DATA_DIR", None)
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.started_at = time.monotonic()
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
                cwd=self.run_dir, start_new_session=True, preexec_fn=pin_server,
            )
        pattern = re.compile(rb"serving \S+ on [0-9.]+:([0-9]+)")
        deadline = self.started_at + START_TIMEOUT
        while True:
            match = pattern.search(self.out_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start:\n{self.stderr_tail()}")
            time.sleep(0.001)

    def stderr_tail(self) -> str:
        try:
            return self.err_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def cpu_seconds(self) -> float:
        """User plus system CPU of the server, all its threads so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (VmHWM)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        """Terminate and reap; kill if it does not exit in time."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(
                f"server exited with {proc.returncode}:\n{self.stderr_tail()}"
            )


# ---- independent checks ------------------------------------------------------


def order_key(name: str) -> tuple:
    """Canonical name order: last label first, bytewise, case-folded."""
    return tuple(label.encode() for label in reversed(name.rstrip(".").lower().split(".")))


def nxt_covers(resolution, name: str) -> bool:
    """Some served NXT record's interval contains name."""
    q = order_key(name)
    for rrset in resolution.evidence:
        if rrset.rtype != "NXT":
            continue
        for rec in rrset.records:
            lo, hi = order_key(rec.owner), order_key(rec.rdata.next_owner)
            if lo < q < hi or (hi <= lo and (q > lo or q < hi)):
                return True
    return False


# ---- operations ----------------------------------------------------------------


class Context:
    """What every connection shares: the recipe, the owner key, the counts."""

    def __init__(self, recipe: dict, owner_key):
        self.recipe = recipe
        self.root = recipe["root"]
        self.owner_key = owner_key
        self.expected = recipe["expected"]
        self.lock = threading.Lock()
        self.resolves = 0
        self.updates = 0
        self.touched: dict = {}   # name -> the UpdateModel that knows its answer

    def handle(self, name: str):
        return handles.parse_handle(name, self.root)

    def verified_resolve(self, endpoint, name: str):
        handle = self.handle(name)
        resolution = endpoint.resolve(handle)
        checked = client.verify_resolution(resolution, handle, self.root)
        with self.lock:
            self.resolves += 1
        if not checked.verified:
            raise CheckFailed(f"{name}: answer not verified: {checked.failures}")
        return checked

    def expect(self, endpoint, name: str, outcome: str, address) -> None:
        checked = self.verified_resolve(endpoint, name)
        if (checked.outcome, checked.address) != (outcome, address):
            raise CheckFailed(
                f"{name}: served {checked.outcome} {checked.address}, "
                f"expected {outcome} {address}"
            )

    def send(self, endpoint, msg, accepted: bool, reason=None) -> None:
        verdict = endpoint.apply_update(msg)
        with self.lock:
            self.updates += 1
        if (verdict.accepted, verdict.reason) != (accepted, reason):
            raise CheckFailed(
                f"{msg.action} {msg.target}: verdict {verdict.tag()}, "
                f"model says accepted={accepted} reason={reason}"
            )


def hit_blocks(ctx: Context, rng: random.Random):
    pools = ctx.recipe["hit"]
    while True:
        block = [rng.choice(pools[kind]) for kind, count in HIT_BLOCK for _ in range(count)]
        rng.shuffle(block)
        yield [lambda ep, name=name: ctx.expect(ep, name, *ctx.expected[name]) for name in block]


def miss_blocks(ctx: Context, rng: random.Random):
    apexes = ctx.recipe["apexes"]
    claimed = {a.lower() for a in apexes.values()}

    def miss(ep, name: str) -> None:
        checked = ctx.verified_resolve(ep, name)
        if checked.outcome != "NOT_FOUND":
            raise CheckFailed(f"{name}: served {checked.outcome}, expected NOT_FOUND")
        if not nxt_covers(checked.resolution, name):
            raise CheckFailed(f"{name}: no served NXT interval contains the name")

    def unclaimed() -> str:
        while True:
            name = f"h1g5k{rng.getrandbits(64):016X}.{ctx.root}"
            if name.lower() not in claimed:
                return name

    while True:
        names = [f"h0k{rng.randrange(10**6, 10**12)}.{apexes[zone]}" for zone in ctx.recipe["miss_zones"]]
        names.append(unclaimed())
        rng.shuffle(names)
        yield [lambda ep, name=name: miss(ep, name) for name in names]


class UpdateModel:
    """The benchmark's own model of the merge law for one workspace.

    Revocable slots keep the highest serial; a cancel is sticky and blocks
    every later revocable update at or below the cancelled name.
    """

    def __init__(self, ctx: Context, workspace: dict, first_serial: int):
        self.ctx = ctx
        self.address = {n: (0, ctx.expected[n][1]) for n in workspace["rebind"]}
        self.address.update({n: (0, ctx.expected[n][1]) for n in workspace["delegate"]})
        self.dname: dict = {}
        self.cancelled: set = set()
        self.serial = first_serial

    def next_serial(self) -> int:
        self.serial += 1
        return self.serial

    def blocked(self, name: str) -> bool:
        labels = name.lower().split(".")
        return any(".".join(labels[i:]) in self.cancelled for i in range(len(labels)))

    def apply(self, action: str, name: str, serial: int, value=None):
        """Record one update; returns (accepted, reason) as the model sees it."""
        if action == "CANCEL":
            self.cancelled.add(name.lower())
            return True, None
        if self.blocked(name):
            return False, "handle-cancelled"
        slots = {"ASSIGN": self.address, "DELEGATE": self.dname}
        if action in slots and serial > slots[action].get(name, (0, None))[0]:
            slots[action][name] = (serial, value)
        return True, None

    def answer(self, name: str):
        if self.blocked(name):
            return "CANCELLED", None
        if name in self.dname:
            return tuple(self.ctx.expected[self.dname[name][1]])
        return "ADDRESS", self.address[name][1]


def update_blocks(ctx: Context, rng: random.Random, conn: int):
    key = ctx.owner_key
    workspace = ctx.recipe["workspaces"][conn]
    model = UpdateModel(ctx, workspace, ctx.recipe["last_serial"])
    targets = ctx.recipe["delegate_targets"]
    ordinal = 1000 + rng.randrange(1000)

    def act(ep, action: str, name: str, msg, value=None) -> None:
        accepted, reason = model.apply(action, name, msg.serial, value)
        ctx.send(ep, msg, accepted, reason)

    def settle(ep, name: str) -> None:
        outcome, address = model.answer(name)
        ctx.expect(ep, name, outcome, address)
        with ctx.lock:
            ctx.touched[name] = model

    def assign(ep, name: str, address: str) -> None:
        serial = model.next_serial()
        act(ep, "ASSIGN", name, srv.make_assign(key, ctx.handle(name), address, serial), address)
        settle(ep, name)

    def create(ep, name: str, address: str) -> None:
        handle = ctx.handle(name)
        act(ep, "CREATE_CHILD", name, srv.make_create_child(key, handle, model.next_serial()))
        serial = model.next_serial()
        act(ep, "ASSIGN", name, srv.make_assign(key, handle, address, serial), address)
        settle(ep, name)

    def delegate(ep, name: str, dest: str) -> None:
        serial = model.next_serial()
        msg = srv.make_delegate(key, ctx.handle(name), ctx.handle(dest), serial)
        act(ep, "DELEGATE", name, msg, dest)
        settle(ep, name)

    def cancel(ep, name: str) -> None:
        act(ep, "CANCEL", name, srv.make_cancel(key, ctx.handle(name), model.next_serial()))
        settle(ep, name)

    def address() -> str:
        return f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"

    while True:
        ordinal += 1
        fresh = f"h0k{ordinal}.{workspace['workspace']}"
        doomed_child = f"h0k1.{fresh}"
        steps = [
            (assign, rng.choice(workspace["rebind"]), address()),
            (create, fresh, address()),
            (delegate, rng.choice(workspace["delegate"]), rng.choice(targets)),
            (cancel, fresh),
            (assign, doomed_child, address()),   # rejected: handle-cancelled
        ]
        yield [lambda ep, step=step: step[0](ep, *step[1:]) for step in steps]


# ---- driving the workload ----------------------------------------------------


class Driver:
    """Closed loop: each connection runs whole blocks until the window ends."""

    def __init__(self, ctx: Context, workload: str, seed: int, port: int):
        self.ctx = ctx
        self.stop = threading.Event()
        self.errors: list = []
        self.ops: list = []   # (start, end) of every operation, all connections
        self.endpoints = []
        self.threads = []
        self._lock = threading.Lock()
        self._go = threading.Barrier(CONNECTIONS + 1)
        for conn in range(CONNECTIONS):
            rng = random.Random(f"{workload}:{seed}:{conn}")
            if workload == "resolve_hit":
                blocks = hit_blocks(ctx, rng)
            elif workload == "resolve_miss":
                blocks = miss_blocks(ctx, rng)
            else:
                blocks = update_blocks(ctx, rng, conn)
            endpoint = service.RemoteEndpoint("127.0.0.1", port, timeout=60.0)
            endpoint.connect()
            self.endpoints.append(endpoint)
            thread = threading.Thread(
                target=self._loop, args=(endpoint, blocks), daemon=True
            )
            self.threads.append(thread)
            thread.start()

    def _loop(self, endpoint, blocks) -> None:
        try:
            self._go.wait()
        except threading.BrokenBarrierError:
            return
        samples = []
        try:
            while not self.stop.is_set():
                for op in next(blocks):
                    start = time.monotonic()
                    op(endpoint)
                    samples.append((start, time.monotonic()))
        except Exception as exc:  # a failed or wrong operation fails the run
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self.stop.set()
        finally:
            with self._lock:
                self.ops.extend(samples)

    def run(self, seconds: float, cpu_clock) -> tuple:
        """Release the connections for the window and wait until each has
        finished its last block; returns how far each of cpu_clock's
        readings advanced meanwhile."""
        self._go.wait()
        cpu0 = cpu_clock()
        self.stop.wait(seconds)
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=150)
            if thread.is_alive():
                raise RuntimeError("a connection did not finish its block")
        return tuple(end - start for start, end in zip(cpu0, cpu_clock()))

    def close(self) -> None:
        self.stop.set()
        self._go.abort()
        for endpoint in self.endpoints:
            endpoint.close()
        for thread in self.threads:
            thread.join(timeout=10)


# ---- metrics -----------------------------------------------------------------


def layer_metrics(spans: list, window: tuple, ops: int) -> tuple:
    """Per-layer figures from client and server spans inside the window."""
    lo, hi = window
    calls: dict = {}
    total: dict = {}
    own: dict = {}
    sizes: dict = {}
    for layer, start, duration, self_ns, size in spans:
        if not lo <= start < hi:
            continue
        calls[layer] = calls.get(layer, 0) + 1
        total[layer] = total.get(layer, 0) + duration
        own[layer] = own.get(layer, 0) + self_ns
        sizes[layer] = sizes.get(layer, 0) + size

    def mean(layer: str, scale: float, table: dict = total) -> float:
        return table.get(layer, 0) / calls[layer] / scale if calls.get(layer) else 0.0

    def per_op(table: dict, layer: str, scale: float = 1.0) -> float:
        return table.get(layer, 0) / ops / scale

    m = {
        "handles.parse_handle.us": (mean("handles.parse_handle", 1e3), "us"),
        "handles.parse_handle.calls_per_op": (per_op(calls, "handles.parse_handle"), "calls/op"),
        "crypto.sign.ms": (mean("crypto.sign", 1e6), "ms"),
        "crypto.sign.calls_per_op": (per_op(calls, "crypto.sign"), "calls/op"),
        "crypto.public_key.ms": (mean("crypto.public_key", 1e6), "ms"),
        "crypto.public_key.calls_per_op": (per_op(calls, "crypto.public_key"), "calls/op"),
        "crypto.verify.ms": (mean("crypto.verify", 1e6), "ms"),
        "crypto.verify.calls_per_op": (per_op(calls, "crypto.verify"), "calls/op"),
        "crypto.canonical_rrset_bytes.us": (mean("crypto.canonical_rrset_bytes", 1e3), "us"),
        "records.build_nxt_chain.ms": (mean("records.build_nxt_chain", 1e6), "ms"),
        "records.build_nxt_chain.calls_per_op": (
            per_op(calls, "records.build_nxt_chain"), "calls/op"),
        "records.with_rrset.calls_per_op": (per_op(calls, "records.with_rrset"), "calls/op"),
        "records.covering_nxt.ms": (mean("records.covering_nxt", 1e6), "ms"),
        "server.resolve.ms": (mean("server.resolve", 1e6), "ms"),
        "server.resolve.self_ms": (mean("server.resolve", 1e6, own), "ms"),
        "server.owner_zone_snapshot.ms": (mean("server.owner_zone_snapshot", 1e6), "ms"),
        "server.root_zone_snapshot.ms": (mean("server.root_zone_snapshot", 1e6), "ms"),
        "server.apply_update.ms": (mean("server.apply_update", 1e6), "ms"),
        "server.lock_wait.ms": (per_op(total, "server.lock_wait", 1e6), "ms/op"),
        "server.make_update.ms": (mean("server.make_update", 1e6), "ms"),
        "server.resolution_codec.us": (per_op(total, "server.resolution_codec", 1e3), "us/op"),
        "client.verify_resolution.ms": (mean("client.verify_resolution", 1e6), "ms"),
        "wire.encode_message.us": (mean("wire.encode_message", 1e3), "us"),
        "wire.read_message.us": (mean("wire.read_message", 1e3), "us"),
        "wire.bytes_per_op": (per_op(sizes, "wire.encode_message"), "bytes/op"),
        "service.handle_request.ms": (mean("service.handle_request", 1e6), "ms"),
        "service.log_append.ms": (mean("service.log_append", 1e6), "ms"),
    }
    return m, calls


# Layers each workload must exercise in the traced run. The NXT internals
# (chain, snapshots, with_rrset, covering_nxt, server-side sign) are left
# out on purpose: removing them from the query path is the aim of ROADMAP
# item 3, so their counts are reported, not required.
EXERCISED = {
    "resolve_hit": (
        "handles.parse_handle", "crypto.verify", "crypto.canonical_rrset_bytes",
        "server.resolve", "server.resolution_codec", "client.verify_resolution",
        "wire.encode_message", "wire.read_message", "service.handle_request",
    ),
    "resolve_miss": (
        "handles.parse_handle", "crypto.verify", "crypto.canonical_rrset_bytes",
        "server.resolve", "server.resolution_codec", "client.verify_resolution",
        "wire.encode_message", "wire.read_message", "service.handle_request",
    ),
    "update": (
        "handles.parse_handle", "crypto.sign", "crypto.public_key", "crypto.verify",
        "crypto.canonical_rrset_bytes", "server.apply_update", "server.make_update",
        "server.resolve", "server.resolution_codec", "client.verify_resolution",
        "wire.encode_message", "wire.read_message", "service.handle_request",
        "service.log_append",
    ),
}


# ---- one run -------------------------------------------------------------------


def traced_metrics(workload: str, recipe: dict, spans: list, window: tuple, ops: int,
                   resolves_sent: int, updates_sent: int, log_bytes_per_update: float) -> dict:
    """Per-layer metrics, after cross-checking totals reached by separate paths."""
    metrics, calls = layer_metrics(spans, window, ops)
    replay = next(s for s in spans if s[0] == "service.replay")
    replay_lo, replay_hi = replay[1], replay[1] + replay[2]
    replayed = sum(
        1 for s in spans if s[0] == "server.apply_update" and replay_lo <= s[1] < replay_hi
    )
    metrics["service.replay.s"] = (replay[2] / 1e9, "s")
    metrics["service.log_bytes_per_update"] = (log_bytes_per_update, "bytes")
    checks = [
        (calls.get("server.resolve", 0) == resolves_sent,
         f"server.resolve calls {calls.get('server.resolve', 0)} != resolves sent {resolves_sent}"),
        (calls.get("service.log_append", 0) == updates_sent,
         f"service.log_append calls {calls.get('service.log_append', 0)} "
         f"!= updates sent {updates_sent}"),
        (replayed == recipe["log_lines"],
         f"apply_update calls in replay {replayed} != log lines {recipe['log_lines']}"),
    ]
    checks += [
        (calls.get(layer, 0) > 0, f"{layer} not exercised on {workload}")
        for layer in EXERCISED[workload]
    ]
    if workload == "resolve_hit":
        checks.append((calls.get("records.build_nxt_chain", 0) == 0,
                       "resolve_hit built an NXT chain"))
    problems = [text for ok, text in checks if not ok]
    if problems:
        raise CheckFailed("; ".join(problems))
    return metrics


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def run(args, run_dir: Path) -> dict:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    prepared = prepared_dir()
    recipe = json.loads((prepared / "recipe.json").read_text())
    data_dir = run_dir / "data"
    data_dir.mkdir()
    for name in ("server.key", "updates.log"):
        shutil.copyfile(prepared / name, data_dir / name)
    owner_key = crypto.load_secret_key(prepared / "owners" / f"{recipe['update_owner']}.key")
    ctx = Context(recipe, owner_key)
    log_path = data_dir / "updates.log"
    log_lines_before = count_lines(log_path)
    log_bytes_before = log_path.stat().st_size

    server_trace = run_dir / "server-trace" if tracer else None
    server = ServerProcess(run_dir, data_dir, recipe["root"], server_trace)
    driver = None
    try:
        port = server.start()
        probe_name = recipe["hit"]["plain"][0]
        with service.RemoteEndpoint("127.0.0.1", port, timeout=60.0) as probe:
            ctx.expect(probe, probe_name, *ctx.expected[probe_name])
        setup_s = time.monotonic() - server.started_at

        ctx.resolves = 0
        driver = Driver(ctx, args.workload, args.seed, port)
        window_ns0 = time.monotonic_ns()
        client_cpu, server_cpu = driver.run(
            args.seconds, lambda: (time.process_time(), server.cpu_seconds())
        )
        window_ns1 = time.monotonic_ns()
        if driver.errors:
            raise CheckFailed("; ".join(driver.errors[:5]))
        ops = sorted(driver.ops)
        if not ops:
            raise CheckFailed("no operation completed")
        resolves_sent, updates_sent = ctx.resolves, ctx.updates
        driver.close()

        grown = count_lines(log_path) - log_lines_before
        if grown != updates_sent:
            raise CheckFailed(f"updates.log grew by {grown} lines for {updates_sent} updates")
        log_bytes = log_path.stat().st_size - log_bytes_before
        rss_mb = server.peak_rss_mb()
        server.stop()

        if args.workload == "update":
            # Durability: a restarted server answers every touched name as the
            # model says, from the log alone.
            server.trace_file = None
            port = server.start()
            with service.RemoteEndpoint("127.0.0.1", port, timeout=60.0) as ep:
                for name, model in sorted(ctx.touched.items()):
                    ctx.expect(ep, name, *model.answer(name))
            server.stop()

        elapsed = max(end for _, end in ops) - ops[0][0]
        p50_ms = statistics.median(end - start for start, end in ops) * 1e3
        print(
            f"{args.workload} seed {args.seed}{' traced' if tracer else ''}: "
            f"{len(ops)} ops in {elapsed:.2f} s ({len(ops) / elapsed:.2f} op/s, "
            f"p50 {p50_ms:.3f} ms)",
            file=sys.stderr,
        )
        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "cpu_ms_per_op": ((client_cpu + server_cpu) / len(ops) * 1e3, "ms"),
                "client_cpu_ms_per_op": (client_cpu / len(ops) * 1e3, "ms"),
                "server_rss_mb": (rss_mb, "MB"),
            }
        else:
            metrics = traced_metrics(
                args.workload, recipe, tracer.spans() + tracing.load(server_trace),
                (window_ns0, window_ns1), len(ops), resolves_sent, updates_sent,
                log_bytes / updates_sent if updates_sent else 0.0,
            )
        return {
            "correct": True,
            "attempted": len(ops),
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        if driver is not None:
            driver.close()
        server.stop()


def _interrupted(signo, _frame):
    raise KeyboardInterrupt(f"signal {signo}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _interrupted)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS[:1])
    RUNS_ROOT.mkdir(parents=True, exist_ok=True)
    run_dir = RUNS_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        result = run(args, run_dir)
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print(f"error: interrupted {exc}", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
