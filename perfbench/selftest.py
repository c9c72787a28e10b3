"""Self-test of the benchmark command.

    python3 perfbench/selftest.py [--seconds 2]

Runs every workload briefly (those in BENCHMARK.json and resolve_hit),
untraced and traced, and checks that

  * the last line of standard output parses as the result, with exactly
    the keys correct, attempted, failed and metrics, and correct is true;
  * it carries every metric BENCHMARK.json names for that mode, each
    above 0 for the end-to-end ones;
  * no server process of the run is left running.

Then copies BENCHMARK.json and this directory, without the program, into
a scratch directory and checks that the command fails there without
printing a result. Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BY_HAND = ("resolve_hit",)  # workloads of run.py that BENCHMARK.json leaves out


def leftover_servers(run_pid: int) -> list:
    """Processes whose command line names the run's data directory."""
    marker = f"run-{run_pid}".encode()
    found = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes()
        except OSError:
            continue
        if marker in cmdline:
            found.append(int(proc.name))
    return found


def run_once(spec: dict, workload: str, trace: int, seconds: str, cwd: Path) -> tuple:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    left = leftover_servers(proc.pid)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err), left


def check_result(spec: dict, workload: str, trace: int, seconds: str) -> list:
    done, left = run_once(spec, workload, trace, seconds, REPO)
    label = f"{workload} --trace {trace}"
    problems = [f"{label}: server processes left running: {left}"] if left else []
    if done.returncode != 0:
        return problems + [f"{label}: exit {done.returncode}: {done.stderr[-1500:]}"]
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + [f"{label}: last line is not a JSON result: {lines[-1:]}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')!r}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted is {result.get('attempted')!r}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got.get('unit')!r}")
        elif not trace and not got.get("value", 0) > 0:
            problems.append(f"{label}: {metric['name']} is {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    print(f"{label}: {result.get('attempted')} ops, {len(problems)} problems", flush=True)
    return problems


def check_without_program(spec: dict) -> list:
    """In a directory without the program, the command fails with no result."""
    bare = HERE / ".runs" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(
                REPO / path, bare / path, ignore=shutil.ignore_patterns(".data", ".runs", "__pycache__")
            )
        shutil.copyfile(REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
        done, left = run_once(spec, spec["workloads"][0]["name"], 0, "1", bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("without the program: exit code 0")
    if done.stdout.strip():
        problems.append(f"without the program: printed {done.stdout.strip()[-200:]!r}")
    if left:
        problems.append(f"without the program: processes left running: {left}")
    print(f"without the program: exit {done.returncode}, {len(problems)} problems", flush=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="2")
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + list(BY_HAND):
        for trace in (0, 1):
            problems += check_result(spec, workload, trace, args.seconds)
    problems += check_without_program(spec)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
