"""The benchmark tracer still finds every layer it wraps.

perfbench/tracer.py wraps program functions by name; a refactor that
renames or deletes one breaks the benchmark's traced run. This test
installs the tracer in a fresh interpreter, so the wrapping stays out of
the test process, and fails on the first name it cannot find.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from onhs import crypto, server
t = tracer.Tracer()
tracer.install(t)
server.HandleServer("root.example", crypto.generate_keypair(crypto.RSA_SHA1, bits=1024)[1])
builders = [hasattr(getattr(server, name), "__wrapped__") for name in tracer.BUILDERS]
print(json.dumps({"layers": t.layers, "builders": builders}))
"""


def test_install_wraps_every_layer_the_tracer_names():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(TRACER.parent), str(REPO / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    named = set(re.findall(
        r'"((?:handles|crypto|records|server|client|wire|service)\.[a-z_]+)"',
        TRACER.read_text(),
    ))
    assert "server.lock_wait" in named and "server.make_update" in named
    assert set(found["layers"]) == named
    assert len(found["builders"]) == 7 and all(found["builders"])
