"""Run the program's `serve` with its layers traced.

    python3 perfbench/traced_serve.py TRACE serve --config server.conf

Installs the span wrappers of tracer.py, then runs the same `main` that
`python -m onhs` runs. When serve returns (SIGTERM or SIGINT), the spans
are written to TRACE.bin and TRACE.json.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402


def main() -> int:
    recorder = tracer.Tracer()
    tracer.install(recorder)
    from onhs.cli import main as onhs_main

    code = onhs_main(sys.argv[2:])
    recorder.dump(Path(sys.argv[1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
