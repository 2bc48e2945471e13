"""One CLI invocation as the benchmark runs it: `exangulate.cli.main` in a
fresh interpreter, with the moment `build_category` returns written out.

    python3 bench/child.py --mark PATH [--trace PATH] [--setup-only] -- ARGS...

ARGS are the `exangulate` command line.  PATH for --mark receives the CPU
time the process has used when `build_category` returns (interpreter start,
imports, parsing and building).  --setup-only exits right there with code 0.  --trace wraps the layers (see
layertrace.py) and writes their statistics as JSON to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import exangulate.cli as cli  # noqa: E402


def main() -> int:
    split = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--mark", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(sys.argv[1:split])

    tracer = None
    if opts.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    build_category = cli.build_category

    def marked_build_category(cfg):
        cat = build_category(cfg)
        Path(opts.mark).write_text(repr(time.process_time()), encoding="utf-8")
        if opts.setup_only:
            os._exit(0)
        return cat

    cli.build_category = marked_build_category
    try:
        return cli.main(sys.argv[split + 1:])
    finally:
        if tracer is not None:
            Path(opts.trace).write_text(json.dumps(tracer.report()),
                                        encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
