"""Run ``xbase serve`` with the served store and the wire codec wrapped in
spans. On SIGUSR1 the spans are written to a file.

    python3 perfbench/serve_traced.py STORE_PATH HOST:PORT SPAN_FILE
"""
from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

from harness import check_source_tree
from tracing import Tracer, instrument


def main(argv: list[str]) -> int:
    store_path, address, span_file = argv
    check_source_tree()
    from xbase import cli

    tracer = Tracer()
    instrument(tracer, server_side=True)
    tracer.enabled = True

    def dump(signum, frame):
        tmp = Path(span_file + ".tmp")
        tmp.write_bytes(tracer.snapshot().to_bytes())
        os.replace(tmp, span_file)

    signal.signal(signal.SIGUSR1, dump)
    return cli.main(["serve", store_path, address])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
