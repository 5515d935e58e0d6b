"""Run xbase CLI commands, each in its own process forked from this one.

This process imports xbase once, so interpreter start-up is not part of a
command's time, and nothing a command caches survives into the next. It
reads one JSON request per line on stdin, {"argv": [...]}, and answers
one JSON line on stdout:

    {"code": exit status, "out": stdout (base64), "err": stderr text,
     "elapsed_s": fork to reaped, "maxrss_kb": the command's peak RSS,
     "spans": span log (base64) or null}

    python3 perfbench/cli_forkserver.py [--traced]
"""
from __future__ import annotations

import base64
import io
import json
import os
import sys
import time

from harness import check_source_tree


def _child(argv: list[str], tracer, result_fd: int) -> None:
    from xbase import cli

    out = io.BytesIO()
    err = io.StringIO()
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    sys.stderr = err
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(devnull, fd)
    code = 99
    try:
        code = cli.main(argv)
    except BaseException as exc:  # report anything, then leave without cleanup
        err.write(f"benchmark child: {exc!r}\n")
    sys.stdout.flush()
    payload = {
        "code": code,
        "out": base64.b64encode(out.getvalue()).decode("ascii"),
        "err": err.getvalue(),
        "spans": (base64.b64encode(tracer.snapshot().to_bytes()).decode("ascii")
                  if tracer is not None else None),
    }
    data = json.dumps(payload).encode("utf-8")
    view = memoryview(data)
    while view:
        view = view[os.write(result_fd, view):]
    os._exit(code if isinstance(code, int) and 0 <= code < 256 else 99)


def serve(traced: bool) -> None:
    check_source_tree()
    import xbase.cli  # noqa: F401  (imported before any fork)

    tracer = None
    if traced:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        tracer.phase = "timed"
        tracer.enabled = True
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        r, w = os.pipe()
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            _child(argv, tracer, w)
        os.close(w)
        chunks = []
        with os.fdopen(r, "rb") as fh:
            while chunk := fh.read(65536):
                chunks.append(chunk)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - t0
        reply = json.loads(b"".join(chunks)) if chunks else {
            "code": 99, "out": "", "err": f"child ended with status {status}", "spans": None}
        reply["elapsed_s"] = elapsed
        reply["maxrss_kb"] = usage.ru_maxrss
        reply["status"] = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve("--traced" in sys.argv[1:])
