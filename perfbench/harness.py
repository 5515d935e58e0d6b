"""Shared pieces of the benchmark: paths, core pinning, statistics, memory
readings, the reference loop, and starting and stopping served stores."""
from __future__ import annotations

import gc
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"


class BenchError(Exception):
    """The benchmark cannot run, or the program gave a wrong answer."""


def check_source_tree() -> None:
    """Make the package importable from the checkout's src/ directory."""
    if not (SRC / "xbase" / "__init__.py").is_file():
        raise BenchError(f"no xbase sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------- cores

def core_plan() -> tuple[set[int] | None, set[int] | None]:
    """(client cores, server cores): one core each when two are allowed."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


def pin(pid: int, cores: set[int] | None) -> None:
    if cores is not None:
        os.sched_setaffinity(pid, cores)


# ---------------------------------------------------------------- statistics

def latency_summary(samples_s: list[float]) -> dict:
    """p50 in ms with its sample count; p99 only with ten samples beyond it."""
    if not samples_s:
        raise BenchError("no operation of this kind completed")
    out = {"n": len(samples_s), "p50_ms": statistics.median(samples_s) * 1e3}
    if len(samples_s) >= 1000:
        out["p99_ms"] = statistics.quantiles(samples_s, n=100)[98] * 1e3
    return out


# ---------------------------------------------------------------- memory

def rss_kb(pid: int | str = "self", field: str = "VmRSS") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {field}")


def quiesce() -> None:
    """Collect garbage and freeze what survives, so the timed phase does not
    keep rescanning the benchmark's own inputs."""
    gc.collect()
    gc.freeze()


def thaw() -> None:
    gc.unfreeze()
    gc.collect()


# ---------------------------------------------------------------- reference loop

def reference_loop_s() -> float:
    """A fixed pure-Python loop; its time tracks host speed, not xbase."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    elapsed = time.perf_counter() - start
    if total != 333332833333500000:
        raise BenchError("reference loop miscomputed")
    return elapsed


# ---------------------------------------------------------------- served stores

class ServerProcess:
    """A store served by a child process that prints its bound address.

    With traced=False the child is ``python -m xbase serve``; with
    traced=True it is the benchmark's own launcher, which instruments the
    served store and the codec and dumps its spans on SIGUSR1.
    """

    def __init__(self, store_path: Path, cores: set[int] | None, traced: bool,
                 span_file: Path | None = None):
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                    str(store_path), "127.0.0.1:0", str(span_file)]
        else:
            argv = [sys.executable, "-m", "xbase", "serve", str(store_path), "127.0.0.1:0"]
        self.span_file = span_file
        self.proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        pin(self.proc.pid, cores)
        line = self.proc.stderr.readline().decode("utf-8", "replace")
        if " on " not in line:
            self.kill()
            raise BenchError(f"server did not start: {line.strip()!r}")
        self.address = line.rsplit(" on ", 1)[1].strip()

    def peak_rss_kb(self) -> int:
        return rss_kb(self.proc.pid, "VmHWM")

    def dump_spans(self, timeout: float = 30.0):
        """Ask the traced launcher for its spans (they stay in its memory
        until now)."""
        from tracing import SpanLog

        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.span_file.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("traced server wrote no spans")
            time.sleep(0.01)
        return SpanLog.from_bytes(self.span_file.read_bytes())

    def kill(self) -> None:
        """SIGKILL: nothing buffered in the server gets a chance to flush."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


def wait_first_answer(address: str, timeout: float = 30.0):
    """Return a connected RemoteStore once the server answers STORE_ID."""
    from xbase.netstore import RemoteStore, UnreachableError

    deadline = time.monotonic() + timeout
    while True:
        remote = RemoteStore(address)
        try:
            remote.get_store_id()
            return remote
        except UnreachableError:
            remote.close()
            if time.monotonic() > deadline:
                raise BenchError(f"no answer from {address}") from None
            time.sleep(0.005)
