"""Benchmark of xbase: three workloads, end-to-end metrics, and a traced run
for per-layer metrics.

    python3 perfbench/run.py --workload blobs|documents|history|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Prints every metric by name and unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from a traced run that follows an untraced one (their difference is
the tracing overhead). --smoke runs at a tiny size with every check on.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys

from harness import (
    OUT_DIR,
    WORK_ROOT,
    BenchError,
    ServerProcess,
    check_source_tree,
    core_plan,
    pin,
    reference_loop_s,
)

WORKLOADS = ("blobs", "documents", "history")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "disk_bytes_per_user_byte": "B/B",
}


class Context:
    """What a workload needs from the harness: its inputs' seed, its run
    length, a private work directory, cores, servers and the tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.traced = traced
        self.client_cores, self.server_cores = core_plan()
        self.work = WORK_ROOT / f"{workload}-{os.getpid()}-{int(traced)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.servers: list[ServerProcess] = []
        self.tracer = None
        if traced:
            from tracing import Tracer, instrument

            self.tracer = Tracer()
            instrument(self.tracer)

    def start_server(self, store_path) -> ServerProcess:
        server = ServerProcess(store_path, self.server_cores, self.traced,
                               self.work / f"spans-{len(self.servers)}.bin")
        self.servers.append(server)
        return server

    def trace(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.enabled = True

    def trace_on(self) -> None:
        self.trace("timed")

    def trace_full(self) -> bool:
        """A traced timed phase stops early once the span buffer is full."""
        return self.tracer is not None and self.tracer.full

    def trace_off(self) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.work, ignore_errors=True)


def _run_workload(name: str, ctx: Context) -> dict:
    module = importlib.import_module(name)
    try:
        result = module.run(ctx)
    finally:
        ctx.close()
    setup = result["setup"]
    result["metrics"] = {
        "setup_s": statistics.median(setup),
        "ops_per_s": result["ops_per_s"],
        "read_p50_ms": result["read"]["p50_ms"],
        "write_p50_ms": result["write"]["p50_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "disk_bytes_per_user_byte": result["disk_ratio"],
    }
    return result


def _print_e2e(result: dict, label: str) -> None:
    m = result["metrics"]
    setup = ", ".join(f"{s:.4f}" for s in result["setup"])
    print(f"  [{label}]")
    print(f"  setup_s                  {m['setup_s']:12.4f} s     median of {len(result['setup'])}: {setup}")
    print(f"  ops_per_s                {m['ops_per_s']:12.2f} 1/s   {result['attempted']} operations")
    for key, lat in (("read_p50_ms", result["read"]), ("write_p50_ms", result["write"])):
        p99 = f", p99 {lat['p99_ms']:.4f} ms" if "p99_ms" in lat else ""
        print(f"  {key:<24} {m[key]:12.4f} ms    n={lat['n']}{p99}")
    print(f"  peak_rss_mb              {m['peak_rss_mb']:12.2f} MB")
    print(f"  disk_bytes_per_user_byte {m['disk_bytes_per_user_byte']:12.4f} B/B")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {str(result['correct']).lower()}")
    for note in result.get("notes", []):
        print(f"  note: {note}")
    for error in result["errors"][:5]:
        print(f"  error: {error}")


def run_one(name: str, args) -> dict:
    """Run one workload; return the final JSON object."""
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    ref_start = reference_loop_s()
    plain = _run_workload(name, Context(name, args.seed, args.seconds, args.smoke, False))
    _print_e2e(plain, "untraced")
    out = {"correct": plain["correct"], "attempted": plain["attempted"],
           "failed": plain["failed"]}
    if args.trace:
        from tracing import LAYER_METRICS, layer_metrics

        ctx = Context(name, args.seed, args.seconds, args.smoke, True)
        traced = _run_workload(name, ctx)
        _print_e2e(traced, "traced")
        client = ctx.tracer.snapshot()
        for child in traced.get("child_spans", []):
            client.extend(child)
        server = traced.get("server_spans")
        layers = layer_metrics(client, server, traced["attempted"])
        base = plain["metrics"]["ops_per_s"]
        layers["trace.overhead_pct"] = (base - traced["metrics"]["ops_per_s"]) / base * 100
        print("  tracing overhead (traced - untraced, share of untraced):")
        for key, value in plain["metrics"].items():
            diff = (traced["metrics"][key] - value) / value * 100 if value else 0.0
            print(f"    {key:<24} {diff:+8.2f} %")
        print("  per-layer (traced run):")
        for key, (unit, better) in LAYER_METRICS.items():
            print(f"    {key:<30} {layers[key]:14.4f} {unit:<6} ({better} is better)")
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{name}-client.bin").write_bytes(client.to_bytes())
        if server is not None:
            (OUT_DIR / f"spans-{name}-server.bin").write_bytes(server.to_bytes())
        out["correct"] = out["correct"] and traced["correct"]
        out["metrics"] = {k: {"value": layers[k], "unit": u} for k, (u, _) in LAYER_METRICS.items()}
    else:
        out["metrics"] = {k: {"value": plain["metrics"][k], "unit": u} for k, u in E2E_UNITS.items()}
    print(f"  reference loop: {ref_start:.4f} s at start, {reference_loop_s():.4f} s at end")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every check on")
    args = parser.parse_args(argv)
    try:
        check_source_tree()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    client_cores, _ = core_plan()
    pin(0, client_cores)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(run_one(name, args))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        sys.stdout.flush()
    for r in results:
        print(json.dumps(r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
