"""Smoke test of the benchmark: every workload at its tiny size, untraced and
traced, with every correctness check on.

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import E2E_UNITS, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def _run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


def _results(proc: subprocess.CompletedProcess) -> list[dict]:
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
    return results


def test_untraced_smoke_reports_every_end_to_end_metric():
    for result in _results(_run(ROOT, 0)):
        assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    for result in _results(_run(ROOT, 1)):
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == {k: unit for k, (unit, _) in LAYER_METRICS.items()}
        for name, metric in result["metrics"].items():
            if name != "trace.overhead_pct":  # a difference of two timings
                assert metric["value"] >= 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
