"""Smoke test of the benchmark: one short traced `grid` run through
perfbench/run.py, so that a change which breaks the benchmark's hooks or
checks fails here first."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_grid_trace_run_is_correct_and_attributed():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"], proc.stdout
    assert report["failed"] == 0
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    # 4 flight counts x 30 trials, each lowered once and shared by 4 methods
    assert metrics["vq.build_game.calls"] == 120
    assert metrics["harness.run_trial.busy_s"] > 0.0
    for method in ("fcfs", "full-ccce", "rr-nominal", "rr-ccce"):
        assert metrics[f"harness.run_trial.{method}.ms_p50"] > 0.0
