"""Smoke tests of the benchmark: one short traced run of each workload
through perfbench/run.py, so that a change which breaks the benchmark's
hooks or checks fails here first."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"], proc.stdout
    assert report["failed"] == 0
    return report


def test_grid_trace_run_is_correct_and_attributed():
    report = traced_run("grid")
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    # 4 flight counts x 30 trials, each lowered once and shared by 4 methods
    assert metrics["vq.build_game.calls"] == 120
    assert metrics["harness.run_trial.busy_s"] > 0.0
    for method in ("fcfs", "full-ccce", "rr-nominal", "rr-ccce"):
        assert metrics[f"harness.run_trial.{method}.ms_p50"] > 0.0


def test_rr_large_trace_run_is_correct():
    # the benchmark's checks recount every rr row's CC-PNE set by brute force,
    # here at 12..14 flights
    report = traced_run("rr-large")
    # 3 flight counts x 40 trials, each lowered once: lowering stays attributed
    assert report["metrics"]["vq.build_game.calls"]["value"] == 120


def test_full_lp_trace_run_is_correct():
    # the benchmark's checks solve every full-ccce row's program again with
    # scipy's reference LP, here at 9..11 flights
    report = traced_run("full-lp")
    # 3 flight counts x 14 trials, one selection LP each
    assert report["metrics"]["lp.solve.calls"]["value"] == 42
