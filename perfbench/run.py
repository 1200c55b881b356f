"""Benchmark of cceq: one workload per call, outputs checked, one JSON line out.

    python3 perfbench/run.py --workload {full-lp,rr-large,grid} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Steps, one after another so that at most one core is busy:

1. With --trace 0, setup_s: nine launches of a fresh interpreter that
   imports cceq and builds the workload's ExperimentConfig, timed from
   outside; the median.
2. The workload process (worker.py) runs `run_experiment` in whole rounds
   for about S seconds: an untimed warm-up, then timed rounds. It reports
   per-round wall times, solve-time percentiles and digests, round 0's CSV
   and records whole and, with --trace 1, per-layer spans.
3. After the timed section, every row of round 0 is checked (checks.py),
   and every other round's CSV and records must have round 0's digests.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_LAUNCHES = 9
WORKER_TIMEOUT_S = 160

# Per-layer metrics: (name, unit), reported per round (median over traced rounds).
BUSY_LAYERS = (
    "lp.solve", "equilibrium.assemble", "equilibrium.solve_full_ccce",
    "equilibrium.enumerate_cc_pne", "equilibrium.solve_reduced_rank",
    "equilibrium.sample_recommendation", "vq.generate_instance", "vq.build_game",
    "harness.simulate_deviation", "uncertainty.substream",
)
CALL_COUNTS = ("lp.solve", "vq.build_game", "game.conditional_expected_deviation",
               "uncertainty.substream")
TRIAL_METHODS = ("fcfs", "full-ccce", "rr-nominal", "rr-ccce")


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{layer}.busy_s", "s") for layer in BUSY_LAYERS]
    names += [(f"{layer}.calls", "count") for layer in CALL_COUNTS]
    names += [("equilibrium.solve_full_ccce.peak_mb", "MB"), ("harness.run_trial.busy_s", "s")]
    names += [(f"harness.run_trial.{m}.ms_p50", "ms") for m in TRIAL_METHODS]
    names += [("harness.run_experiment.self_s", "s"), ("trace.overhead_pct", "%")]
    return names


# What setup_s times: a fresh interpreter that imports cceq and builds the
# workload's ExperimentConfig, and nothing of the benchmark's own.
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from cceq.harness import ExperimentConfig
from workloads import WORKLOADS
ExperimentConfig(**WORKLOADS[sys.argv[3]].config_kwargs())
"""


def time_setup(workload: str) -> float:
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE), workload],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(rounds: list[dict], peak_bytes: int) -> dict:
    """Per-layer values: per traced round, then the median over traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if r["timed"] and not r["traced"]]

    def median_of(fn):
        return statistics.median(fn(r["layers"]) for r in traced)

    out = {}
    for layer in BUSY_LAYERS:
        out[f"{layer}.busy_s"] = median_of(lambda s: s["busy_s"].get(layer, 0.0))
    for layer in CALL_COUNTS:
        out[f"{layer}.calls"] = median_of(lambda s: s["calls"].get(layer, 0))
    out["equilibrium.solve_full_ccce.peak_mb"] = peak_bytes / 2 ** 20
    out["harness.run_trial.busy_s"] = median_of(lambda s: sum(
        v for k, v in s["busy_s"].items() if k.startswith("harness.run_trial.")))
    for method in TRIAL_METHODS:
        out[f"harness.run_trial.{method}.ms_p50"] = median_of(
            lambda s: statistics.median(s["trial_ms"].get(f"harness.run_trial.{method}", [0.0])))
    out["harness.run_experiment.self_s"] = statistics.median(
        r["wall_s"] - r["layers"]["trial_total_s"] for r in traced)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return out


def end_to_end_metrics(rounds: list[dict]) -> dict:
    """trials_per_s, solve_ms_p50 and solve_ms_tail per round, then the median."""
    return {
        "trials_per_s": statistics.median(r["rows"] / r["wall_s"] for r in rounds),
        "solve_ms_p50": statistics.median(r["solve_ms_p50"] for r in rounds),
        "solve_ms_tail": statistics.median(r["solve_ms_tail"] for r in rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cceq" / "__init__.py").is_file():
        print(f"error: no cceq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else time_setup(workload.name)
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload.name, "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.splitlines()[-1])

    # --- checks, after the timed section ---
    import checks
    from cceq.harness import ExperimentConfig

    config = ExperimentConfig(**workload.config_kwargs())
    rounds, first = report["rounds"], report["first"]
    errors, failed = checks.check_round(config, first["records"], first["distributions"],
                                        first["csv"], report["csv_columns"])
    for kind in ("csv_digest", "records_digest"):
        differing = sum(r[kind] != rounds[0][kind] for r in rounds)
        if differing:
            errors.append(f"{differing} of {len(rounds)} rounds differ from round 0 in {kind}")
    attempted = sum(r["rows"] for r in rounds)
    failed_rows = len(failed) * len(rounds)

    print(f"workload {workload.name}: seed {args.seed}, master seed {config.master_seed}, "
          f"{len(rounds)} rounds of {workload.rows_per_round} rows")
    print(f"csv digest (solve_seconds blanked): {rounds[0]['csv_digest']}")
    print("round walls (s): " + " ".join(
        f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}{'' if r['timed'] else 'W'}"
        for r in rounds))
    for (num_flights, method, trial), reasons in sorted(failed.items()):
        print(f"failed row: flights {num_flights} {method} trial {trial}: {'; '.join(reasons)}")
    for error in errors:
        print(f"error: {error}")

    if args.trace:
        values = layer_metrics(rounds, first["peak_bytes"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        values = end_to_end_metrics([r for r in rounds if r["timed"]])
        print(f"solve_ms_tail is p{workload.tail_pct:g} of each round's "
              f"{workload.rows_per_round} rows")
        metrics = {
            "trials_per_s": {"value": values["trials_per_s"], "unit": "1/s"},
            "solve_ms_p50": {"value": values["solve_ms_p50"], "unit": "ms"},
            "solve_ms_tail": {"value": values["solve_ms_tail"], "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"  {name:<45} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed_rows,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
