"""One workload process: drives `run_experiment` in whole rounds.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1

Each round is one `run_experiment` call with the workload's fixed config,
serial (CCEQ_THREADS unset), exactly as `cceq run` drives it. Round 0 is a
warm-up: it is not timed into the metrics, and it keeps every full-ccce
distribution so that the checks can certify it; with --trace 1 it also
measures the allocation peak of each full-ccce solve. Timed rounds follow while
the next one is expected to end within S seconds of the start; with
--trace 1 they come in pairs, one untraced and one traced. After each
round, outside its timing, the worker reduces it to a few numbers: its wall
time, the p50 and tail percentile of its solve_seconds, and digests of its
CSV and of its records; only round 0's CSV text and records are kept whole.
The CSV is written under perfbench/out/. The result is one JSON object on
stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def import_program():
    """Import cceq from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cceq" / "__init__.py").is_file():
        raise SystemExit(f"no cceq package under {src}")
    sys.path.insert(0, str(src))
    import cceq.harness
    if Path(cceq.__file__).resolve().parent != src / "cceq":
        raise SystemExit(f"imported cceq from {cceq.__file__}, expected {src / 'cceq'}")
    return cceq.harness


def record_dict(record) -> dict:
    return {
        "trial": record.trial_index, "method": record.method,
        "num_flights": record.num_flights, "status": record.status,
        "delay_cost": record.delay_cost, "deviated": record.deviated,
        "rr_size_d": record.rr_size_d,
        "recommendation": None if record.recommendation is None else list(record.recommendation),
        "final_action": None if record.final_action is None else list(record.final_action),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness = import_program()
    sys.path.insert(0, str(HERE))
    import numpy as np
    from hooks import Capture, PeakMemory, Tracer, csv_digest
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-t{args.trace}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    config = harness.ExperimentConfig(**workload.config_kwargs(),
                                      out_path=str(OUT_DIR / f"{tag}.csv"))
    columns = list(harness.CSV_COLUMNS)
    os.environ.pop(harness.THREADS_ENV_VAR, None)

    rounds, tracers = [], []
    first = {}
    started = time.perf_counter()
    while True:
        warm_up = not rounds
        traced = bool(args.trace) and len([r for r in rounds if r["timed"]]) % 2 == 1
        with contextlib.ExitStack() as hooks:
            capture = hooks.enter_context(Capture()) if warm_up else None
            peak = hooks.enter_context(PeakMemory()) if warm_up and args.trace else None
            tracer = hooks.enter_context(Tracer()) if traced else None
            t0 = time.perf_counter()
            result = harness.run_experiment(config)
            wall = time.perf_counter() - t0
        csv_text = Path(config.out_path).read_text()
        records = [record_dict(r) for r in result.records]
        solve_ms = 1e3 * np.array([r.solve_seconds for r in result.records])
        entry = {"wall_s": wall, "timed": not warm_up, "traced": traced, "rows": len(records),
                 "solve_ms_p50": float(np.percentile(solve_ms, 50.0)),
                 "solve_ms_tail": float(np.percentile(solve_ms, workload.tail_pct)),
                 "csv_digest": csv_digest(csv_text, columns),
                 "records_digest": hashlib.sha256(json.dumps(records).encode()).hexdigest()}
        if tracer is not None:
            entry["layers"] = tracer.layer_stats()
            tracers.append((len(rounds), tracer))
        if warm_up:
            first = {"records": records, "csv": csv_text,
                     "distributions": capture.distributions,
                     "peak_bytes": peak.peak_bytes if peak else None}
        rounds.append(entry)
        timed = [r for r in rounds if r["timed"]]
        if not timed or (args.trace and len(timed) % 2):
            continue
        step = statistics.median(r["wall_s"] for r in timed) * (2 if args.trace else 1)
        if time.perf_counter() - started + step > args.seconds:
            break

    if tracers:
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w") as handle:
            for index, tracer in tracers:
                tracer.dump(handle, index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump({"rounds": rounds, "first": first, "peak_rss_mb": peak_rss_mb,
               "csv_columns": columns}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
