"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 35]

Run i uses seed i and runs the three workloads with --trace 0, one after
another, in the order full-lp, rr-large, grid on even i and reversed on odd i. For every workload
and metric it prints the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median, and the failed share of rows.
Only one benchmark process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("full-lp", "rr-large", "grid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=35)
    args = parser.parse_args(argv)

    values = defaultdict(lambda: defaultdict(list))
    shares = defaultdict(set)
    digests = defaultdict(set)
    for i in range(args.runs):
        for name in (WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(i),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            digests[name].update(line.split()[-1] for line in lines
                                 if line.startswith("csv digest"))
            shares[name].add(f"{result['failed']}/{result['attempted']}"
                             f"={result['failed'] / result['attempted']:.6f}")
            if not result["correct"]:
                print(f"run {i} {name}: correct=false", flush=True)
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            summary = " ".join(f"{m}={e['value']:.5g}" for m, e in result["metrics"].items())
            print(f"run {i} seed {i} {name}: failed {result['failed']}/{result['attempted']}"
                  f" {summary}", flush=True)

    print(f"\n{args.runs} runs per workload, {args.seconds} s each")
    print(f"{'workload':<9} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in WORKLOADS:
        for metric, series in values[name].items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"{name:<9} {metric:<40} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f}")
        print(f"{name:<9} failed shares {sorted(shares[name])}; "
              f"{len(digests[name])} distinct CSV digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
