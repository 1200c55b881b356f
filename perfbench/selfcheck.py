"""Self-test of the benchmark's output checks, on games small enough to do by hand.

    python3 perfbench/selfcheck.py

Exits 0 and prints one line per check when all pass; exits 1 on the first
failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hooks  # noqa: E402

# Two drivers at an intersection, actions {Go=0, Stop=1}; costs
# (G,G)=(5,5), (G,S)=(-1,1), (S,G)=(1,-1), (S,S)=(1,1).
INTERSECTION = np.array([[5.0, -1.0, 1.0, 1.0], [5.0, 1.0, -1.0, 1.0]])
COUNTS = (2, 2)


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main() -> int:
    q90 = [checks.quantile(1.0, 0.9)] * 2
    q99 = [checks.quantile(1.0, 0.99)] * 2
    half = np.array([0.0, 0.5, 0.5, 0.0])

    worst = checks.certificate_margin(INTERSECTION, COUNTS, half, q90)
    expect(abs(worst - (-0.7184)) < 1e-4 and worst <= checks.CERT_TOL,
           f"1/2-1/2 device passes at sigma=1, alpha=0.9 with worst margin {worst:.4f}")
    worst = checks.certificate_margin(INTERSECTION, COUNTS, half, q99)
    expect(worst > checks.CERT_TOL, f"1/2-1/2 device fails at alpha=0.99 ({worst:.4f})")

    # (G,S) alone is a CC-CE; 1e-12 on (S,S) makes "Stop" a recommendation
    # to agent 0 whose only conditional outcome is a deviation gain of 2.
    ghost = np.array([0.0, 1.0 - 1e-12, 0.0, 1e-12])
    pure = checks.certificate_margin(INTERSECTION, COUNTS, np.array([0.0, 1.0, 0.0, 0.0]), q90)
    worst = checks.certificate_margin(INTERSECTION, COUNTS, ghost, q90)
    expect(pure <= checks.CERT_TOL and worst > 1.0,
           f"1e-12 ghost mass on (S,S) fails the certificate ({pure:.4f} -> {worst:.4f})")

    # Hand count: (G,S) and (S,G) are pure equilibria at sigma=0 and stay so
    # at alpha=0.9 (own cost -1 + 1.2816 <= 1); at alpha=0.99 (+2.3263) none is.
    for quantiles, hand, label in (([0.0, 0.0], 2, "sigma=0"), (q90, 2, "alpha=0.9"),
                                   (q99, 0, "alpha=0.99")):
        found = checks.cc_pne_profiles(INTERSECTION, COUNTS, quantiles)
        expect(len(found) == hand, f"brute-force CC-PNE count {len(found)} == hand count {hand}"
               f" on the 2x2 game at {label}")
    expect(checks.cc_pne_profiles(INTERSECTION, COUNTS, [0.0, 0.0]).tolist() == [1, 2],
           "the nominal pure equilibria are (G,S) and (S,G)")

    status, optimum = checks.selection_lp(INTERSECTION, COUNTS, q90, INTERSECTION.sum(axis=0))
    expect(status == 0 and abs(optimum) < 1e-9,
           f"HiGHS selection LP optimum {optimum} == 0 (the 1/2-1/2 device) at alpha=0.9")
    rows = checks.incentive_rows(INTERSECTION, COUNTS, q90)
    expect(rows.shape == (4, 4) and rows.nnz == 4 * 1 * 2,
           f"incentive rows {rows.shape}, nnz {rows.nnz} == N * sum(m_i - 1)")

    from cceq.vq import build_game, generate_instance
    instance = generate_instance(8, 3, seed=np.random.SeedSequence(7))
    game, sys_cost = build_game(instance)
    rng = np.random.default_rng(7)
    diffs = []
    for _ in range(20):
        profile = tuple(int(rng.integers(m)) for m in game.action_counts)
        diffs.append(abs(checks.scalar_system_cost(instance, profile)
                         - sys_cost[checks.flat_of(profile, game.action_counts)]))
    expect(max(diffs) < 1e-9, f"scalar cost model matches build_game on 20 profiles "
           f"(max diff {max(diffs):.2g})")

    header = "trial,method,num_flights,alpha,sigma,status,solve_seconds,delay_cost\n"
    columns = header.strip().split(",")
    a = hooks.csv_digest(header + "0,fcfs,6,0.9,1.0,ok,0.001,12.5\n", columns)
    b = hooks.csv_digest(header + "0,fcfs,6,0.9,1.0,ok,0.002,12.5\n", columns)
    c = hooks.csv_digest(header + "0,fcfs,6,0.9,1.0,ok,0.001,12.6\n", columns)
    expect(a == b != c, "CSV digest ignores solve_seconds only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
