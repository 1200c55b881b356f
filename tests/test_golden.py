"""Golden records: two small configs rerun and compared with committed CSVs.

``tests/golden/<name>.csv`` holds what ``run_experiment`` wrote for the
config of the same name, with ``solve_seconds`` blanked. Every other column
must come out the same, character for character. Between them the two
configs give ``ok`` rows that deviate and rows that do not, and
``infeasible`` rows. full-ccce is left out: on a non-unique optimal face its
vertex can move with the HiGHS version.
"""

import csv
from pathlib import Path

import pytest

from cceq.harness import CSV_COLUMNS, ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
METHODS = ("fcfs", "rr-nominal", "rr-ccce")
MIXED = {"runways": {"mu": [2, 2], "q0": [0, 0]},
         "thresholds": {"congestion": 2, "lateness": 100}}
CONFIGS = {
    "default": dict(flight_counts=(6, 7, 8, 9), sigma=1.0),
    "mixed": dict(flight_counts=(6, 7, 8), sigma=0.5, scenario=MIXED),
}


def read_rows(path: Path) -> list[list[str]]:
    """The CSV's rows, header included, with ``solve_seconds`` blanked."""
    rows = list(csv.reader(path.read_text().splitlines()))
    col = CSV_COLUMNS.index("solve_seconds")
    for row in rows[1:]:
        row[col] = ""
    return rows


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_match_the_golden_csv(name, tmp_path):
    config = ExperimentConfig(methods=METHODS, num_trials=5, out_path=str(tmp_path / "out.csv"),
                              **CONFIGS[name])
    run_experiment(config)
    want = read_rows(GOLDEN / f"{name}.csv")
    assert want[0] == list(CSV_COLUMNS)
    assert read_rows(tmp_path / "out.csv") == want


def test_golden_records_cover_each_outcome():
    cells = {(row[5], row[8]) for name in CONFIGS for row in read_rows(GOLDEN / f"{name}.csv")[1:]}
    assert {("ok", "true"), ("ok", "false"), ("infeasible", "")} <= cells
