import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cceq
from cceq.cli import main
from cceq.game import FiniteGame, save_game
from conftest import INTERSECTION_COSTS


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "intersection_game.json"
    save_game(FiniteGame((2, 2), INTERSECTION_COSTS), path)
    return path


def test_run_subcommand(tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = main([
        "run", "--methods", "fcfs,rr-nominal", "--trials", "2",
        "--flights", "6..7", "--alpha", "0.9", "--sigma", "0",
        "--seed", "5", "--airlines", "3", "--out", str(out),
    ])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 1 + 2 * 2 * 2
    printed = capsys.readouterr().out
    assert "rr-nominal" in printed and "wrote" in printed


def test_run_with_config_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    config = {
        "methods": ["fcfs"], "num_trials": 1, "flight_counts": [6],
        "num_airlines": 3, "uncertainty": {"sigma": 1.0},
        "out": str(out), "master_seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert out.exists()


def test_run_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"methods": ["bogus"]}))
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("bad", [
    ["--flights", "6,3", "--airlines", "5"],
    ["--sigma", "1,2", "--airlines", "5"],
    ["--sigma", "-1"],
])
def test_run_bad_flags_exit_2_before_writing(tmp_path, bad):
    out = tmp_path / "results.csv"
    rc = main(["run", "--methods", "fcfs", "--trials", "2", "--flights", "6",
               "--out", str(out), *bad])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("scenario", [
    {"thresholds": {"congestoin": 99}},
    {"runways": {"mu": [2, 2, 3]}},
    {"thresholds": {"congestion": 2.7}},
    {"thresholds": {"congestion": True}},
    {"epoch_minutes": "4"},
    {"epoch_minutes": -4},
    {"runways": {"mu": ["2", 2], "q0": [2.7, 0]}},
    {"epoch_minutes": 1e309},
    {"lateness_scale": 1e309},
    {"weights": {"heavy": 1e309, "medium": 1.0, "small": 0.75}},
    {"lateness_scale": 1e200},  # finite, but a lateness term overflows
    {"epoch_minutes": 1e200},
])
def test_run_bad_scenario_exits_2_before_writing(tmp_path, scenario):
    out = tmp_path / "results.csv"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"methods": ["fcfs"], "num_trials": 1, "flight_counts": [6],
                               "out": str(out), "scenario": scenario}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("field", [
    {"alpha": "0.9"},
    {"num_trials": "3"},
    {"num_airlines": True},
    {"master_seed": 1.5},
    {"time_budget_per_solve": "1"},
    {"uncertainty": {"sigma": "1.0"}},
    {"sigma": [1.0, "2", 1.0, 1.0, 1.0]},
    {"flight_counts": 6},
    {"flight_counts": ["6"]},
])
def test_run_wrong_type_config_exits_2_before_writing(tmp_path, field):
    out = tmp_path / "results.csv"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"methods": ["fcfs"], "num_trials": 1, "flight_counts": [6],
                               "out": str(out), **field}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("run", {"uncertainty": 1.0}),
    ("run", {"uncertainty": {"sigma": 1.0, "sigmaa": 2.0}}),
    ("run", [1, 2]),
    ("run", {"out": 5}),
    ("check", [1, 2]),
    ("enumerate-pne", [1, 2]),
])
def test_malformed_documents_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys,
                                                      command, doc):
    monkeypatch.chdir(tmp_path)  # a default or mistyped out path would land here
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "run":
        argv = ["run", "--config", str(path), "--methods", "fcfs", "--trials", "1",
                "--flights", "6"]
    else:
        argv = [command, "--game-file", str(path), "--alpha", "0.9", "--sigma", "1"]
    assert main(argv) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("command", ["check", "enumerate-pne"])
@pytest.mark.parametrize("agents, counts", [
    (2, [2.7, 2]),    # a fraction, once truncated to 2
    (2, [2.0, 2]),
    (2, [True, 2]),
    (2.0, [2, 2]),
    (True, [2]),
    (2, ["2", 2]),
])
def test_non_integer_game_counts_exit_2(tmp_path, capsys, command, agents, counts):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"agents": agents, "action_counts": counts,
                                "costs": INTERSECTION_COSTS.tolist()}))
    rc = main([command, "--game-file", str(path), "--alpha", "0.9", "--sigma", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "must be an integer" in captured.err and "found" not in captured.out


def test_run_out_flag_beats_config_out(tmp_path, monkeypatch):
    # --out and --sigma beat their aliases, out and uncertainty.sigma, in one document
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"methods": ["fcfs"], "num_trials": 1, "flight_counts": [6],
                               "out": "from-file.csv", "uncertainty": {"sigma": 2.0}}))
    assert main(["run", "--config", str(cfg), "--out", "from-flag.csv", "--sigma", "0.5"]) == 0
    assert not (tmp_path / "from-file.csv").exists()
    rows = list(csv.DictReader((tmp_path / "from-flag.csv").read_text().splitlines()))
    assert [row["sigma"] for row in rows] == ["0.5"]


@pytest.mark.parametrize("argv", [
    ["run", "--sigma", "1,x"],
    ["run", "--flights", "6..x"],
    ["check", "--game-file", "g.json", "--alpha", "0.9", "--sigma", "x"],
    ["enumerate-pne", "--game-file", "g.json", "--alpha", "0.9", "--sigma", "1,,x"],
])
def test_unparsable_flags_exit_2_from_argparse(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_run_missing_config_exits_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_check_distribution(game_file, tmp_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"mass": [0.0, 0.5, 0.5, 0.0]}))
    rc = main(["check", "--game-file", str(game_file), "--alpha", "0.9",
               "--sigma", "1.0", "--dist-file", str(dist)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasible: true" in out
    assert "-0.7184" in out

    rc = main(["check", "--game-file", str(game_file), "--alpha", "0.99",
               "--sigma", "1.0", "--dist-file", str(dist)])
    assert rc == 0
    assert "feasible: false" in capsys.readouterr().out


def test_check_nan_distribution_exits_2(game_file, tmp_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text('{"mass": [NaN, 0.5, 0.5, 0]}')
    rc = main(["check", "--game-file", str(game_file), "--alpha", "0.9",
               "--sigma", "1.0", "--dist-file", str(dist)])
    assert rc == 2
    assert "feasible" not in capsys.readouterr().out


def test_check_polytope_mode(game_file, capsys):
    rc = main(["check", "--game-file", str(game_file), "--alpha", "0.9", "--sigma", "1.0"])
    assert rc == 0
    assert "nonempty: true" in capsys.readouterr().out
    rc = main(["check", "--game-file", str(game_file), "--alpha", "0.99", "--sigma", "9.0"])
    assert rc == 0
    assert "nonempty: false" in capsys.readouterr().out


def test_enumerate_pne(game_file, capsys):
    rc = main(["enumerate-pne", "--game-file", str(game_file),
               "--alpha", "0.9", "--sigma", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0 1"
    assert out[1] == "1 0"
    assert out[2] == "found 2 CC-PNE at alpha=0.9"


def test_enumerate_pne_limit(game_file, capsys):
    rc = main(["enumerate-pne", "--game-file", str(game_file),
               "--alpha", "0.9", "--sigma", "0", "--limit", "1"])
    assert rc == 0
    assert "found 1" in capsys.readouterr().out


def test_enumerate_pne_negative_limit_exits_2(game_file, capsys):
    rc = main(["enumerate-pne", "--game-file", str(game_file),
               "--alpha", "0.9", "--sigma", "0", "--limit", "-1"])
    assert rc == 2
    assert "found" not in capsys.readouterr().out


def test_check_bad_game_file_exits_1(tmp_path):
    rc = main(["check", "--game-file", str(tmp_path / "nope.json"),
               "--alpha", "0.9", "--sigma", "1"])
    assert rc == 1


def test_per_agent_sigma_parsing(game_file, capsys):
    rc = main(["enumerate-pne", "--game-file", str(game_file),
               "--alpha", "0.9", "--sigma", "1.0,2.0"])
    assert rc == 0
    assert "found" in capsys.readouterr().out


def test_run_exit_zero_despite_per_trial_failures(tmp_path, capsys):
    # sub-nanosecond budget forces timeout statuses; the batch still completes
    out = tmp_path / "t.csv"
    rc = main(["run", "--methods", "full-ccce", "--trials", "2", "--flights", "6",
               "--airlines", "3", "--seed", "0", "--sigma", "0",
               "--time-budget", "1e-9", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert all(row[5] == "timeout" for row in rows[1:])


def test_console_script_installed():
    # the installed `cceq` when there is one; otherwise the module it names
    src = Path(cceq.__file__).resolve().parents[1]
    exe = shutil.which("cceq")
    if exe is None:
        pyproject = (src.parent / "pyproject.toml").read_text()
        module, attr = re.search(r'^cceq = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        assert callable(getattr(importlib.import_module(module), attr))
        command = [sys.executable, "-m", module, "--help"]
    else:
        command = [exe, "--help"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "enumerate-pne" in proc.stdout
