import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowcutter import cli
from flowcutter.cli import main
from flowcutter.errors import CertificationError, SolverError
from flowcutter.flow import FlowEngine
from flowcutter.symbolic import IntervalSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_certify_json(capsys):
    code, out = run_cli(capsys, "certify", "--grid", "1024")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["T"] == 1.0
    assert 0.07 < doc["B1"] < 0.08
    assert doc["M"] > 0.0


def test_certify_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "certify", "--grid", "1024")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["ok"] == "True"


# every subcommand at its smallest size, with the CSV header it advertises
CSV_RUNS = [
    (["certify", "--grid", "1024"], ["T", "M", "B1", "tol", "grid", "ok"]),
    (["verify-lemmas", "--depth", "1"],
     ["check", "residual", "pass", "min_slack"]),
    (["distortion", "--depth", "1", "--grid", "33"], ["k", "C_k", "C_theory"]),
    (["sbd", "--k", "2"], ["k", "ratio", "limit_ratio", "image_log_size"]),
    (["sbd-profile", "--depth", "1", "--grid", "33"], ["r", "beta_hat"]),
    (["dimension", "--depth", "1"], ["depth", "method", "s", "s_lower", "s_upper"]),
    (["intervals", "--depth", "1"], ["word", "left", "right", "log_size"]),
]


# the columns that hold text; every other cell is a number or empty
TEXT_COLUMNS = {"ok", "check", "pass", "method", "word"}


@pytest.mark.parametrize("argv, header", CSV_RUNS, ids=[a[0] for a, _ in CSV_RUNS])
def test_every_subcommand_writes_csv(capsys, argv, header):
    code, out = run_cli(capsys, "--format", "csv", *argv)
    assert code == 0
    lines = list(csv.reader(io.StringIO(out)))
    assert lines[0] == header
    assert len(lines) > 1 and all(len(line) == len(header) for line in lines)
    # a numpy scalar would print as "np.float64(...)", which no reader parses
    for line in lines[1:]:
        for column, cell in zip(header, line):
            if column not in TEXT_COLUMNS and cell != "":
                float(cell)


def test_certify_bad_grid_is_usage_error(capsys):
    code, _ = run_cli(capsys, "certify", "--grid", "0")
    assert code == 64


def test_certify_deterministic(capsys):
    _, first = run_cli(capsys, "certify", "--grid", "1024")
    _, second = run_cli(capsys, "certify", "--grid", "1024")
    assert first == second


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 64
    assert main([]) == 64
    assert main(["dimension", "--method", "fancy"]) == 64
    assert main(["dimension", "--depth", "99"]) == 64
    assert main(["--tol", "0.5", "certify"]) == 64
    code, out = run_cli(capsys, "sbd-profile", "--depth", "3", "--grid", "1")
    assert code == 64 and out == ""


@pytest.mark.parametrize("command", ["distortion", "sbd-profile"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_is_usage_error(capsys, command, threads):
    code, out = run_cli(capsys, command, "--depth", "2", "--grid", "33",
                        "--threads", threads)
    assert code == 64 and out == ""


@pytest.mark.parametrize("fault", [SolverError("step size underflow"),
                                   ValueError("operands could not be broadcast"),
                                   OSError("disk full"),
                                   OverflowError("math range error")])
def test_internal_fault_exit_code(capsys, monkeypatch, fault):
    # an internal error is not a usage error: exit 70 with the traceback
    def broken(args):
        raise fault

    monkeypatch.setattr(cli, "_cmd_dimension", broken)
    code = main(["dimension", "--depth", "4"])
    err = capsys.readouterr().err
    assert code == 70
    assert "Traceback" in err and type(fault).__name__ in err


def test_failed_certification_exits_2(capsys, monkeypatch):
    def failed(self, grid_n):
        raise CertificationError("slope bound failed")

    monkeypatch.setattr(FlowEngine, "certify", failed)
    code = main(["certify"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "certification failed" in captured.err


def test_failed_analysis_exits_1(capsys, monkeypatch):
    # every C_k exceeds a ceiling of 1, so bd_sweep raises BoundViolationError
    monkeypatch.setattr(importlib.import_module("flowcutter.distortion"),
                        "theoretical_bound", lambda M: 1.0)
    code = main(["distortion", "--depth", "2", "--grid", "33"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "analysis failed" in captured.err


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys,
                                                   monkeypatch):
    # the path is checked before any work: the command never runs
    def never(args):
        raise AssertionError("ran the command before checking --out")

    monkeypatch.setattr(cli, "_cmd_certify", never)
    target = tmp_path / "missing" / "report.json"
    code = main(["--out", str(target), "certify", "--grid", "1024"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.startswith("flowcutter: error: cannot write --out")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not target.exists()


def test_out_onto_a_directory_is_usage_error(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "certify", "--grid", "1024"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert "is a directory" in captured.err and "Traceback" not in captured.err


def test_verify_lemmas(capsys):
    code, out = run_cli(capsys, "verify-lemmas", "--depth", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    checks = {row["check"] for row in doc["rows"]}
    assert {"junction-smoothness", "window-addresses",
            "slope-factorization", "size-bound"} <= checks


def test_verify_lemmas_reads_points_not_intervals(capsys, monkeypatch):
    # the address and slope lemmas pull back the points they check; only
    # the size audit walks intervals, and it reads sizes, not endpoints
    code, want = run_cli(capsys, "verify-lemmas", "--depth", "12")
    assert code == 0

    def no_endpoints(self, i):
        raise AssertionError("verify-lemmas read an interval endpoint")

    monkeypatch.setattr(IntervalSet, "endpoints", no_endpoints)
    code, out = run_cli(capsys, "verify-lemmas", "--depth", "12")
    assert code == 0 and out == want


def test_distortion_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "distortion",
                        "--depth", "4", "--grid", "65")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
    cs = [float(r["C_k"]) for r in rows]
    assert all(b >= a for a, b in zip(cs, cs[1:]))
    assert all(float(r["C_theory"]) >= c for r, c in zip(rows, cs))


def test_distortion_threads_deterministic(capsys):
    _, a = run_cli(capsys, "distortion", "--depth", "4", "--grid", "65",
                   "--threads", "1")
    _, b = run_cli(capsys, "distortion", "--depth", "4", "--grid", "65",
                   "--threads", "3")
    assert a == b


def test_sbd_witness_record(capsys):
    code, out = run_cli(capsys, "sbd", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] > 1.1
    assert doc["image_log_size"] == pytest.approx(-4.394449154672439)
    assert doc["limit_ratio"] == pytest.approx(doc["ratio"], rel=1e-8)


def test_sbd_block_out_of_range_is_usage_error(capsys):
    code, _ = run_cli(capsys, "sbd", "--k", "7")
    assert code == 64
    # an odd block is a witness too: F^8 flows J_15 onto J_7 by -T
    code, out = run_cli(capsys, "sbd", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] == pytest.approx(doc["limit_ratio"], rel=1e-12)


def test_sbd_profile(capsys):
    code, out = run_cli(capsys, "sbd-profile", "--depth", "4", "--grid", "65")
    assert code == 0
    doc = json.loads(out)
    assert [row["r"] for row in doc["rows"]] == [1.0, 3.0, 9.0, 27.0, 81.0]
    assert all(row["beta_hat"] > 1.05 for row in doc["rows"])


def test_dimension_json(capsys):
    code, out = run_cli(capsys, "dimension", "--depth", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["s_lower"] < doc["s"] < doc["s_upper"]
    assert doc["method"] == "bowen"


def test_dimension_box_depth_one_is_usage_error(capsys):
    # a box-counting slope needs at least two covers
    code, out = run_cli(capsys, "dimension", "--method", "box", "--depth", "1")
    assert code == 64 and out == ""


def test_dimension_box_method(capsys):
    code, out = run_cli(capsys, "dimension", "--depth", "8", "--method", "box")
    assert code == 0
    assert 0.5 < json.loads(out)["s"] < 0.75


def test_intervals_dump(capsys):
    code, out = run_cli(capsys, "--format", "csv", "intervals", "--depth", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert rows[0]["word"] == "000"
    assert float(rows[-1]["right"]) == 1.0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "--out", str(target), "dimension",
                        "--depth", "6")
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert "s" in doc


# every subcommand at a small size, run once with scipy and mpmath refused
NUMPY_ONLY_RUNS = [
    ["certify", "--grid", "1024"],
    ["verify-lemmas", "--depth", "4"],
    ["distortion", "--depth", "3"],
    ["sbd", "--k", "2"],
    ["sbd-profile", "--depth", "3"],
    ["dimension", "--depth", "4", "--method", "bowen"],
    ["dimension", "--depth", "4", "--method", "box"],
    ["intervals", "--depth", "3"],
]

# runs each argv of the JSON list in argv[1] through main, with a
# sys.meta_path finder that refuses scipy and mpmath, and prints the exit
# codes, the outputs and whether the oracle module was loaded, as JSON
NUMPY_ONLY_SCRIPT = """
import contextlib, io, json, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "mpmath"):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, Refuse())
from flowcutter.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "oracle": "flowcutter.oracle" in sys.modules}))
"""


def test_every_subcommand_runs_on_numpy_alone(capsys):
    # scipy and mpmath are test dependencies only: every subcommand runs
    # without them and prints the same bytes as with them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT, json.dumps(NUMPY_ONLY_RUNS)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["oracle"] is False
    assert len(doc["runs"]) == len(NUMPY_ONLY_RUNS)
    for argv, (code, out) in zip(NUMPY_ONLY_RUNS, doc["runs"]):
        assert code == 0, (argv, proc.stderr)
        assert out == run_cli(capsys, *argv)[1], argv
