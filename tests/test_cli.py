"""End-to-end command-line behavior: exit codes, JSON reports, determinism."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from regseq import cli

POW2_SPEC = {"kind": "power", "q": "2"}
FIB_SPEC = {"kind": "recurrence", "coeffs": ["1", "1"], "initials": ["1", "2"]}
TABLE_SPEC = {"kind": "table", "values": [], "generator": "2**n + n"}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


@pytest.fixture
def pow2(tmp_path):
    return write_json(tmp_path / "pow2.json", POW2_SPEC)


@pytest.fixture
def fib(tmp_path):
    return write_json(tmp_path / "fib.json", FIB_SPEC)


def test_eval_element_and_operator(capsys, pow2):
    code, report = run_cli(capsys, ["eval", "--seq", pow2, "--n", "10"])
    assert code == 0 and report["element"] == "1024"
    code, report = run_cli(capsys, ["eval", "--seq", pow2, "--n", "3",
                                    "--op", "[-2,1]"])
    assert code == 0 and report["value"] == "0"


def test_classify_cofinite_zero(capsys, pow2):
    code, report = run_cli(capsys, ["classify", "--seq", pow2,
                                    "--op", "[-2,1]"])
    assert code == 0
    assert report["kind"] == "CofiniteZero"
    assert report["exceptions"] == []
    assert report["certificate"]["level"] == "Proved"


def test_solve_with_oracle_check(capsys, tmp_path, fib):
    problem = write_json(tmp_path / "sum3.json",
                         {"operators": [["1"], ["1"], ["-1"]], "target": "0"})
    code, report = run_cli(capsys, ["solve", "--seq", fib,
                                    "--problem", problem, "--oracle", "20"])
    assert code == 0
    assert report["oracle-check"]["status"] == "match"
    offsets = sorted(tuple(p["offsets"]) for c in report["cases"]
                     for p in c["solutions"]["patterns"])
    assert offsets == [("0", "1", "2"), ("1", "0", "2")]
    for c in report["cases"]:
        for p in c["solutions"]["patterns"]:
            assert p["exceptions"] == []


def test_solve_on_a_short_table_fails_alike_under_a_permutation(capsys, tmp_path):
    table = write_json(tmp_path / "table.json",
                       {"kind": "table", "values": ["1", "3", "4", "9", "20"]})
    outcomes = set()
    for ops, z in (([["1"], ["0", "1"], ["-1"]], "2"), ([["0", "1"], ["-1"], ["1"]], "2"),
                   ([["-1"], ["1"], ["0", "1"]], "2"), ([["-1"], ["0", "-1"], ["1"]], "-2")):
        problem = write_json(tmp_path / "p.json", {"operators": ops, "target": z})
        code = cli.main(["solve", "--seq", table, "--problem", problem])
        captured = capsys.readouterr()
        outcomes.add((code, captured.out, captured.err))
    assert outcomes == {(3, "", "error: table sequence has 5 values and no generator "
                                "(asked for r_5)\n")}


def test_solve_oracle_mismatch_aborts(capsys, tmp_path, fib, monkeypatch):
    problem = write_json(tmp_path / "sum3.json",
                         {"operators": [["1"], ["1"], ["-1"]], "target": "0"})
    from regseq import equations

    def broken(problem, n):
        return []

    monkeypatch.setattr(equations, "brute_force", broken)
    code, report = run_cli(capsys, ["solve", "--seq", fib,
                                    "--problem", problem, "--oracle", "10"])
    assert code == 3
    assert report["oracle-check"] == "MISMATCH"
    assert report["extra"]


def test_decide_exit_codes(capsys, tmp_path, pow2):
    t = tmp_path / "true.trf"
    t.write_text("E x in R. D3(x + 2) & x > 1", encoding="utf-8")
    code, report = run_cli(capsys, ["decide", "--seq", pow2,
                                    "--formula", str(t)])
    assert code == 0
    assert report["verdict"] == "True"
    assert report["witness"]["x"] == {"index": "2", "element": "4"}

    f = tmp_path / "false.trf"
    f.write_text("E x1 in R. E x2 in R. x1 + x2 = 7", encoding="utf-8")
    code, report = run_cli(capsys, ["decide", "--seq", pow2,
                                    "--formula", str(f)])
    assert code == 1
    assert report["verdict"] == "False"

    u = tmp_path / "unknown.trf"
    u.write_text("E x in R. x + 5 in R & x > 4", encoding="utf-8")
    code, report = run_cli(capsys, ["decide", "--seq", pow2,
                                    "--formula", str(u)])
    assert code == 2
    assert report["verdict"] == "UnknownBeyond"


def test_periodicity_report(capsys, pow2):
    code, report = run_cli(capsys, ["periodicity", "--seq", pow2,
                                    "--modulus", "3"])
    assert code == 0
    assert (report["preperiod"], report["period"]) == ("0", "2")


def test_syndetic_gap_runs(capsys, tmp_path):
    spec = write_json(tmp_path / "set.json",
                      {"kind": "image-sum", "seq": POW2_SPEC,
                       "ops": [["1"], ["1"]], "z": "0"})
    code, report = run_cli(capsys, ["syndetic", "gap-runs", "--set", spec,
                                    "--horizon", str(2 ** 20), "--d", "16"])
    assert code == 0
    assert report["longest_run"] == "5"


def test_syndetic_cover_check_witness_exit(capsys, tmp_path):
    spec = write_json(tmp_path / "img.json",
                      [{"kind": "image-sum", "seq": POW2_SPEC, "ops": [["1"]],
                        "z": "0"}])
    code, report = run_cli(capsys, ["syndetic", "cover-check", "--a", "3",
                                    "--d", "4", "--images", spec,
                                    "--horizon", "1000"])
    assert code == 1
    assert report["witness"] == "3"


def test_syndetic_brown(capsys, tmp_path):
    universe = write_json(tmp_path / "set.json",
                          {"kind": "progression", "a": "0", "d": "1"})
    parts = write_json(tmp_path / "parts.json",
                       [{"kind": "progression", "a": "0", "d": "2"},
                        {"kind": "progression", "a": "1", "d": "2"}])
    code, report = run_cli(capsys, ["syndetic", "brown", "--set", universe,
                                    "--parts", parts, "--horizon", "300",
                                    "--d", "1"])
    assert code == 0
    assert report["index"] == "0"


def test_mann_solve_homogeneous(capsys):
    code, report = run_cli(capsys, ["mann", "solve", "--gens", "2,3",
                                    "--eq", "x1 + x2 - x3 = 0",
                                    "--exp-bound", "20"])
    assert code == 0
    assert report["base"] == [["1", "1", "2"], ["1", "2", "3"],
                              ["1", "3", "4"], ["1", "8", "9"]]


def test_mann_solve_unit(capsys):
    code, report = run_cli(capsys, ["mann", "solve", "--gens", "2,3",
                                    "--eq", "x1 - x2 = 1",
                                    "--exp-bound", "30"])
    assert code == 0
    assert report["solutions"] == [["2", "1"], ["3", "2"],
                                   ["4", "3"], ["9", "8"]]


def test_mann_trace(capsys):
    code, report = run_cli(capsys, ["mann", "trace", "--gens", "2,3",
                                    "--eq", "x1 + x2 - x3 = 0",
                                    "--exp-bound", "12"])
    assert code == 0
    assert len(report["clauses"]) == 4


def test_verify_ax5(capsys, pow2):
    code, report = run_cli(capsys, ["verify-ax5", "--seq", pow2,
                                    "--op", "[-2,1]"])
    assert code == 0
    assert report["status"] == "constants"
    assert report["branch"] == "vanishes-beyond"


def test_verify_ax6_violation_exit(capsys, tmp_path):
    table = write_json(tmp_path / "table.json", TABLE_SPEC)
    code, report = run_cli(capsys, ["verify-ax6", "--seq", table,
                                    "--ops", "[2,-3,1];[-2,3,-1]"])
    assert code == 1
    assert report["status"] == "violation"
    assert len(report["witnesses"]) >= 3


def test_verify_ax6_constants_exit(capsys, fib):
    code, report = run_cli(capsys, ["verify-ax6", "--seq", fib,
                                    "--ops", "[1];[1];[-1]"])
    assert code == 0
    assert report["status"] == "constants"


def test_usage_errors_exit_three(capsys, tmp_path, pow2):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "--seq", pow2])
    assert exc.value.code == 3
    capsys.readouterr()
    # unreadable file path
    code = cli.main(["classify", "--seq", str(tmp_path / "missing.json"),
                     "--op", "[1]"])
    assert code == 3
    capsys.readouterr()
    # malformed operator text
    code = cli.main(["classify", "--seq", pow2, "--op", "votes"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: MemoryError\n"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError: maximum recursion depth exceeded\n"),
    (AssertionError("case overlap on (1, 2)"),
     "error: AssertionError: case overlap on (1, 2)\n"),
    (AssertionError("pattern fails at anchor 7"),
     "error: AssertionError: pattern fails at anchor 7\n"),
    (TypeError("two\nlines"), "error: TypeError: two lines\n"),
])
@pytest.mark.crash_report
def test_unexpected_exceptions_exit_three_on_one_line(capsys, monkeypatch, pow2, exc, line):
    def broken(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_eval", broken)
    code = cli.main(["eval", "--seq", pow2, "--n", "3"])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (3, line, "")


def test_crashes_escape_cli_main_in_unmarked_tests(monkeypatch, pow2):
    # tests/conftest.py: a test that expects exit 3 fails on a crash
    def broken(args):
        raise TypeError("crash")
    monkeypatch.setattr(cli, "_cmd_eval", broken)
    with pytest.raises(TypeError, match="crash"):
        cli.main(["eval", "--seq", pow2, "--n", "3"])


def test_suite_deterministic_in_process(capsys):
    code = cli.main(["suite"])
    first = capsys.readouterr().out
    assert code == 0
    code = cli.main(["suite"])
    second = capsys.readouterr().out
    assert first == second


def test_suite_deterministic_across_processes(tmp_path):
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "regseq.cli", "suite"],
                              capture_output=True, check=True)
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    json.loads(runs[0])  # well-formed


def test_readme_mann_examples_run(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line[2:] for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("$ regseq mann ")]
    assert len(lines) >= 4
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
