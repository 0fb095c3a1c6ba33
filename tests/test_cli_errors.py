"""Malformed input gives exit 3 and a one-line error, never a traceback."""

import json
import subprocess
import sys

import pytest

from regseq import cli
from regseq import formulas as F
from regseq.sequences import SequenceSpec

MALFORMED_SPECS = [
    [],
    {"kind": "power", "q": ["2"]},
    {"kind": "power", "q": None},
    {"kind": "power", "q": 2.5},
    {"kind": "power", "q": True},
    {"kind": "sum", "parts": "x"},
    {"kind": "table", "values": [], "generator": 5},
    {"kind": "recurrence", "coeffs": "11", "initials": ["1", "2"]},
]

DEEP_FORMULAS = [
    "E x in R. " + "(" * 5000 + "x = 4" + ")" * 5000,
    "E x in R. " + "!" * 5000 + "x = 4",
    "E x in R. x = " + "-" * 5000 + "4",
    "E x in R. x = " + "S(" * 5000 + "x" + ")" * 5000,
]


def _exit_and_stderr(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("spec", MALFORMED_SPECS, ids=json.dumps)
def test_malformed_spec_exits_three(tmp_path, capsys, spec):
    with pytest.raises(ValueError):
        SequenceSpec.from_json(spec)
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, err = _exit_and_stderr(capsys, ["classify", "--seq", str(path), "--op", "[-2,1]"])
    assert code == 3
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_integer_fields_accept_json_integers(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": "power", "q": 3}), encoding="utf-8")
    assert cli.main(["eval", "--seq", str(path), "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["element"] == "81"


@pytest.mark.parametrize("text", DEEP_FORMULAS,
                         ids=["parentheses", "negations", "minus-signs", "successors"])
def test_deep_formula_exits_three(tmp_path, capsys, text):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    formula = tmp_path / "deep.trf"
    formula.write_text(text, encoding="utf-8")
    code, err = _exit_and_stderr(capsys, ["decide", "--seq", str(seq),
                                          "--formula", str(formula)])
    assert code == 3
    assert "nested deeper than %d" % F.MAX_NESTING in err


def test_nesting_limit_boundary():
    F.normalize(F.parse("!" * F.MAX_NESTING + "x = 4"))
    with pytest.raises(F.FormulaSyntaxError):
        F.parse("!" * (F.MAX_NESTING + 1) + "x = 4")


def test_module_entry_point_runs_once(tmp_path):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "regseq.cli", "eval",
                           "--seq", str(seq), "--n", "5"],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["element"] == "32"
    assert proc.stderr == ""
