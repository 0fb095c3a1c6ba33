"""Malformed input gives exit 3 and a one-line error, never a traceback."""

import json
import math
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from regseq import cli
from regseq import formulas as F
from regseq import jsonio
from regseq import operators
from regseq import sequences
from regseq.equations import EquationProblem
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


GENERATOR_ERRORS = [
    ("2**(0-n) + n", "generator exponent is negative"),
    ("10**10**10", "generator power exceeds"),
    ("n // (n - n)", "generator divides by zero"),
    ("n % 0", "generator divides by zero"),
]


@pytest.mark.parametrize("generator,message", GENERATOR_ERRORS,
                         ids=[g for g, _ in GENERATOR_ERRORS])
def test_unsafe_generator_exits_three(tmp_path, capsys, generator, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"kind": "table", "values": [],
                                "generator": generator}), encoding="utf-8")
    code, err = _exit_and_stderr(capsys, ["eval", "--seq", str(path), "--n", "5"])
    assert code == 3
    assert err.startswith("error: " + message) and len(err.strip().splitlines()) == 1


def test_generator_power_cap_boundary(tmp_path, capsys):
    cap = sequences.GENERATOR_POW_BITS
    edge = sequences.make_handle(SequenceSpec.table([], generator="2**%d" % (cap // 2)))
    assert edge.eval(0) == 2 ** (cap // 2)
    over = sequences.make_handle(SequenceSpec.table([], generator="2**%d" % (cap // 2 + 1)))
    with pytest.raises(ValueError, match="generator power exceeds"):
        over.eval(0)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"kind": "table", "values": [],
                                "generator": "2**n + n"}), encoding="utf-8")
    assert cli.main(["eval", "--seq", str(path), "--n", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["element"] == str(2 ** 100 + 100)


# (argv prefix, option) for every option with a documented range
RANGE_CASES = {
    "classify": (["classify", "--seq", "{seq}", "--op", "[-2,1]"], "budget"),
    "decide": (["decide", "--seq", "{seq}", "--formula", "{formula}"], "budget"),
    "verify-ax5": (["verify-ax5", "--seq", "{seq}", "--op", "[-2,1]"], "budget"),
    "verify-ax6": (["verify-ax6", "--seq", "{seq}", "--ops", "[2,-1];[-1]"], "budget"),
    "gap-runs": (["syndetic", "gap-runs", "--set", "{set}", "--d", "4"], "horizon"),
    "cover-check": (["syndetic", "cover-check", "--a", "1", "--d", "2",
                     "--images", "{set}"], "horizon"),
    "mann-enumerate": (["mann", "enumerate", "--gens", "2,3"], "bound"),
    "mann-solve": (["mann", "solve", "--gens", "2,3", "--eq", "x1 - x2 = 1"],
                   "exp-bound"),
    "mann-trace": (["mann", "trace", "--gens", "2,3", "--eq", "x1 + x2 - x3 = 0"],
                   "exp-bound"),
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_numeric_options_outside_their_range_exit_three(tmp_path, capsys, case):
    prefix, option = RANGE_CASES[case]
    files = {"seq": tmp_path / "pow2.json", "formula": tmp_path / "f.trf",
             "set": tmp_path / "set.json"}
    files["seq"].write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    files["formula"].write_text("E x in R. x = 4", encoding="utf-8")
    files["set"].write_text(json.dumps({"kind": "progression", "a": "1", "d": "3"}),
                            encoding="utf-8")
    argv = [arg.format(**files) for arg in prefix]
    lo, hi = cli.OPTION_RANGES[option.replace("-", "_")]
    for value in (lo - 1, hi + 1, -10 ** 30):
        code, err = _exit_and_stderr(capsys, argv + ["--" + option, str(value)])
        assert code == 3, value
        assert err == "error: --%s must be between %d and %d, not %d\n" % (
            option, lo, hi, value)


def test_numeric_option_ceilings_are_admitted(tmp_path, capsys):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    ranges = cli.OPTION_RANGES
    assert cli.main(["classify", "--seq", str(seq), "--op", "[-2,1]",
                     "--budget", str(ranges["budget"][1])]) == 0
    assert cli.main(["mann", "enumerate", "--gens", "2,3",
                     "--bound", str(ranges["bound"][1])]) == 0
    assert cli.main(["mann", "solve", "--gens", "2", "--eq", "x1 - x2 = 1",
                     "--exp-bound", str(ranges["exp_bound"][1])]) == 0
    capsys.readouterr()


def test_readme_and_benchmark_arguments_fit_the_ranges():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    used = re.findall(r"--(budget|horizon|bound|exp-bound) (\d+)", readme)
    assert used
    # the benchmark's CLI questions draw --bound up to 5000 and --horizon up
    # to 2000 (perfbench/workloads.py)
    used += [("bound", "5000"), ("horizon", "2000")]
    for option, value in used:
        lo, hi = cli.OPTION_RANGES[option.replace("-", "_")]
        assert lo <= int(value) <= hi, (option, value)


def test_eval_index_ceiling_boundary(tmp_path, capsys):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    lo, hi = cli.OPTION_RANGES["n"]
    assert (lo, hi) == (0, 10_000)
    assert cli.main(["eval", "--seq", str(seq), "--n", str(hi)]) == 0
    assert json.loads(capsys.readouterr().out)["element"] == str(2 ** hi)
    for value in (hi + 1, lo - 1):
        code, err = _exit_and_stderr(capsys, ["eval", "--seq", str(seq), "--n", str(value)])
        assert code == 3
        assert err == "error: --n must be between %d and %d, not %d\n" % (lo, hi, value)
    # with --op the highest term evaluated is n plus the operator's degree
    assert cli.main(["eval", "--seq", str(seq), "--n", str(hi - 1), "--op", "[-2,1]"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "0"
    code, err = _exit_and_stderr(capsys, ["eval", "--seq", str(seq), "--n", str(hi - 1),
                                          "--op", "[1,0,1]"])
    assert code == 3
    assert err == "error: --n plus the operator degree must be at most %d\n" % hi


def test_eval_prints_elements_past_the_str_limit(tmp_path, capsys):
    # r_n of the factorial kind is (n + 2)!: 35,668 digits at the ceiling of
    # --n, more than the 4,300 that str() converts
    seq = tmp_path / "factorial.json"
    seq.write_text(json.dumps({"kind": "factorial"}), encoding="utf-8")
    hi = cli.OPTION_RANGES["n"][1]
    assert cli.main(["eval", "--seq", str(seq), "--n", str(hi)]) == 0
    element = json.loads(capsys.readouterr().out)["element"]
    assert len(element) == 35_668 <= jsonio.MAX_DIGITS
    assert Decimal(element) == Decimal(math.factorial(hi + 2))
    # a power of a 100-digit base passes the ceiling at n = 400
    seq.write_text(json.dumps({"kind": "power", "q": str(10 ** 100)}), encoding="utf-8")
    assert cli.main(["eval", "--seq", str(seq), "--n", "399"]) == 0
    assert len(json.loads(capsys.readouterr().out)["element"]) == 39_901
    code, err = _exit_and_stderr(capsys, ["eval", "--seq", str(seq), "--n", "400"])
    assert code == 3
    assert err == "error: an integer in the report has more than %d digits " \
        "(jsonio.MAX_DIGITS)\n" % jsonio.MAX_DIGITS


def test_digit_ceiling_boundary():
    top = 10 ** jsonio.MAX_DIGITS
    for n in (top - 1, -(top - 1), 10 ** 4300, -10 ** 5000 - 7):
        assert Decimal(jsonio.canonical(n)) == Decimal(n)
    assert jsonio.canonical(Fraction(1, top - 1)) == "1/" + "9" * jsonio.MAX_DIGITS
    for n in (top, -top, Fraction(top, 3)):
        with pytest.raises(ValueError, match="jsonio.MAX_DIGITS"):
            jsonio.canonical(n)


def test_eval_out_of_range_exits_before_evaluating(tmp_path, capsys, monkeypatch):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")

    def refuse(self, n):
        raise AssertionError("evaluated r_%d" % n)
    monkeypatch.setattr(sequences.SequenceHandle, "eval", refuse)
    code, err = _exit_and_stderr(capsys, ["eval", "--seq", str(seq), "--n", str(10 ** 9)])
    assert code == 3 and "evaluated r_" not in err


# ---------------------------------------------------------------------------
# Robustness battery: awkward specs through every question subcommand
# ---------------------------------------------------------------------------

FIB_JSON = {"kind": "recurrence", "coeffs": ["1", "1"], "initials": ["1", "2"]}
EDGE_SPECS = {
    "table-2": {"kind": "table", "values": ["1", "2"]},
    "table-3": {"kind": "table", "values": ["1", "2", "4"]},
    "constant-recurrence": {"kind": "recurrence", "coeffs": ["1"], "initials": ["5"]},
    "alternating-recurrence": {"kind": "recurrence", "coeffs": ["-2"], "initials": ["5"]},
    "reducible": {"kind": "recurrence", "coeffs": ["-2", "3"], "initials": ["1", "3"]},
    "fib+lucas": {"kind": "sum", "parts": [FIB_JSON, {"kind": "recurrence",
                                                      "coeffs": ["1", "1"],
                                                      "initials": ["1", "3"]}]},
    "fib+table": {"kind": "sum", "parts": [FIB_JSON, {"kind": "table", "values": [],
                                                      "generator": "n*n + 1"}]},
    "factorial+2^n": {"kind": "sum", "parts": [{"kind": "factorial"},
                                               {"kind": "power", "q": "2"}]},
    "tribonacci": {"kind": "recurrence", "coeffs": ["1", "1", "1"],
                   "initials": ["1", "2", "4"]},
}
EDGE_COMMANDS = {
    "classify": ["classify", "--seq", "{seq}", "--op", "[-2,1]"],
    "solve": ["solve", "--seq", "{seq}", "--problem", "{problem}", "--oracle", "10"],
    "decide": ["decide", "--seq", "{seq}", "--formula", "{formula}"],
    "periodicity": ["periodicity", "--seq", "{seq}", "--modulus", "3"],
    "verify-ax5": ["verify-ax5", "--seq", "{seq}", "--op", "[-2,1]"],
    "verify-ax6": ["verify-ax6", "--seq", "{seq}", "--ops", "[1];[-1]"],
    "eval": ["eval", "--seq", "{seq}", "--n", "5"],
}


@pytest.mark.parametrize("label", sorted(EDGE_SPECS))
def test_edge_specs_never_escape_the_exit_codes(tmp_path, capsys, label):
    files = {"seq": tmp_path / "seq.json", "problem": tmp_path / "p.json",
             "formula": tmp_path / "f.trf"}
    files["seq"].write_text(json.dumps(EDGE_SPECS[label]), encoding="utf-8")
    files["problem"].write_text(json.dumps({"operators": [["1"], ["1"], ["-1"]],
                                            "target": "0"}), encoding="utf-8")
    files["formula"].write_text("E x in R. D3(x + 1) & x > 2", encoding="utf-8")
    for name, template in EDGE_COMMANDS.items():
        code = cli.main([arg.format(**files) for arg in template])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (name, code)
        if code == 3:
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, name


def test_two_value_table_keeps_its_refusal(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(EDGE_SPECS["table-2"]), encoding="utf-8")
    code, err = _exit_and_stderr(capsys, ["classify", "--seq", str(seq), "--op", "[-2,1]"])
    assert (code, err) == (3, "error: not enough terms for a ratio scan\n")


def test_eight_unknowns_exit_three_at_once(tmp_path, capsys):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"operators": [["1"]] * 7 + [["-1"]], "target": "0"}),
                       encoding="utf-8")
    names = ["x%d" % i for i in range(1, 9)]
    formula = tmp_path / "f.trf"
    formula.write_text("".join("E %s in R. " % v for v in names)
                       + " + ".join(names[:7]) + " = x8", encoding="utf-8")
    for argv in (["solve", "--seq", str(seq), "--problem", str(problem)],
                 ["decide", "--seq", str(seq), "--formula", str(formula)],
                 ["verify-ax6", "--seq", str(seq), "--ops", ";".join(["[1]"] * 7 + ["[-1]"])]):
        code, err = _exit_and_stderr(capsys, argv)
        assert (code, err) == (3, "error: equation has 8 unknowns; at most 7 are supported\n")


def test_cofinite_operator_value_gives_checked_witness(tmp_path, capsys):
    # f[2,-3,1] maps 2**n + n to -1 at every index, so the finite solver
    # gives up and decide falls back to its window scan
    table = sequences.make_handle(SequenceSpec.table([], generator="2**n + n"))
    with pytest.raises(operators.NotFinitelySolvable):
        operators.solve_inhomogeneous(operators.Operator([2, -3, 1]), table, -1)
    seq = tmp_path / "table.json"
    seq.write_text(json.dumps({"kind": "table", "values": [],
                               "generator": "2**n + n"}), encoding="utf-8")
    formula = tmp_path / "f.trf"
    formula.write_text("E x in R. f[2,-3,1](x) = -1", encoding="utf-8")
    code = cli.main(["decide", "--seq", str(seq), "--formula", str(formula)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "certificate": {"level": "Proved", "reason": "checked-witness"},
        "verdict": "True", "witness": {"x": {"element": "1", "index": "0"}}}


# a SortError is a ValueError, so main reports it like any malformed input
SORT_ERRORS = [
    ("E x in R. f[1,1](3) = 2", "S and operators apply only to R-sorted variables"),
    ("E k <= 5. S(k) = 2", "operator applied to the integer variable 'k'"),
]


@pytest.mark.parametrize("text,message", SORT_ERRORS, ids=["constant", "integer"])
def test_sort_error_exits_three(tmp_path, capsys, text, message):
    assert issubclass(F.SortError, ValueError)
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    formula = tmp_path / "sort.trf"
    formula.write_text(text, encoding="utf-8")
    code, err = _exit_and_stderr(capsys, ["decide", "--seq", str(seq),
                                          "--formula", str(formula)])
    assert code == 3
    assert err == "error: %s\n" % message


MALFORMED_SETS = [
    [1, 2],
    {"kind": "progression", "a": [1], "d": "3"},
    {"kind": "list", "values": "12"},
    {"kind": "image-sum", "seq": {"kind": "power", "q": "2"}, "ops": "11"},
    {"kind": "monoid", "generators": "23"},
]


@pytest.mark.parametrize("spec", MALFORMED_SETS, ids=json.dumps)
def test_malformed_set_spec_exits_three(tmp_path, capsys, spec):
    # a string where a list belongs is refused, not read digit by digit
    path = tmp_path / "set.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, err = _exit_and_stderr(capsys, ["syndetic", "gap-runs", "--set", str(path),
                                          "--horizon", "100", "--d", "3"])
    assert code == 3
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command,option", [("brown", "--parts"),
                                            ("cover-check", "--images")])
def test_set_list_that_is_not_a_list_exits_three(tmp_path, capsys, command, option):
    whole = tmp_path / "set.json"
    whole.write_text(json.dumps({"kind": "progression", "a": "0", "d": "1"}),
                     encoding="utf-8")
    path = tmp_path / "sets.json"
    path.write_text("5", encoding="utf-8")
    argv = ["syndetic", command, option, str(path), "--horizon", "100"]
    argv += ["--set", str(whole), "--d", "3"] if command == "brown" else \
        ["--a", "0", "--d", "3"]
    code, err = _exit_and_stderr(capsys, argv)
    assert code == 3
    assert err == "error: %s must hold a set spec or a list of set specs\n" % option


# An operator must be a JSON list of integers (or decimal strings), and a
# problem file a JSON object with such operators and an integer target.
MALFORMED_OPS = ["[[1]]", "[1.5]", "[true,1]", "[-2,null]", "5", '"12"', "{}"]
MALFORMED_PROBLEMS = [
    [1, 2],
    {"operators": [["1"], ["1"], ["-1"]], "target": 2.7},
    {"operators": [["1"], ["1"], ["-1"]], "target": True},
    {"operators": [["1"], ["1"], ["-1"]]},
    {"operators": [[1.5], ["-1"]], "target": "0"},
    {"operators": [["1"], [[1]]], "target": "0"},
    {"operators": "11", "target": "0"},
]


def _pow2_file(tmp_path):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    return str(seq)


@pytest.mark.parametrize("command", ["classify", "eval", "verify-ax5", "verify-ax6"])
@pytest.mark.parametrize("op", MALFORMED_OPS)
def test_malformed_operator_exits_three(tmp_path, capsys, command, op):
    with pytest.raises(ValueError):
        operators.Operator.from_json(json.loads(op))
    argv = [command, "--seq", _pow2_file(tmp_path)]
    argv += ["--ops", "[1];" + op] if command == "verify-ax6" else ["--op", op]
    if command == "eval":
        argv += ["--n", "3"]
    code, err = _exit_and_stderr(capsys, argv)
    assert code == 3
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_operator_coefficients_take_integers_and_decimal_strings(tmp_path, capsys):
    assert operators.Operator.from_json([-2, "1"]) == operators.Operator([-2, 1])
    code, _ = _exit_and_stderr(capsys, ["classify", "--seq", _pow2_file(tmp_path),
                                        "--op", '[-2,"1"]'])
    assert code == 0


@pytest.mark.parametrize("problem", MALFORMED_PROBLEMS, ids=json.dumps)
def test_malformed_problem_exits_three(tmp_path, capsys, problem):
    with pytest.raises(ValueError):
        EquationProblem.from_json(None, problem)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    code, err = _exit_and_stderr(capsys, ["solve", "--seq", _pow2_file(tmp_path),
                                          "--problem", str(path)])
    assert code == 3
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [["solve", "--eq", "x1 + x2 - x3 = 0"],
                                     ["enumerate", "--bound", "50"],
                                     ["trace", "--eq", "x1 + x2 - x3 = 0"]])
@pytest.mark.parametrize("gens", ["2,x", "2,,3", "2.5,3", "1,3"])
def test_malformed_generators_exit_three(capsys, command, gens):
    code, err = _exit_and_stderr(capsys, ["mann", command[0], "--gens", gens]
                                 + command[1:])
    assert code == 3
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


# Integers written as text are read strictly: an optional sign and ASCII
# digits.  int() alone also takes underscores, surrounding blanks and the
# digits of other scripts, which misread each of these without a word.
MALFORMED_INTEGERS = {
    "operator-underscore": ["eval", "--seq", "{pow2}", "--n", "3", "--op", '["1_0"," 2"]'],
    "operator-blank": ["eval", "--seq", "{pow2}", "--n", "3", "--op", '["-2"," 1"]'],
    "spec-underscore": ["eval", "--seq", "{pow10}", "--n", "3"],
    "gens-underscore": ["mann", "enumerate", "--gens", "1_0,3", "--bound", "50"],
    "gens-blank": ["mann", "enumerate", "--gens", "2, 3", "--bound", "50"],
    "option-underscore": ["eval", "--seq", "{pow2}", "--n", " 1_0"],
    "option-arabic-digit": ["classify", "--seq", "{pow2}", "--op", "[-2,1]",
                            "--budget", "٣"],
    "formula-arabic-digit": ["decide", "--seq", "{pow2}", "--formula", "{three}"],
    "formula-arabic-modulus": ["decide", "--seq", "{pow2}", "--formula", "{divides}"],
    "equation-arabic-index": ["mann", "solve", "--gens", "2,3",
                              "--eq", "x1 - x٢ = 1"],
    "equation-underscore-rhs": ["mann", "solve", "--gens", "2,3", "--eq", "x1 - x2 = 1_0"],
}


def _integer_files(tmp_path):
    files = {"pow2": tmp_path / "pow2.json", "pow10": tmp_path / "pow10.json",
             "three": tmp_path / "three.trf", "divides": tmp_path / "divides.trf"}
    files["pow2"].write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    files["pow10"].write_text(json.dumps({"kind": "power", "q": "1_0"}), encoding="utf-8")
    files["three"].write_text("E x in R. x = ٣", encoding="utf-8")
    files["divides"].write_text("E x in R. D٣(x)", encoding="utf-8")
    return files


@pytest.mark.parametrize("label", sorted(MALFORMED_INTEGERS))
def test_malformed_integer_exits_three(tmp_path, capsys, label):
    files = _integer_files(tmp_path)
    argv = [arg.format(**files) for arg in MALFORMED_INTEGERS[label]]
    code, err = _exit_and_stderr(capsys, argv)
    assert code == 3, label
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    assert "decimal integer" in err or "cannot parse equation" in err, err


def test_signed_and_json_integers_still_read(tmp_path, capsys):
    pow2 = _pow2_file(tmp_path)
    code, _ = _exit_and_stderr(capsys, ["mann", "enumerate", "--gens=-2,3", "--bound", "20"])
    assert code == 0
    capsys.readouterr()
    # -r_3 + 2 r_4 = -8 + 32
    assert cli.main(["eval", "--seq", pow2, "--n", "+3", "--op", '["-1", 2]']) == 0
    assert json.loads(capsys.readouterr().out) == {"n": "3", "op": ["-1", "2"],
                                                   "value": "24"}
    assert cli.main(["eval", "--seq", pow2, "--n", "3", "--op", "[-1, 2]"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "24"
    tokens = F._lex("D12(x + 30)")
    assert ("DIV", 12, 0) in tokens and ("NUM", 30, 8) in tokens


@pytest.mark.parametrize("text", ["1_0", " 2", "2 ", "٣", "", "-", "+-1", "1.0"])
def test_read_int_refuses(text):
    with pytest.raises(ValueError, match="decimal integer"):
        jsonio._read_int(text, "field")


def test_read_int_reads_a_sign_and_digits():
    assert [jsonio._read_int(t, "field") for t in ("0", "-1", "+2", "0042")] == [0, -1, 2, 42]


@pytest.mark.parametrize("text", ["E x in R. x = ٣", "E x in R. D٣(x)", "E x in R. x = ²"])
def test_formula_digits_of_other_scripts_are_syntax_errors(text):
    with pytest.raises(F.FormulaSyntaxError, match="decimal integer"):
        F.parse(text)


@pytest.mark.parametrize("argv", [["decide", "--seq", "pow2.json"], [], ["classify", "--bogus"]])
def test_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Integers read from input have at most jsonio.MAX_READ_DIGITS digits, checked
# before int(): one more is a one-line refusal naming the ceiling, in an
# option, a generator list, a JSON number of a spec file and an operator alike.
def _digit_ceiling_argv(tmp_path, place, big):
    if place == "option":
        return ["mann", "enumerate", "--gens", "2,3", "--bound", big]
    if place == "gens":
        return ["mann", "enumerate", "--gens", "2," + big, "--bound", "100"]
    if place == "json-number":
        seq = tmp_path / "big.json"
        seq.write_text('{"kind": "power", "q": %s}' % big, encoding="utf-8")
        return ["eval", "--seq", str(seq), "--n", "1"]
    return ["eval", "--seq", _pow2_file(tmp_path), "--n", "0", "--op", "[%s,1]" % big]


# What each place answers at the ceiling: r_1 = q of the power, the
# operator's value N r_0 + r_1, the powers of 2 up to 100.
CEILING_ANSWERS = {"json-number": ("element", str(10 ** 4299)),
                   "operator": ("value", str(10 ** 4299 + 2)),
                   "gens": ("elements", ["1", "2", "4", "8", "16", "32", "64"])}


@pytest.mark.parametrize("place", ["option", "gens", "json-number", "operator"])
def test_integer_digit_ceiling_boundary(tmp_path, capsys, place):
    assert jsonio.MAX_READ_DIGITS == 4300
    big = "1" + "0" * 4299
    code = cli.main(_digit_ceiling_argv(tmp_path, place, big))
    captured = capsys.readouterr()
    if place == "option":  # read, then refused by its range
        assert code == 3 and captured.err.startswith("error: --bound must be between 1 and ")
    else:
        key, want = CEILING_ANSWERS[place]
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)[key] == want
    code, err = _exit_and_stderr(capsys, _digit_ceiling_argv(tmp_path, place, big + "0"))
    field = {"option": "--bound", "gens": "--gens", "json-number": "a JSON integer",
             "operator": "operator coefficient"}[place]
    assert code == 3
    assert err == "error: %s has 4301 digits, more than 4300 (jsonio.MAX_READ_DIGITS)\n" % field


def test_read_int_digit_ceiling_counts_digits_not_the_sign():
    top = jsonio.MAX_READ_DIGITS
    assert jsonio._read_int("-" + "9" * top, "field") == -(10 ** top - 1)
    assert jsonio._read_int("+" + "0" * top, "field") == 0
    with pytest.raises(ValueError, match=r"^field has 4301 digits, more than 4300 "):
        jsonio._read_int("0" * (top + 1), "field")
    with pytest.raises(ValueError, match=r"^q has 4301 digits"):
        SequenceSpec.from_json({"kind": "power", "q": "2" * (top + 1)})
