"""Pinned behaviour: the suite report of a reference build, byte for byte,
and certificates that must not claim more than their evidence supports."""

from pathlib import Path

from regseq import formulas as F
from regseq import jsonio
from regseq.cli import run_suite
from regseq.decide import Verdict, decide
from regseq.equations import EquationProblem, solve_full
from regseq.sequences import SequenceSpec, make_handle

GOLDEN_SUITE = Path(__file__).parent / "data" / "suite.json"


def test_suite_matches_golden_report():
    assert jsonio.dumps(run_suite()) + "\n" == GOLDEN_SUITE.read_text(encoding="utf-8")


def test_empty_split_side_keeps_bounded_certificate():
    # (70, 69) is a witness far outside the bounded box, so emptiness of the
    # box must not be reported as proved
    table = make_handle(SequenceSpec.table([], generator="2**n + n"))
    z = table.eval(70) - table.eval(69)
    description = solve_full(EquationProblem(table, [[1], [-1]], z))
    assert description.cases == []
    assert not description.certificate.is_proved
    verdict = decide(F.parse("E x in R. E y in R. x - y = %d" % z), table)
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.reason == "equation-emptiness-at-budget"


def test_empty_case_keeps_bounded_certificate():
    trib = make_handle(SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]))
    description = solve_full(EquationProblem(trib, [[1], [1]], 1000))
    assert description.cases == []
    assert not description.certificate.is_proved
    verdict = decide(F.parse("E x in R. E y in R. x + y = 1000"), trib)
    assert not (verdict.is_false() and verdict.certificate.is_proved)
