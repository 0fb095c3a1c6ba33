"""Inputs whose cost used to grow without a stated budget, and the one scan
behind both kinds of Mann equation."""

import inspect
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from regseq import cli
from regseq import formulas as F
from regseq.decide import CANDIDATE_CAP, DECIDE_BUDGET, Verdict, _smallest_combinations, \
    decide
from regseq.mann import MannMonoid, solve_unit
from regseq.sequences import SequenceSpec, make_handle

POW2 = make_handle(SequenceSpec.power(2))


def existential(nvars, body):
    """E x0 in R. ... E x{nvars-1} in R. body, built as a tree: the parser
    rejects more than formulas.MAX_NESTING quantifiers."""
    node = F.parse(body)
    for i in reversed(range(nvars)):
        node = F.ExistsInR("x%d" % i, node)
    return node


def test_many_variables_find_the_first_witness():
    verdict = decide(existential(97, "x0 = 4"), POW2)
    assert verdict.is_true()
    assert verdict.witness["x0"] == ("index", 2)
    assert all(verdict.witness["x%d" % i] == ("index", 0) for i in range(1, 97))


def test_many_variables_stop_at_the_candidate_cap():
    verdict = decide(existential(97, "x0 = 4 & x1 = 4 & x0 != x1"), POW2)
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.reason == "side-conditions-at-budget"


def test_lazy_candidates_follow_the_sorted_product():
    rng = random.Random(5)
    for _ in range(60):
        heads = [sorted(rng.sample(range(40), rng.randint(1, 9)))
                 for _ in range(rng.randint(1, 5))]
        eager = sorted(itertools.product(*heads), key=lambda t: (sum(t), t))
        assert list(_smallest_combinations(heads)) == eager[:CANDIDATE_CAP]
    assert list(_smallest_combinations([[0, 1], []])) == []


@pytest.mark.parametrize("text", ["E x in R. x > 200000",
                                  "E x in R. !D200000(x)"])
def test_large_unfolding_is_rejected(tmp_path, capsys, text):
    with pytest.raises(ValueError):
        F.normalize(F.parse(text))
    formula = tmp_path / "formula.txt"
    formula.write_text(text)
    seq = tmp_path / "pow2.json"
    seq.write_text('{"kind": "power", "q": "2"}')
    assert cli.main(["decide", "--seq", str(seq), "--formula", str(formula)]) == 3
    assert "unfolds into" in capsys.readouterr().err


def test_unfolding_limit_boundary():
    F.normalize(F.parse("E x in R. x > %d" % (F.MAX_UNFOLD - 1)))
    F.normalize(F.parse("E x in R. !D%d(x)" % (F.MAX_UNFOLD + 1)))
    F.normalize(F.parse("E x in R. D200000(x)"))
    with pytest.raises(ValueError):
        F.normalize(F.parse("E x in R. x > %d" % F.MAX_UNFOLD))
    with pytest.raises(ValueError):
        F.normalize(F.parse("E x in R. !D%d(x)" % (F.MAX_UNFOLD + 2)))


def test_unit_equation_with_fractional_coefficients():
    """Clearing denominators leaves the solution set unchanged; the
    reference is a direct search over the same element window."""
    monoid = MannMonoid([2, 3])
    elements = monoid.elements_with_exponents(6)
    for qs in ([Fraction(1, 2), Fraction(1, 4)], [Fraction(3, 4), Fraction(-1, 6)],
               [Fraction(1, 2), Fraction(1, 2), Fraction(-2, 9)]):
        want = sorted(
            t for t in itertools.product(elements, repeat=len(qs))
            if sum(q * x for q, x in zip(qs, t)) == 1
            and not any(sum(qs[i] * t[i] for i in sub) == 0
                        for k in range(1, len(qs))
                        for sub in itertools.combinations(range(len(qs)), k)))
        got, _cert = solve_unit(qs, monoid, 6)
        assert got == want, qs
        assert got


def test_unfolding_is_counted_per_formula(tmp_path, capsys):
    half = F.MAX_UNFOLD // 2
    F.normalize(F.parse("E x in R. x > %d & x > %d" % (half - 1, half - 1)))
    F.normalize(F.parse("E x in R. !D%d(x) | !(x > %d)" % (half + 1, half - 1)))
    for text in ("E x in R. x > %d & x > %d" % (half - 1, half),
                 "E x in R. !D%d(x) | !(x > %d)" % (half + 2, half - 1),
                 "A x in R. !(x > %d) | D%d(x + 1)" % (half, half + 1)):
        with pytest.raises(ValueError, match="unfolds into"):
            F.normalize(F.parse(text))
    text = "E x in R. " + " & ".join(["x > %d" % (F.MAX_UNFOLD - 1)] * 10)
    formula = tmp_path / "formula.txt"
    formula.write_text(text)
    seq = tmp_path / "pow2.json"
    seq.write_text('{"kind": "power", "q": "2"}')
    assert cli.main(["decide", "--seq", str(seq), "--formula", str(formula)]) == 3
    assert "in the formula, more than %d" % F.MAX_UNFOLD in capsys.readouterr().err


def test_decide_and_eval_ground_share_one_default_budget():
    default = inspect.signature(F.eval_ground).parameters["budget"].default
    assert DECIDE_BUDGET is F.DECIDE_BUDGET is default
    assert inspect.signature(decide).parameters["budget"].default is default


def test_image_sum_stops_at_the_partial_sum_cap(tmp_path, capsys):
    # eight copies of [1, -1] on pow2: 21 values each within the horizon, so
    # about 21^8 partial sums, hours of enumeration without the cap
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"kind": "image-sum", "seq": {"kind": "power", "q": "2"},
                                "ops": [["1", "-1"]] * 8}), encoding="utf-8")
    start = time.perf_counter()
    code = cli.main(["syndetic", "gap-runs", "--set", str(path),
                     "--horizon", "1048576", "--d", "3"])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: image sum visits more than") and err.count("\n") == 1
