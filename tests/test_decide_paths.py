"""Decide paths pinned one by one, and the certificate carried by False.

The first tests walk the case loop of decide._description_empty (a family
that survives the constraints, a free case that is not excluded, and
families excluded by them), a negated Sigma atom that is refuted or
proved, an UnknownBeyond passed through a universal quantifier, and a
constraint Proved empty on the bounded route.  Each pinned answer is
checked against a bounded evaluation with formulas.eval_ground.  The
battery then asks seeded sentences over four sequences: every False
verdict must carry a Proved certificate and fail a bounded evaluation,
and every True witness of an existential sentence must satisfy its
matrix.
"""

import random

import pytest

from regseq import formulas as F
from regseq.congruence import PeriodicIndexSet
from regseq.decide import Verdict, _description_empty, _single_var_set, decide
from regseq.equations import EquationProblem, solve_full
from regseq.sequences import SequenceSpec, make_handle

POW2 = make_handle(SequenceSpec.power(2))
FIB = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
HANDLES = {"pow2": POW2, "fib": FIB,
           "pell": make_handle(SequenceSpec.recurrence([1, 2], [1, 2])),
           "table": make_handle(SequenceSpec.table([], generator="2**n + n"))}


def run(text, handle):
    return decide(F.parse(text), handle)


def matrix_holds(text, handle, witness):
    """Whether the matrix under the leading R-quantifiers holds at the
    witness indices."""
    node = F.parse(text)
    while isinstance(node, F.ExistsInR):
        node = node.body
    return F.eval_ground(node, handle, {var: n for var, (_, n) in witness.items()})


def test_surviving_pattern_leaves_the_sentence_unknown():
    # 2^a + 2^a = 2^(a+1) is a family of x + y = z; x != y is checked on
    # candidates only, so the family survives the emptiness check although
    # no solution has distinct summands (binary expansions are unique)
    text = "E x in R. E y in R. E z in R. x + y = z & x != y"
    verdict = run(text, POW2)
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.reason == "pattern-survives-constraints"
    assert not F.eval_ground(F.parse(text), POW2, budget=20)
    assert F.eval_ground(F.parse("E x in R. E y in R. E z in R. x + y = z"), POW2,
                         budget=20)


def test_a_free_case_not_excluded_leaves_the_sentence_unknown():
    # x - y = 0 cancels on the class {x, y}: every index solves it, and
    # D1000 does not exclude that class within the budget, rightly so,
    # as the first Fibonacci term that 1000 divides is r_748
    text = "E x in R. E y in R. x - y = 0 & D1000(x)"
    verdict = run(text, FIB)
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.reason == "free-case-not-excluded"
    assert all(FIB.eval(n) % 1000 for n in range(65))
    assert FIB.eval(748) % 1000 == 0


def test_divisibility_excludes_every_pattern():
    # on Fibonacci, x + y = z has the families (l, l+1, l+2) and (l+1, l, l+2);
    # an even term has index 1 mod 3, so no anchor puts both summands on one
    text = "E x in R. E y in R. E z in R. x + y = z & D2(x) & D2(y) & x != y"
    verdict = run(text, FIB)
    assert verdict.is_false() and verdict.certificate.is_proved
    assert not F.eval_ground(F.parse(text), FIB, budget=20)
    description = solve_full(EquationProblem(FIB, [[1], [1], [-1]], 0))
    assert [p.offsets for p in description.cases[0].distinct.patterns] == [(0, 1, 2),
                                                                          (1, 0, 2)]
    even = F.normalize(F.parse("E x in R. D2(x)"))
    evens = _single_var_set(FIB, even.body, 64)
    constraints = {"x": evens, "y": evens, "z": PeriodicIndexSet.full()}
    empty, cert = _description_empty(FIB, description, constraints, ["x", "y", "z"])
    assert empty and cert.is_proved


def test_negated_sigma_of_a_sum_is_refuted():
    text = "!Sigma{D=[(y1 + y2)]}(12)"
    verdict = run(text, POW2)
    assert verdict.is_false() and verdict.certificate.is_proved
    assert not F.eval_ground(F.parse(text), POW2)


def test_negated_sigma_of_a_non_sum_is_proved():
    text = "E x in R. x = 4 & !Sigma{D=[(y1 + y2)]}(7)"
    verdict = run(text, POW2)
    assert verdict.is_true()
    assert verdict.witness == {"x": ("index", 2)}
    assert matrix_holds(text, POW2, verdict.witness)
    assert not F.eval_ground(F.parse("Sigma{D=[(y1 + y2)]}(7)"), POW2)


def test_universal_passes_an_unknown_dual_through():
    text = "A x in R. !(x + 5 in R & x > 4)"
    verdict = run(text, POW2)
    dual = run("E x in R. x + 5 in R & x > 4", POW2)
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.to_json(POW2) == dual.to_json(POW2)
    # 2^a + 5 is odd, so no counterexample exists in any window
    assert F.eval_ground(F.parse(text), POW2, budget=64)


def test_empty_constraint_is_read_before_the_bounded_route():
    # D2(x + y) sends the disjunct to bounded search; x = 4 is Proved empty
    # on fib, and the answer must say so whatever the route
    text = "E x in R. E y in R. D2(x + y) & x = 4"
    verdict = run(text, FIB)
    assert verdict.is_false() and verdict.certificate.is_proved
    assert not F.eval_ground(F.parse(text), FIB, budget=40)


# ---------------------------------------------------------------------------
# Every False verdict carries a Proved certificate
# ---------------------------------------------------------------------------

TEMPLATES = [
    lambda r: "E x in R. E y in R. %d*x %s %d*y = %d" % (
        r.choice([1, 2, 3]), r.choice("+-"), r.choice([1, 2]), r.randint(0, 40)),
    lambda r: "E x in R. E y in R. x + y = %d & x != y" % r.randint(1, 60),
    lambda r: "E x in R. E y in R. E z in R. x + y = z & D%d(x) & D%d(y) & x != y" % (
        r.randint(2, 5), r.randint(2, 5)),
    lambda r: "E x in R. D%d(x + %d) & x > %d" % (
        r.randint(2, 9), r.randint(0, 9), r.randint(0, 50)),
    lambda r: "E x in R. x = %d & !Sigma{D=[(y1 + y2)]}(%d)" % (
        r.randint(1, 20), r.randint(1, 40)),
    lambda r: "!Sigma{D=[(y1 + y2)]}(%d)" % r.randint(1, 60),
    lambda r: "A x in R. x != %d" % r.randint(1, 40),
    lambda r: "A x in R. !(x + %d in R & x > %d)" % (r.randint(1, 9), r.randint(0, 9)),
    lambda r: "E x in R. E y in R. x - y = %d & D%d(x)" % (
        r.randint(-30, 30), r.randint(2, 4)),
    lambda r: "E x in R. x + %d in R & x > %d" % (r.randint(1, 12), r.randint(0, 20)),
]
SENTENCES_PER_SEQUENCE = 40


@pytest.mark.parametrize("label", sorted(HANDLES))
def test_every_false_verdict_is_proved(label):
    handle = HANDLES[label]
    rng = random.Random("false-is-proved:" + label)
    kinds = set()
    for i in range(SENTENCES_PER_SEQUENCE):
        text = TEMPLATES[i % len(TEMPLATES)](rng)
        verdict = run(text, handle)
        kinds.add(verdict.kind)
        if verdict.is_false():
            assert verdict.certificate.is_proved, text
            assert not F.eval_ground(F.parse(text), handle, budget=16), text
        elif verdict.is_true() and text.startswith("E"):
            assert matrix_holds(text, handle, verdict.witness), text
    assert kinds == {Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN}
