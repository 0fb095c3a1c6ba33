"""Three-valued decision procedure: verdicts, witnesses, axiom checks.

Soundness is the load-bearing property: every True must come with a witness
that passes direct evaluation, every False must rest on fully proved
certificates, and anything else must be explicitly UnknownBeyond.
"""

import functools
import itertools
import math
import random
import time

import pytest

from regseq import decide as decide_module
from regseq import equations as equations_module
from regseq import formulas as F
from regseq import operators as operators_module
from regseq.certs import Proved
from regseq.congruence import PeriodicIndexSet
from regseq.decide import (BOUNDED_ASSIGNMENT_CAP, STREAM_HEAD, OutOfFragment, Verdict,
                           _by_index_sum, _independent_disjunct, decide, verify_ax5,
                           verify_ax6)
from regseq.equations import EquationProblem, solve_full
from regseq.operators import Operator
from regseq.sequences import SequenceSpec, make_handle
from regseq import certs
from regseq.congruence import divisibility_set
from regseq.decide import _disjunction, _single_var_set
from regseq.operators import FiniteRoots, NotFinitelySolvable, apply, classify, \
    solve_inhomogeneous
from regseq import sequences
from regseq.operators import DEFAULT_BUDGET, CofiniteZero

POW2 = make_handle(SequenceSpec.power(2))
FIB = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
TABLE = make_handle(SequenceSpec.table([], generator="2**n + n"))


def run(text, handle=POW2, budget=64):
    return decide(F.parse(text), handle, budget=budget)


def witness_holds(text, verdict, handle):
    """The matrix of a prenex sentence, evaluated at the witness: each R
    variable at its index, each bounded integer at its value.  Evaluating
    the whole sentence would search every quantifier afresh and pass any
    witness of a sentence that holds."""
    matrix = F.normalize(F.parse(text))
    indices = {}
    while isinstance(matrix, (F.ExistsInR, F.ExistsBounded)):
        sort, value = verdict.witness[matrix.var]
        if isinstance(matrix, F.ExistsInR):
            assert sort == "index"
            indices[matrix.var] = value
            matrix = matrix.body
        else:
            assert sort == "value" and 0 <= value <= matrix.bound
            matrix = F._substitute(matrix.body, matrix.var, value)
    return F.eval_ground(matrix, handle, indices)


def check_witness(text, verdict, handle):
    assert witness_holds(text, verdict, handle)


def test_check_witness_rejects_a_wrong_witness():
    text = "E x in R. x = 4"
    check_witness(text, Verdict(Verdict.TRUE, witness={"x": ("index", 2)}), POW2)
    # r_5 = 32: the sentence holds, but not at this witness
    with pytest.raises(AssertionError):
        check_witness(text, Verdict(Verdict.TRUE, witness={"x": ("index", 5)}), POW2)
    with pytest.raises(AssertionError):
        check_witness("E k <= 5. E x in R. x = k + 3",
                      Verdict(Verdict.TRUE, witness={"k": ("value", 0), "x": ("index", 2)}),
                      POW2)


def test_sum_of_two_elements_misses_seven():
    verdict = run("E x1 in R. E x2 in R. x1 + x2 = 7")
    assert verdict.is_false()
    assert verdict.certificate.is_proved


def test_sum_of_two_elements_hits_twelve():
    text = "E x1 in R. E x2 in R. x1 + x2 = 12"
    verdict = run(text)
    assert verdict.is_true()
    check_witness(text, verdict, POW2)
    indices = sorted(v for _, v in verdict.witness.values())
    assert sum(2 ** n for n in indices) == 12


def test_divisibility_with_order_side_condition():
    text = "E x in R. D3(x + 2) & x > 1"
    verdict = run(text)
    assert verdict.is_true()
    check_witness(text, verdict, POW2)
    assert verdict.witness["x"] == ("index", 2)


def test_bounded_integer_quantifier():
    verdict = run("E k <= 5. E x in R. x = k + 3")
    assert verdict.is_true()
    check_witness("E k <= 5. E x in R. x = k + 3", verdict, POW2)


def test_universal_dual_refuted_by_witness():
    verdict = run("A x in R. x != 8")
    assert verdict.is_false()
    verdict = run("A x in R. x > 0")
    assert verdict.is_true()


def test_unknown_on_undecided_membership_tail():
    # 2^n + 5 is never a power of two beyond the scanned window, but no
    # certified argument is implemented for it: must degrade loudly
    verdict = run("E x in R. x + 5 in R & x > 4")
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.exit_code() == 2
    assert verdict.horizon is not None


def test_free_variables_rejected():
    with pytest.raises(OutOfFragment):
        run("E x in R. x + z = 9")


def test_non_prenex_rejected():
    with pytest.raises(OutOfFragment):
        run("E x in R. x = 4 & (E y in R. y = x)")


def test_sigma_atom_positive():
    verdict = run("Sigma{D=[(y1 + y2)]}(12)")
    assert verdict.is_true()
    verdict = run("Sigma{D=[(y1 + y2)]}(7)")
    assert verdict.is_false()


def test_verdict_monotone_under_budget_doubling():
    texts = ["E x1 in R. E x2 in R. x1 + x2 = 7",
             "E x1 in R. E x2 in R. x1 + x2 = 12",
             "E x in R. D3(x + 2) & x > 1",
             "E x in R. x > 100 & D5(x + 1)",
             "A x in R. x != 7",
             "E x1 in R. E x2 in R. x1 - x2 = 1"]
    for text in texts:
        base = run(text, budget=64)
        doubled = run(text, budget=128)
        if base.kind in (Verdict.TRUE, Verdict.FALSE):
            assert doubled.kind == base.kind, text


def test_decide_is_deterministic():
    text = "E x1 in R. E x2 in R. x1 + x2 = 12"
    first = run(text).to_json(POW2)
    second = run(text).to_json(POW2)
    assert first == second


def test_random_two_variable_sums_match_direct_search(seeded=None):
    rng = random.Random(60221023)
    elements = [POW2.eval(n) for n in range(130)]
    for _ in range(25):
        z = rng.randint(1, 70)
        text = "E x1 in R. E x2 in R. x1 + x2 = %d" % z
        verdict = run(text)
        attainable = any(a + b == z for a in elements[:20] for b in elements[:20])
        if attainable:
            assert verdict.is_true(), text
            check_witness(text, verdict, POW2)
        elif verdict.is_false():
            assert verdict.certificate.is_proved
        else:
            assert verdict.kind == Verdict.UNKNOWN


def test_ax5_vanishing_branch():
    report = verify_ax5(POW2, Operator([-2, 1]))
    assert report.status == "constants"
    assert report.data["branch"] == "vanishes-beyond"
    assert report.data["c"] == 0
    assert report.certificate.is_proved


def test_ax5_nonzero_branch():
    report = verify_ax5(POW2, Operator([1, -3, 1]))
    assert report.status == "constants"
    assert report.data["branch"] == "nonzero-beyond"
    assert report.certificate.is_proved


def test_ax6_constants_on_fibonacci_recurrence():
    report = verify_ax6(FIB, [Operator([1]), Operator([1]), Operator([-1])])
    assert report.status == "constants"
    sets = report.data["offset_sets"]
    assert sorted(tuple(s) for s in sets) == [(-1, 1), (1, 2)]


def test_ax6_violation_on_table_sequence():
    ops = [Operator([2, -3, 1]), Operator([-2, 3, -1])]
    report = verify_ax6(TABLE, ops)
    assert report.status == "violation"
    gaps = report.data["gaps"]
    assert len(gaps) >= 3
    assert all(a < b for a, b in zip(gaps, gaps[1:]))
    assert gaps == [1, 4, 13, 40, 121]
    witnesses = report.data["witnesses"]
    assert len(witnesses) >= 3
    # each witness pair (a, b) solves f(a) - f(b) = 0 at gap b - a
    def f(n):
        return 2 * TABLE.eval(n) - 3 * TABLE.eval(n + 1) + TABLE.eval(n + 2)

    for (a, b), gap in zip(witnesses, gaps):
        assert b - a == gap
        assert f(a) == f(b)
    assert not report.certificate.is_proved


def test_ax6_solves_only_where_completeness_is_proved(monkeypatch):
    # the table's completeness data is bounded, so its report is the
    # empirical one and no solve runs for it; on Fibonacci it is Proved and
    # the solve proves the shape
    solved = []
    solve = decide_module.solve_nondegenerate

    def counting(problem):
        solved.append(problem)
        return solve(problem)

    monkeypatch.setattr(decide_module, "solve_nondegenerate", counting)
    ops = [Operator([2, -3, 1]), Operator([-2, 3, -1])]
    empirical = decide_module._ax6_empirical(EquationProblem(TABLE, ops, 0),
                                             decide_module.AXIOM_BUDGET)
    assert verify_ax6(TABLE, ops).to_json() == empirical.to_json()
    assert solved == []
    assert verify_ax6(FIB, [Operator([1]), Operator([1]), Operator([-1])]).status == \
        "constants"
    assert len(solved) == 1


TABLE_PAIR = [Operator([2, -3, 1]), Operator([-2, 3, -1])]


def _pair_rows(rng):
    """Two value rows of one length in 1..60 over few values (so repeated
    ones, zeros among them), the second independent, a permutation of the
    first negated, or its mirror -f; and a target, mostly 0."""
    n = rng.randint(1, 60)
    spread = rng.randint(1, 8)
    f = [rng.randint(-spread, spread) for _ in range(n)]
    shape = rng.choice(["independent", "permuted", "mirrored"])
    if shape == "independent":
        g = [rng.randint(-spread, spread) for _ in range(n)]
    else:
        g = [-v for v in f]
        if shape == "permuted":
            rng.shuffle(g)
    z = 0 if shape == "mirrored" or rng.random() < 0.7 else rng.randint(-3, 3)
    return [f, g], z


def test_pair_report_matches_the_box_scan_grouping():
    # the box scan's grouping (_ScanSpans) is the reference, field by field
    rng = random.Random(26)
    statuses = set()
    for _ in range(800):
        rows, z = _pair_rows(rng)
        pair, scan = decide_module._PairSpans(rows, z), decide_module._ScanSpans(rows, z)
        assert pair.spans == scan.spans, (rows, z)
        assert [pair.witness(d) for d in pair.spans] == [scan.witness(d) for d in scan.spans]
        assert pair.offset_sets() == scan.offset_sets()
        window = len(rows[0]) - 1
        report = decide_module._ax6_report(pair, window)
        assert report.to_json() == decide_module._ax6_report(scan, window).to_json()
        statuses.add(report.status)
    assert statuses == {"violation", "constants"}


@pytest.mark.parametrize("budget", [200, 50])
def test_pair_report_on_the_table_matches_the_box_scan(budget):
    problem = EquationProblem(TABLE, TABLE_PAIR, 0)
    window = min(budget, 200)
    scan = decide_module._ScanSpans(decide_module._value_table(problem, window), 0)
    reference = decide_module._ax6_report(scan, window)
    assert decide_module._ax6_empirical(problem, budget).to_json() == reference.to_json()
    assert reference.data["window"] == window
    assert reference.data["gaps"] == [1, 4, 13, 40, 121][:4 if budget == 50 else 5]


def test_the_pair_report_on_the_table_makes_no_box_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_box_scan called")

    monkeypatch.setattr(decide_module, "_box_scan", refuse)
    monkeypatch.setattr(equations_module, "_box_scan", refuse)
    report = verify_ax6(TABLE, TABLE_PAIR)
    assert report.status == "violation"
    assert report.data["gaps"] == [1, 4, 13, 40, 121]
    assert report.data["witnesses"] == [[0, 1], [0, 4], [0, 13], [0, 40], [0, 121]]


def test_three_unknown_report_on_the_table():
    # three unknowns keep the box scan's grouping, on the window of 60
    ops = [Operator([2, -3, 1]), Operator([2, -3, 1]), Operator([-4, 6, -2])]
    report = verify_ax6(TABLE, ops)
    assert report.to_json() == {
        "axiom": "Ax6", "status": "violation", "gaps": [2, 7, 22],
        "witnesses": [[0, 1, 2], [0, 1, 7], [0, 1, 22]], "window": 60,
        "reason": "solution-gaps-exceed-any-offset-set",
        "certificate": certs.BoundedCheck(60).to_json()}
    for tup in report.data["witnesses"]:
        terms = [apply(op, TABLE, n) for op, n in zip(ops, tup)]
        assert sum(terms) == 0 and len(set(tup)) == 3
        assert all(sum(part) for k in (1, 2) for part in itertools.combinations(terms, k))


def test_finite_exhaustion_needs_whole_sets_not_heads():
    # x, y range over Proved finite sets of size + 1 members, the last of
    # them far above the rest; the literals hold only at x = far, y != x.
    # Past the head depth that member is never tried, so the search must not
    # call the sets exhausted.  Within it every member is tried and, with
    # the far member left out of the sets, the search refutes.
    x, y = F.LinTerm(0, {"x": (1,)}), F.LinTerm(0, {"y": (1,)})
    side = [F.RangeZ(x.add(y.scale(-1)), 0, False)]
    for size, far_member, want in ((STREAM_HEAD + 6, True, "unknown"),
                                   (STREAM_HEAD - 4, False, "false")):
        far = size + 3
        lits = side + [F.RangeZ(x.plus_const(-2 ** far))]
        members = list(range(size)) + ([far] if far_member else [])
        constraints = {v: PeriodicIndexSet.finite(members, Proved("test-finite"))
                       for v in ("x", "y")}
        verdict = _independent_disjunct(POW2, ["x", "y"], lits, constraints, side, 64)
        assert verdict[0] == want, (size, verdict)
        assert F.eval_ground(F.And(lits), POW2, {"x": far, "y": 0})


TRIB = make_handle(SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]))

# (handle, operators, target): s = 2 to 4, homogeneous and not; on the
# 2**n + n table both operators of the last homogeneous pair are constant
STAGED = [
    (FIB, [[1], [-1]], 1), (FIB, [[1], [1], [-1]], 0), (FIB, [[1], [1], [-1]], 5),
    (FIB, [[1], [1], [-1], [-1]], 0), (TRIB, [[1], [1], [-1]], 0),
    (TRIB, [[2], [1], [-1]], 0), (TRIB, [[1], [-1], [1], [-1]], 3),
    (TABLE, [[1], [1], [-1]], 0), (TABLE, [[2, -3, 1], [-2, 3, -1]], 0),
    (TABLE, [[1], [1], [1], [-1]], 4),
]


@pytest.mark.parametrize("case", range(len(STAGED)))
def test_staged_expansion_is_the_sorted_instantiation(case):
    handle, ops, z = STAGED[case]
    description = solve_full(EquationProblem(handle, ops, z))
    for window in (16, 20, 40, 64):
        want = sorted(description.instantiate(window), key=lambda t: (sum(t), t))
        assert list(_by_index_sum(description, window)) == want, (ops, z, window)


def test_staged_expansion_stops_at_the_first_stage_with_a_witness():
    description = solve_full(EquationProblem(FIB, [[1], [1], [-1], [-1]], 0))
    seen = []
    real = description.instantiate
    description.instantiate = lambda n: seen.append(n) or real(n)
    assert sum(next(_by_index_sum(description, 64))) == 0
    assert seen == [8]


def test_bounded_search_assignments_are_capped(monkeypatch):
    # a multi-variable D atom sends the sentence to the bounded search; with
    # seven variables the side shrinks to 2, so 3^7 assignments are tried
    names = ["x%d" % i for i in range(1, 8)]
    text = "".join("E %s in R. " % v for v in names) + \
        "D2(x1 + x2) & %s = 3" % " + ".join(names)
    start = time.perf_counter()
    verdict = run(text)
    assert time.perf_counter() - start < 2
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.reason == "bounded-search-at-budget"
    tried = []
    real = decide_module._check_assignment
    monkeypatch.setattr(decide_module, "_check_assignment",
                        lambda *args: tried.append(args) or real(*args))
    run(text)
    assert len(tried) == 3 ** 7 <= BOUNDED_ASSIGNMENT_CAP


# ---------------------------------------------------------------------------
# One disjunction rule
# ---------------------------------------------------------------------------

# 2^69 + 3 is no difference r_a - r_b of the 2**n + n table: a <= 69 leaves
# it too large, a = 70 needs r_b = 2^69 + 67, and a >= 71 leaves it too small.
NOT_A_DIFFERENCE = "!Sigma{D=[(y1 - y2)]}(%d)" % (2 ** 69 + 3)


@pytest.mark.parametrize("text", [NOT_A_DIFFERENCE,
                                  "E x in R. x = 3 & " + NOT_A_DIFFERENCE])
def test_undecided_negated_sigma_with_no_disjunct_left_is_unknown(text):
    # the membership search runs out of budget, so the negated atom is
    # undecided and drops its branch; that leaves no disjunct, which must
    # not read as a proof of falsity
    verdict = run(text, handle=TABLE)
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.reason == "negated-sigma-at-budget"
    assert verdict.exit_code() == 2


def test_disjunction_rule():
    proved, bounded = Proved("a"), certs.BoundedCheck(10)
    read = []

    def parts(*outcomes):
        for outcome in outcomes:
            read.append(outcome)
            yield outcome

    true = ("true", {"x": ("index", 1)})
    assert _disjunction(parts(("unknown", "u"), true, ("false", proved))) == true
    assert read == [("unknown", "u"), true]
    assert _disjunction(parts(("unknown", "u"), ("false", proved),
                              ("unknown", "v"))) == ("unknown", "v")
    assert _disjunction(parts(("false", proved)), tainted=True) == \
        ("unknown", "negated-sigma-at-budget")
    assert _disjunction(parts(), tainted=True) == ("unknown", "negated-sigma-at-budget")
    kind, cert = _disjunction(parts())
    assert kind == "false" and cert.to_json() == Proved("empty-disjunction").to_json()
    kind, cert = _disjunction(parts(("false", proved), ("false", bounded)))
    assert kind == "false" and cert.to_json() == \
        certs.merge([proved, bounded], reason="fragment-decision").to_json()


# ---------------------------------------------------------------------------
# One window scan for one-variable literals
# ---------------------------------------------------------------------------

def reference_single_var_set(handle, lit, budget):
    """_single_var_set as it was with three separate window scans."""
    (var, g), = lit.lin.ops.items()
    c = lit.lin.const
    op = Operator(g)
    if isinstance(lit, F.RangeZ):
        assert lit.c == 0   # an equality or a disequality
        want_zero = lit.positive
        if c == 0:
            cls = classify(op, handle)
            if isinstance(cls, FiniteRoots):
                zero_set = PeriodicIndexSet.finite(list(cls.roots), cls.cert)
            else:
                zero_set = PeriodicIndexSet.cofinite(list(cls.exceptions), cls.cert)
        else:
            try:
                sols, cert = solve_inhomogeneous(op, handle, -c,
                                                 budget=max(300, budget))
                zero_set = PeriodicIndexSet.finite(sols, cert)
            except NotFinitelySolvable:
                window = max(64, budget)
                hits = [n for n in range(window + 1) if apply(op, handle, n) == -c]
                if len(hits) == window + 1:
                    zero_set = PeriodicIndexSet(window + 1, 1, (0,), hits,
                                                certs.BoundedCheck(window))
                else:
                    zero_set = PeriodicIndexSet.finite(hits, certs.BoundedCheck(window))
        return zero_set if want_zero else zero_set.complement()
    if isinstance(lit, F.DivZ):
        try:
            divisible = divisibility_set(handle, op, c, lit.m)
            return divisible if lit.positive else divisible.complement()
        except (ValueError, NotImplementedError):
            window = max(64, budget)
            hits = [n for n in range(window + 1)
                    if ((apply(op, handle, n) + c) % lit.m == 0) == lit.positive]
            return PeriodicIndexSet.finite(hits, certs.BoundedCheck(window))
    if isinstance(lit, F.InRZ):
        if g == (1,) and c == 0:
            return PeriodicIndexSet.full() if lit.positive else \
                PeriodicIndexSet.finite((), certs.Proved("vacuous-constraint"))
        window = max(64, budget)
        hits = [n for n in range(window + 1)
                if F._in_r(handle, apply(op, handle, n) + c) == lit.positive]
        return PeriodicIndexSet.finite(hits, certs.BoundedCheck(window))
    raise OutOfFragment("unsupported-literal", type(lit).__name__)


def single_var_set(handle, lit, budget):
    """The one-variable compile decide uses: _operator_set for range
    literals, on a classification memo of its own, and _single_var_set for
    the other literals."""
    if isinstance(lit, F.RangeZ):
        return decide_module._operator_set(handle, lit, budget, {})
    return _single_var_set(handle, lit, budget)


def index_set_shape(s):
    return s.rho, s.p, sorted(s.classes), s.members, s.cert.to_json()


WINDOW_LITERALS = [
    # NotFinitelySolvable: the scanned prefix is solid, then not quite
    ("n + 1", "S(x) = x + 1", "window"),
    ("n + 1", "S(x) != x + 1", "window"),
    ("3*n + 2 // (n + 1)", "S(x) = x + 3", "window"),
    # a divisibility profile with no period inside its stream
    ("n*n // 1009 + n + 1", "D3(x + 1)", "window"),
    ("n*n // 1009 + n + 1", "!D3(S(x) + x)", "window"),
    # a profile that fails monotonicity past the window
    ("n % 1000 + 1", "D3(x)", "window"),
    # membership in R
    ("2**n + n", "x + 1 in R", "window"),
    ("2**n + n", "!(S(x) + 2 in R)", "window"),
    # routes that scan no window, for contrast
    ("2**n + n", "x in R", "no-scan"),
    ("2**n + n", "D3(x)", "no-scan"),
]


@pytest.mark.parametrize("generator,text,route", WINDOW_LITERALS,
                         ids=["%s: %s" % (g, t) for g, t, _ in WINDOW_LITERALS])
@pytest.mark.parametrize("budget", [64, 100])
def test_one_window_scan_matches_the_three_old_scans(generator, text, route, budget):
    handle = make_handle(SequenceSpec.table([], generator=generator))
    lit = F.normalize(F.parse("E x in R. " + text)).body
    got = single_var_set(handle, lit, budget)
    assert index_set_shape(got) == \
        index_set_shape(reference_single_var_set(handle, lit, budget))
    window = got.cert.to_json() == certs.BoundedCheck(max(64, budget)).to_json()
    assert window == (route == "window")


# ---------------------------------------------------------------------------
# t > c as one literal, against its unfolding into c + 1 disequalities
# ---------------------------------------------------------------------------

GROUP_HANDLES = {
    "pow2": lambda: POW2,
    "sum23": lambda: make_handle(SequenceSpec.sum_of([SequenceSpec.power(2),
                                                      SequenceSpec.power(3)])),
    "fib": lambda: FIB,
    "pell": lambda: make_handle(SequenceSpec.recurrence([1, 2], [1, 2])),
    "factorial": lambda: make_handle(SequenceSpec.factorial()),
    "table": lambda: TABLE,
    # f[-1,1] is 2 but for 3 at n = 149 (and 449, ...)
    "steps": lambda: make_handle(SequenceSpec.table(
        [], generator="2*n + n // 150 - n // 300 + 1")),
}

# (sequence, term, route of the term's operator)
GROUP_ROUTES = [
    ("pow2", "x", "geometric"),
    ("pow2", "f[-3,1](S(x))", "geometric"),
    ("sum23", "x", "geometric"),
    ("sum23", "f[-3,1](x)", "geometric"),
    ("fib", "x", "contraction"),
    ("fib", "S(x)", "contraction"),
    ("pell", "x", "contraction"),
    ("pell", "f[1,-1](x)", "contraction"),
    ("factorial", "x", "theta-infinite"),
    ("factorial", "f[-3,1](x)", "theta-infinite"),
    ("fib", "f[1,1,-1](x)", "cofinite-zero"),
    ("table", "x", "bounded"),
    ("table", "S(x)", "bounded"),
    ("table", "f[2,-3,1](x)", "not-finitely-solvable"),  # the constant -1
    ("steps", "f[-1,1](x)", "not-finitely-solvable"),
]
# the target that f meets on its whole scanned tail
SOLID = {"table": -1, "steps": 2}


def unfolded(lit):
    """The range literal as normalize unfolded it before t > c became one
    literal: t > c (the negated range) is t != 0 & ... & t != c, and the
    range itself the Or of t = 0, ..., t = c."""
    parts = [F.RangeZ(lit.lin.plus_const(-i), 0, lit.positive) for i in range(lit.c + 1)]
    return F.Or(parts) if lit.positive else F.And(parts)


def _order_texts(handle, op, term, solid, seed):
    """t + k > c on one term: a few fixed ones, and seeded ones with c <= 300
    and an offset k that puts values the term takes (the solid one among
    them) inside [0, c] or next to it."""
    pool = sorted({apply(op, handle, n) for n in range(12)} | {solid, 0, 1, 40})
    pairs = [(0, 0), (0, 61), (0, 300), (-solid, 0), (1 - solid, 2)]
    rng = random.Random(seed)
    for _ in range(5):
        c = rng.randint(0, 300)
        pairs.append((rng.randint(0, c) - rng.choice(pool), c))
    return ["%s %s %d > %d" % (term, "+" if k >= 0 else "-", abs(k), c) for k, c in pairs]


def _literals(text):
    matrix = F.normalize(F.parse("E x in R. " + text)).body
    return list(matrix.items) if isinstance(matrix, F.And) else [matrix]


def order_set_shape(s):
    """index_set_shape with the certificate's level and window alone: a
    literal read from one part keeps that part's Proved reason, where the
    intersection of the unfolded literals names index-set-arithmetic, and
    every consumer of a literal's set merges its certificate into one with a
    reason of its own."""
    return index_set_shape(s)[:4] + (certs.merge([s.cert], "set").to_json(),)


def same_members(a, b):
    top = max(a.rho, b.rho) + math.lcm(a.p, b.p)
    return [a.contains(n) for n in range(top)] == [b.contains(n) for n in range(top)]


def _outcome_json(outcome):
    kind, data = outcome
    return kind, data.to_json() if isinstance(data, certs.Certificate) else data


@pytest.mark.parametrize("budget", [64, 400])
@pytest.mark.parametrize("seq,term,route", GROUP_ROUTES,
                         ids=["%s: %s" % (s, t) for s, t, _ in GROUP_ROUTES])
def test_grouped_compile_matches_the_literal_by_literal_sets(seq, term, route, budget,
                                                             monkeypatch):
    # t > c against its unfolding.  t > c and !(t > c), one literal each,
    # against the c + 1 literals they unfolded into (the name is the one
    # this check had when those literals compiled in grouped runs): the same
    # index set, in the same form, as the reference sets of those literals
    # give, the same disjunct outcome (a True witness of the range may have
    # a smaller index: it is the least member of the whole range's set, not
    # of the first value's), and the same truth.  A range that holds the
    # solid value is one window scan of the whole range, where the unfolding
    # scanned that value alone: its set is checked against that scan, and
    # its outcome by verdict kind and witness.
    handle = GROUP_HANDLES[seq]()
    (_, g), = _literals(term + " = 0")[0].lin.ops.items()
    op = Operator(g)
    cls = classify(op, handle, max(DEFAULT_BUDGET, budget))
    if route == "cofinite-zero":
        assert isinstance(cls, CofiniteZero)
    elif route in ("bounded", "not-finitely-solvable"):
        assert not cls.cert.is_proved
    else:
        assert isinstance(cls, FiniteRoots) and cls.cert.is_proved
    solid = SOLID.get(seq, -1)
    if route == "not-finitely-solvable":
        with pytest.raises(NotFinitelySolvable):
            solve_inhomogeneous(op, handle, solid, budget=max(DEFAULT_BUDGET, budget))
        # the range reports the solid value and leaves its indices out
        hits, _, got = operators_module.solve_range(op, handle, solid - 1, solid + 1, cls)
        assert got == solid and all(apply(op, handle, n) != solid for n in hits)
    # the reference classifies once per (operator, budget), as decide does
    once = functools.lru_cache(maxsize=None)(classify)
    monkeypatch.setattr(operators_module, "classify", once)
    monkeypatch.setitem(globals(), "classify", once)
    rng = random.Random(seq + term)
    window = max(64, budget)
    for text in _order_texts(handle, op, term, solid, "%s %s %d" % (seq, term, budget)):
        order = _literals(text)[0]      # t > c: the negated range
        lo = -order.lin.const
        hi = lo + order.c
        disequalities = [reference_single_var_set(handle, lit, budget)
                         for lit in unfolded(order).items]
        holds_solid = route == "not-finitely-solvable" and lo <= solid <= hi
        if holds_solid:
            scan = [n for n in range(window + 1) if lo <= apply(op, handle, n) <= hi]
            inside = PeriodicIndexSet(window + 1, 1, (0,), scan, certs.BoundedCheck(window)) \
                if len(scan) == window + 1 else \
                PeriodicIndexSet.finite(scan, certs.BoundedCheck(window))
            # the value 0 keeps its classification
            zero = [disequalities[-lo]] if lo <= 0 <= hi else []
            disequalities = [inside.complement()] + zero
        outside = functools.reduce(PeriodicIndexSet.intersect, disequalities)
        for lit, want in ((order, outside), (order.negate(), outside.complement())):
            assert isinstance(lit, F.RangeZ) and lit.c == order.c, text
            got = decide_module._operator_set(handle, lit, budget, {})
            if got.rho == window + 1 and not got.is_finite():
                # the window scan of a solid value, every index: the
                # unfolding's double complement writes it with no prefix
                assert same_members(got, want) and got.cert == want.cert, lit.render()
            else:
                assert order_set_shape(got) == order_set_shape(want), lit.render()
            outcome = _disjunction(
                [decide_module._solve_disjunct(handle, ["x"], [lit], budget, {})])
            parts = unfolded(lit)
            disjuncts = [[eq] for eq in parts.items] if lit.positive else [parts.items]
            reference = _disjunction(decide_module._solve_disjunct(handle, ["x"], d, budget, {})
                                     for d in disjuncts)
            if outcome[0] == "true" and (lit.positive or holds_solid):
                assert reference[0] == "true", lit.render()
                assert holds_solid or outcome[1]["x"][1] <= reference[1]["x"][1]
                assert F.eval_ground(lit, handle, {"x": outcome[1]["x"][1]})
            elif holds_solid:
                assert outcome[0] == reference[0], lit.render()
            else:
                assert _outcome_json(outcome) == _outcome_json(reference), lit.render()
            for n in rng.sample(range(420), 8) + [want.rho]:
                holds = F.eval_ground(lit, handle, {"x": n})
                assert holds == F.eval_ground(parts, handle, {"x": n}), (lit.render(), n)
                assert holds == got.contains(n) or not got.cert.is_proved


@pytest.mark.parametrize("text", ["E x in R. D6(x) & x > 61",
                                  "E k <= 7. E x in R. x = k + 27"])
def test_one_classification_per_operator_and_decide_call(text, monkeypatch):
    # x > 61 reads the values 0 to 61 of the operator [1], and E k <= 7
    # asks x = k + 27 eight times: one classification serves them all
    calls = []

    def counting(op, handle, budget=DEFAULT_BUDGET):
        calls.append(op.coeffs)
        return classify(op, handle, budget)

    monkeypatch.setattr(decide_module, "classify", counting)
    verdict = run(text, handle=FIB)
    assert verdict.is_true()
    assert calls == [(1,)]
    # no memo outlives the call
    run(text, handle=FIB)
    assert calls == [(1,), (1,)]


def test_the_classification_memo_keys_on_the_budget():
    # x = 0 classifies at DEFAULT_BUDGET (300), x = r_350 at the budget 400,
    # whose bounded scan reaches index 350
    verdict = run("E x in R. x = 0 | x = %d" % (2 ** 350 + 350), handle=TABLE, budget=400)
    assert verdict.is_true() and verdict.witness == {"x": ("index", 350)}


def test_an_error_of_a_later_literal_surfaces_where_it_stands(monkeypatch):
    # x != 10^300 needs fib terms up to about r_1440, past a small cache
    # budget; x != 1 does not.  The literals compile in order, so the large
    # constant must not refuse before the ground contradiction is read, and
    # a refusal leaves its disjunct undecided.
    monkeypatch.setattr(sequences, "MAX_CACHE_BITS", 100_000)
    big = str(10 ** 300)
    fresh = lambda: make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
    verdict = run("E x in R. x != 1 & 0 = 1 & x != " + big, handle=fresh())
    assert verdict.is_false()
    assert verdict.certificate.to_json() == Proved("fragment-decision").to_json()
    refused = run("E x in R. x != 1 & x != " + big + " & 0 = 1", handle=fresh())
    assert refused.kind == Verdict.UNKNOWN and refused.reason == "cache-budget-exceeded"


# ---------------------------------------------------------------------------
# The DNF walk, Sigma atoms and negated order atoms within it
# ---------------------------------------------------------------------------

def reference_expand_sigma(handle, node, budget):
    """Sigma atoms replaced in a tree rebuilt before the DNF, as decide did
    it before the DNF walk expanded them: (matrix, fresh R variables,
    taint)."""
    fresh_vars = []
    taint = [False]
    counter = itertools.count()

    def walk(n):
        if isinstance(n, (F.And, F.Or)):
            return type(n)([walk(x) for x in n.items])
        if not isinstance(n, F.SigmaZ):
            return n
        if n.positive:
            tag = next(counter)
            renaming = {v: "_sig%d_%s" % (tag, v) for v in n.row_variables()}
            fresh_vars.extend(renaming[v] for v in sorted(renaming))
            return F.And(decide_module._sigma_parts(n, renaming))
        if any(not a.is_ground() for a in n.args):
            raise OutOfFragment("negated-sigma-with-variables")
        verdict = decide(decide_module._sigma_sentence(n), handle, budget)
        if verdict.is_true():
            return F.FALSE
        if verdict.is_false():
            return F.TRUE
        taint[0] = True
        return F.FALSE

    return walk(node), fresh_vars, taint[0]


def reference_dnf(node):
    """The DNF as decide built it before the walk: every And item copies the
    partial conjunctions."""
    if isinstance(node, F.Or):
        out = []
        for x in node.items:
            out.extend(reference_dnf(x))
            if len(out) > decide_module.DNF_CAP:
                raise OutOfFragment("dnf-too-large")
        return out
    if isinstance(node, F.And):
        out = [[]]
        for x in node.items:
            branches = reference_dnf(x)
            out = [a + b for a in out for b in branches]
            if len(out) > decide_module.DNF_CAP:
                raise OutOfFragment("dnf-too-large")
        return out
    return [[node]]


def _atom(text):
    return F.normalize(F.parse("E x in R. E y in R. " + text)).body.body


DNF_LEAVES = [_atom(t) for t in [
    "x = 3", "x != y", "D3(x + y)", "f[1,-1](x) = 2", "y in R", "!(x in R)",
    "Sigma{D=[(y1 + y2)]}(x + 1)", "Sigma{C=[D2(y1)], D=[(y1 + y2)]}(y)",
    "Sigma{D=[(y1 - y2), (y2)]}(x, y + 2)", "Sigma{D=[(3)]}(x)"]] + [F.TRUE, F.FALSE]


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(DNF_LEAVES)
    kind = rng.choice([F.And, F.Or])
    return kind([_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))])


def _near_cap_tree(rng):
    """An And of Ors of small random trees, whose DNF has about DNF_CAP
    disjuncts."""
    return F.And([F.Or([_random_tree(rng, 1) for _ in range(rng.randint(2, 3))])
                  for _ in range(rng.randint(4, 8))])


def _cap_trees():
    """And/Or trees whose DNF has DNF_CAP disjuncts or just more, at the top
    or inside an Or."""
    pair = F.Or([DNF_LEAVES[0], DNF_LEAVES[6]])
    triple = F.Or([DNF_LEAVES[1], F.TRUE, DNF_LEAVES[7]])
    at_cap = F.And([pair] * 8)                             # 256
    over = F.And([pair] * 7 + [triple])                    # 384
    return [at_cap, over, F.And([at_cap, DNF_LEAVES[2]]),
            F.Or([at_cap, DNF_LEAVES[3]]),                 # 257
            F.Or([F.And([pair] * 7), F.And([pair] * 7)]),  # 256
            F.And([at_cap, pair, F.FALSE]),                # 512 before the FALSE
            F.And([F.FALSE, at_cap, pair])]                # none


def _walked(tree, monkeypatch):
    """(R variables, rendered literals) of each disjunct _decide_matrix
    hands on, or the reason it refuses the tree."""
    seen = []

    def record(handle, rvars, lits, budget, classified):
        seen.append((list(rvars), [lit.render() for lit in lits]))
        return ("false", Proved("recorded"))

    with monkeypatch.context() as m:
        m.setattr(decide_module, "_solve_disjunct", record)
        try:
            decide_module._decide_matrix(None, ["x", "y"], tree, 64, {})
        except OutOfFragment as e:
            return e.reason
    return seen


def _reference_walked(tree):
    try:
        matrix, fresh, _ = reference_expand_sigma(None, tree, 64)
        return [(["x", "y"] + fresh, [lit.render() for lit in lits])
                for lits in reference_dnf(matrix)]
    except OutOfFragment as e:
        return e.reason


def test_the_dnf_walk_matches_the_expand_then_distribute_reference(monkeypatch):
    rng = random.Random(20)
    trees = _cap_trees() + [_random_tree(rng, rng.randint(1, 5)) for _ in range(300)] \
        + [_near_cap_tree(rng) for _ in range(200)]
    sizes = []
    for tree in trees:
        want = _reference_walked(tree)
        assert _walked(tree, monkeypatch) == want
        sizes.append(-1 if want == "dnf-too-large" else len(want))
    assert sizes[:7] == [256, -1, 256, -1, 256, -1, 0]
    # the random trees fall on both sides of the cap, many of them near it
    assert sizes.count(-1) >= 50 and sum(64 < s <= 256 for s in sizes) >= 30


SIGMA_WITNESSES = [
    (POW2, "E x in R. Sigma{D=[(y1 + y2)]}(x + 1) & Sigma{D=[(y1)]}(x - 2)"
           " & !Sigma{D=[(y1 + y2)]}(7)",
     {"certificate": {"level": "Proved", "reason": "checked-witness"},
      "verdict": "True",
      "witness": {"_sig0_y1": {"element": 1, "index": 0},
                  "_sig0_y2": {"element": 4, "index": 2},
                  "_sig1_y1": {"element": 2, "index": 1},
                  "x": {"element": 4, "index": 2}}}),
    (FIB, "E x in R. !Sigma{D=[(y1 + y2 + y3)]}(4) & x > 3"
          " & (x = 8 | Sigma{D=[(y1)]}(x + 5))",
     {"certificate": {"level": "Proved", "reason": "fragment-decision"},
      "verdict": "False"}),
]


@pytest.mark.parametrize("handle,text,want", SIGMA_WITNESSES,
                         ids=["pow2 two positive", "fib negated and in an Or"])
def test_sigma_witnesses_keep_their_fresh_variables(handle, text, want):
    assert run(text, handle=handle).to_json(handle) == want


def test_a_negated_order_on_several_variables_expands_into_its_equations():
    # !(x - y > c) is x - y in [0, c]: the DNF walk gives its c + 1 equations
    # as disjuncts, in the order the unfolding gave them, against DNF_CAP
    for c in (0, 3, decide_module.DNF_CAP - 1):
        lit = _atom("!(x - y > %d)" % c)
        got = [[x.render() for x in d] for d in decide_module._dnf(lit, None)]
        assert got == [[x.render() for x in d] for d in reference_dnf(unfolded(lit))]
        assert len(got) == c + 1
    with pytest.raises(OutOfFragment, match="dnf-too-large"):
        decide_module._dnf(_atom("!(x - y > %d)" % decide_module.DNF_CAP), None)
    with pytest.raises(OutOfFragment, match="dnf-too-large"):
        decide_module._dnf(F.And([_atom("!(x - y > 15)"), _atom("!(y - x > 15)"),
                                  _atom("x = 3 | y = 4")]), None)
    # one variable: one literal, one disjunct
    assert len(decide_module._dnf(_atom("!(x > 300) & !(y > 300)"), None)) == 1


# fib sentences with order atoms (the first three exited 3 while t > c
# unfolded), and the least witness of each True one, in increasing index
# sum, as brute force over the first 60 terms finds it
ORDER_SENTENCES = [
    ("E x in R. D6(x) & x > 1000000", {"x": 34}),
    ("E x in R. !(x > 300) & D7(x)", {"x": 6}),
    ("E x in R. E y in R. !(x > 20) & !(y > 20) & x + y = 21", {"x": 4, "y": 5}),
    ("E x in R. !(x > 20) & D7(x)", None),
    ("E x in R. E y in R. x - y > 3 & y = 13", {"x": 0, "y": 5}),
]


@pytest.mark.parametrize("text,least", ORDER_SENTENCES,
                         ids=[t for t, _ in ORDER_SENTENCES])
def test_order_sentences_answer_with_checked_witnesses(text, least):
    verdict = run(text, handle=FIB)
    node = F.normalize(F.parse(text))
    rvars = []
    while isinstance(node, F.ExistsInR):
        rvars.append(node.var)
        node = node.body
    holding = [combo for combo in itertools.product(range(60), repeat=len(rvars))
               if F.eval_ground(node, FIB, dict(zip(rvars, combo)))]
    if least is None:
        assert verdict.is_false() and verdict.certificate.is_proved
        assert not holding
        return
    assert verdict.is_true()
    check_witness(text, verdict, FIB)
    assert {v: n for v, (_, n) in verdict.witness.items()} == least
    assert min(holding, key=lambda t: (sum(t), t)) == tuple(least[v] for v in rvars)


# fib sentences on three variables whose one-variable !(x > 100) holds on
# x in {0, ..., 9}, past the head of eight members, with the verdict each
# had while !(x > 100) unfolded into 101 disjuncts of one member each
WHOLE_SET_SENTENCES = [
    # side conditions that fail everywhere: exhaustion proves False
    ("E x in R. E y in R. E z in R. !(x > 100) & y = 1 & z = 1 & y - z != 0",
     None),
    # only x = r_9 = 89 passes y - x + 80 < 0
    ("E x in R. E y in R. E z in R. !(x > 100) & y = 2 & z = 3 & y - x + 80 > 200",
     {"x": 9, "y": 1, "z": 2}),
    # the same with an equation on the other two
    ("E x in R. E y in R. E z in R. !(x > 100) & y + z = 5 & y - x + 80 > 200",
     {"x": 9, "y": 1, "z": 2}),
]


@pytest.mark.parametrize("text,witness", WHOLE_SET_SENTENCES,
                         ids=[t for t, _ in WHOLE_SET_SENTENCES])
def test_a_finite_proved_set_past_its_head_is_tried_whole(text, witness):
    assert len(decide_module._operator_set(FIB, _atom("!(x > 100)"), 64, {}).members) \
        > decide_module.HEAD_DEPTH
    verdict = run(text, handle=FIB)
    if witness is None:
        assert verdict.to_json() == {"verdict": "False", "certificate": {
            "level": "Proved", "reason": "fragment-decision"}}
        return
    assert verdict.is_true()
    check_witness(text, verdict, FIB)
    assert {v: n for v, (_, n) in verdict.witness.items()} == witness


def test_each_member_tuple_of_a_whole_set_has_its_own_candidate_budget():
    # y = z holds on the 401 diagonal tuples of the window, and only the
    # tuple (300, 300) with x = r_0 meets the side condition: 301 tuples
    # times x's 15 members pass CANDIDATE_CAP, 301 tuples alone do not
    text = "E x in R. E y in R. E z in R. !(x > 1000) & y - z = 0 & " \
        "y - x + 1000 > %d" % FIB.eval(300)
    verdict = run(text, handle=FIB, budget=400)
    assert verdict.is_true()
    witness = {v: n for v, (_, n) in verdict.witness.items()}
    assert witness == {"x": 0, "y": 300, "z": 300}
    matrix = F.normalize(F.parse(text)).body.body.body
    assert F.eval_ground(matrix, FIB, witness)
    assert not F.eval_ground(matrix, FIB, {"x": 0, "y": 299, "z": 299})


@pytest.mark.parametrize("text", [NOT_A_DIFFERENCE + " & !Sigma{D=[(y1 - y2)]}(2)",
                                  "!Sigma{D=[(y1 - y2)]}(2) & " + NOT_A_DIFFERENCE])
def test_a_decided_negated_sigma_keeps_the_taint_of_an_undecided_one(text):
    # 2 = r_1 - r_0 is a difference, so its negation is refuted; the other
    # atom is undecided, whichever of them the walk meets first
    verdict = run(text, handle=TABLE)
    assert verdict.kind == Verdict.UNKNOWN
    assert verdict.reason == "negated-sigma-at-budget"


def test_a_range_that_holds_the_solid_value_is_one_window_scan():
    # on the steps table f[-1,1] is 2, but 3 at n = 149, 449, ...: f > 5
    # holds nowhere.  The window of the value 2 alone is not solid at budget
    # 400 (it misses n = 149); the window of the whole range [0, 5] is, at
    # either budget, so no candidate past the window is tried
    handle = GROUP_HANDLES["steps"]()
    for budget in (64, 400):
        verdict = run("E x in R. f[-1,1](x) > 5", handle=handle, budget=budget)
        assert verdict.to_json() == {"verdict": "UnknownBeyond", "horizon": budget,
                                     "reason": "bounded-constraint-empty"}
        for text in ("E x in R. !(f[-1,1](x) > 5)", "E x in R. f[-1,1](x) = 2"):
            verdict = run(text, handle=handle, budget=budget)
            assert verdict.is_true(), (text, budget)
            assert witness_holds(text, verdict, handle)


# ---------------------------------------------------------------------------
# !Dm(t) as one literal, against the divisibility remark written out
# ---------------------------------------------------------------------------

DIFFERENTIAL_HANDLES = {"fib": FIB, "pow2": POW2, "table": TABLE,
                        "pell": make_handle(SequenceSpec.recurrence([1, 2], [1, 2]))}


def _remark_pair(rng, handle):
    """A sentence on one to four R variables whose conjunctions hold one or
    two !Dm(t) atoms among Dm, =, !=, t > c, !(t > c), x - y != c and
    equations, sometimes two conjunctions under a top-level Or; and the same
    sentence with each !Dm(t) written as (Dm(t + 1) | ... | Dm(t + m - 1))."""
    vs = ["x", "y", "z", "w"][:rng.randint(1, 4)]

    def term(several=True):
        v = rng.choice(vs)
        shape = rng.choice(["%s", "%s", "%s + 3", "S(%s)", "f[1,1](%s)", "%s + %s"])
        if shape == "%s + %s":
            return shape % (v, rng.choice(vs)) if several else v
        return shape % v

    def value():
        return handle.eval(rng.randint(0, 8)) + rng.choice([0, 0, 1, -1, 3])

    def other():
        kind = rng.choice(["D", "=", "!=", ">", "!>"] + ["side", "eqn"] * (len(vs) > 1))
        if kind == "D":
            return "D%d(%s)" % (rng.randint(2, 5), term())
        if kind in ("=", "!="):
            return "%s %s %d" % (term(False), kind, value())
        if kind == ">":
            return "%s > %d" % (term(), rng.randint(0, 40))
        if kind == "!>":
            # on several variables the range expands into its equations
            t = term()
            return "!(%s > %d)" % (t, rng.randint(0, 40 if t in vs else 3))
        a, b = rng.sample(vs, 2)
        if kind == "side":
            return "%s - %s != %d" % (a, b, rng.randint(-3, 3))
        if len(vs) > 2:
            c = rng.choice([v for v in vs if v not in (a, b)])
            return "%s + %s = %s + %d" % (a, b, c, rng.randint(0, 9))
        return "%s - %s = %d" % (a, b, value() - handle.eval(rng.randint(0, 3)))

    def conjunction():
        one, remark = [], []
        for _ in range(rng.randint(1, 2)):
            m, t = rng.randint(2, 5), term()
            one.append("!D%d(%s)" % (m, t))
            remark.append("(%s)" % " | ".join("D%d(%s + %d)" % (m, t, k)
                                               for k in range(1, m)))
        for _ in range(rng.randint(0, 3)):
            atom = other()
            one.append(atom)
            remark.append(atom)
        order = rng.sample(range(len(one)), len(one))
        return [" & ".join(atoms[i] for i in order) for atoms in (one, remark)]

    parts = [conjunction() for _ in range(rng.choice([1, 1, 1, 2]))]
    head = "".join("E %s in R. " % v for v in vs)
    return [head + " | ".join("(%s)" % p[i] for p in parts) for i in (0, 1)]


def _verdict_or_refusal(text, handle):
    try:
        return run(text, handle=handle)
    except OutOfFragment as e:
        return e.reason


def test_a_negated_divisibility_agrees_with_the_divisibility_remark():
    # no decided verdict of the written-out remark changes kind, every True
    # witness re-checks by direct evaluation, and both sides of a False
    # rest on the same certificate
    rng = random.Random(20261020)
    kinds = []
    for _ in range(500):
        seq = rng.choice(sorted(DIFFERENTIAL_HANDLES))
        handle = DIFFERENTIAL_HANDLES[seq]
        text, remark = _remark_pair(rng, handle)
        got = run(text, handle=handle)
        want = _verdict_or_refusal(remark, handle)
        kinds.append(got.kind)
        if isinstance(want, str):
            assert want == "dnf-too-large", (seq, text)
        elif want.kind != Verdict.UNKNOWN:
            assert got.kind == want.kind, (seq, text)
        if got.is_true():
            assert witness_holds(text, got, handle), (seq, text)
        if not isinstance(want, str) and want.is_true():
            assert witness_holds(remark, want, handle), (seq, remark)
        if got.is_false() and want.is_false():
            assert got.certificate.to_json() == want.certificate.to_json(), (seq, text)
    assert min(kinds.count(k) for k in (Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN)) >= 10
