"""Reachable branches pinned one by one, each against an oracle.

Every test here drives one branch that no other test runs and checks the
answer with formulas.eval_ground or equations.brute_force (or, for a single
operator, a direct scan of operators.apply):

* operators._target_cutoff when a geometric sequence's top base is killed;
* decide._operator_set on a cofinitely vanishing operator, and
  decide._single_var_set on a negated bare membership;
* a ground literal inside a disjunct;
* decide._bounded_disjunct finding a witness;
* decide._description_empty skipping a case whose class constraint is
  proved empty, and giving up on a pattern (pattern-exclusion-at-budget)
  or on split families (split-families-at-budget);
* the {"value": v} witness of a bounded integer variable;
* substitution of a bounded integer into Sigma arguments;
* verify-ax6 reporting "inconclusive" (exit 2);
* solve_inhomogeneous on a cofinitely vanishing operator;
* an order-1 recurrence c * q^n, and one with q < 2, which is not geometric;
* a large target, whose anchor bound must already outgrow it;
* equations._completeness_data capping the box at ANCHOR_SCAN_BUDGET.
"""

import itertools
import json
from fractions import Fraction

import pytest

from regseq import cli
from regseq import equations as E
from regseq import formulas as F
from regseq import sequences as S
from regseq.certs import BoundedCheck
from regseq.decide import Verdict, decide
from regseq.operators import CofiniteZero, FiniteRoots, Operator, _target_cutoff, \
    apply, classify, solve_inhomogeneous
from regseq.sequences import SequenceSpec, make_handle

POW2 = make_handle(SequenceSpec.power(2))
SUM23 = SequenceSpec.from_json({"kind": "sum", "parts": [{"kind": "power", "q": "2"},
                                                         {"kind": "power", "q": "3"}]})
SUM235 = SequenceSpec.from_json({"kind": "sum",
                                 "parts": [{"kind": "power", "q": "2"},
                                           {"kind": "power", "q": "3"},
                                           {"kind": "power", "q": "5"}]})
WINDOW = 120


def scan(op, handle, z, top=WINDOW):
    return [n for n in range(top) if apply(op, handle, n) == z]


def matrix_holds(text, handle, witness):
    """Whether the matrix under the leading R-quantifiers holds at the
    witness indices."""
    node = F.parse(text)
    while isinstance(node, F.ExistsInR):
        node = node.body
    return F.eval_ground(node, handle, {v: n for v, (_, n) in witness.items()})


# ---------------------------------------------------------------------------
# operators._target_cutoff: the top base killed
# ---------------------------------------------------------------------------

# (spec, operator): each operator kills the top base of the sequence but not
# every base, so classify proves FiniteRoots without a lower bound in r_n.
PARTIAL_KILLS = [
    (SUM23, [-3, 1]),          # -2^n
    (SUM23, [0, -3, 1]),       # -2^(n+1)
    (SUM23, [3, -4, 1]),       # (X - 1)(X - 3): -2^n
    (SUM23, [-9, 0, 1]),       # (X - 3)(X + 3): -5 * 2^n
    (SUM235, [-5, 1]),         # -3 * 2^n - 2 * 3^n
    (SUM235, [15, -8, 1]),     # (X - 3)(X - 5): 3 * 2^n
    (SUM235, [25, -15, 2]),    # (X - 5)(2X - 5): -2 * 3^n + 3 * 2^n
]
TARGETS = [-8, -2, 1, 3, 5, -7, -18, 24, -2 ** 40, -(2 ** 40) - 1, 3 * 2 ** 30,
           -3 * 2 ** 20 - 2 * 3 ** 20, -3 * 2 ** 7 - 2 * 3 ** 7 + 1]


@pytest.mark.parametrize("spec,coeffs", PARTIAL_KILLS, ids=lambda v: json.dumps(
    v.to_json() if hasattr(v, "to_json") else v))
def test_partial_kill_solutions_match_a_scan(spec, coeffs):
    handle = make_handle(spec)
    op = Operator(coeffs)
    cls = classify(op, handle)
    assert isinstance(cls, FiniteRoots) and cls.cert.is_proved
    assert cls.lower_bound is None
    for z in TARGETS:
        sols, cert = solve_inhomogeneous(op, handle, z)
        assert cert.is_proved
        assert sols == scan(op, handle, z), (coeffs, z)
        # the cutoff is a true bound: |f| stays above |z| past it
        cut = _target_cutoff(op, handle, cls, z)
        assert all(abs(apply(op, handle, n)) > abs(z) for n in range(cut, cut + 40))


def test_partial_kill_finds_far_solutions():
    handle = make_handle(SUM23)
    op = Operator([-3, 1])
    assert solve_inhomogeneous(op, handle, -8)[0] == [3]
    assert solve_inhomogeneous(op, handle, -2 ** 40)[0] == [40]
    assert solve_inhomogeneous(op, handle, -2 ** 90)[0] == [90]
    assert solve_inhomogeneous(op, handle, 2 ** 40)[0] == []
    for coeffs in ([-5, 1], [25, -15, 2]):
        mixed, handle = Operator(coeffs), make_handle(SUM235)
        for m in range(3, 60):
            # the surviving bases cancel in part when their signs differ, so
            # |f(m)| falls below lead * 3^m: the cutoff must allow for it
            assert solve_inhomogeneous(mixed, handle, apply(mixed, handle, m))[0] == [m]


# ---------------------------------------------------------------------------
# decide: literal compilation and disjunct routes
# ---------------------------------------------------------------------------

def test_cofinitely_vanishing_literal_compiles_to_a_cofinite_set():
    # f[-2,1] vanishes on every power of two; x > 3 then picks the witness
    text = "E x in R. f[-2,1](x) = 0 & x > 3"
    verdict = decide(F.parse(text), POW2)
    assert verdict.is_true()
    assert matrix_holds(text, POW2, verdict.witness)
    assert F.eval_ground(F.parse(text), POW2, budget=20)
    # the negation has no witness in any window
    refuted = decide(F.parse("E x in R. f[-2,1](x) != 0"), POW2)
    assert refuted.is_false() and refuted.certificate.is_proved
    assert not F.eval_ground(F.parse("E x in R. f[-2,1](x) != 0"), POW2, budget=40)


def test_negated_bare_membership_is_empty():
    text = "E x in R. !(x in R)"
    verdict = decide(F.parse(text), POW2)
    assert verdict.is_false() and verdict.certificate.is_proved
    assert not F.eval_ground(F.parse(text), POW2, budget=40)


def test_ground_literal_inside_a_disjunct():
    text = "E x in R. x = 4 & 1 = 2"
    verdict = decide(F.parse(text), POW2)
    assert verdict.is_false() and verdict.certificate.is_proved
    assert verdict.certificate.to_json() == {"level": "Proved",
                                             "reason": "fragment-decision"}
    assert not F.eval_ground(F.parse(text), POW2, budget=40)
    # the same literal true leaves the other conjunct to decide
    kept = decide(F.parse("E x in R. x = 4 & 2 = 2"), POW2)
    assert kept.is_true() and kept.witness == {"x": ("index", 2)}


def test_bounded_disjunct_finds_the_witness():
    # two equations in one disjunct go to the bounded search
    text = "E x in R. E y in R. x + y = 6 & y - x = 2"
    verdict = decide(F.parse(text), POW2)
    assert verdict.is_true()
    assert verdict.witness == {"x": ("index", 1), "y": ("index", 2)}
    assert matrix_holds(text, POW2, verdict.witness)
    assert F.eval_ground(F.parse(text), POW2, budget=20)


def test_bounded_integer_witness_is_a_value():
    text = "E k <= 3. E x in R. x = k + 1"
    verdict = decide(F.parse(text), POW2)
    assert verdict.is_true()
    report = verdict.to_json(POW2)
    k = report["witness"]["k"]
    assert k == {"value": 0}
    x = report["witness"]["x"]
    assert x["element"] == POW2.eval(x["index"]) == k["value"] + 1
    body = F.parse("E x in R. x = %d + 1" % k["value"])
    assert F.eval_ground(body, POW2, budget=20)


def test_bounded_integer_substituted_into_sigma_arguments():
    text = "E k <= 3. Sigma{D=[(y1 + y2)]}(k + 5)"
    verdict = decide(F.parse(text), POW2)
    assert verdict.is_true()
    witness = verdict.to_json(POW2)["witness"]
    k = witness.pop("k")["value"]
    y1, y2 = (witness[v]["element"] for v in sorted(witness))
    assert y1 + y2 == k + 5
    assert F.eval_ground(F.parse("Sigma{D=[(y1 + y2)]}(%d)" % (k + 5)), POW2, budget=20)
    # 7 is no sum of two powers of two, so the witness of k + 7 is k = 1
    assert not F.eval_ground(F.parse("Sigma{D=[(y1 + y2)]}(7)"), POW2, budget=20)
    later = decide(F.parse("E k <= 3. Sigma{D=[(y1 + y2)]}(k + 7)"), POW2)
    assert later.is_true() and later.witness["k"] == ("value", 1)
    assert F.eval_ground(F.parse("Sigma{D=[(y1 + y2)]}(8)"), POW2, budget=20)


def test_case_with_an_empty_class_constraint_is_skipped():
    # x - y = 0 collapses to one class {x, y}, whose collapsed operator
    # cancels: any index solves it, but D7(x) & !D7(y) on one shared index is
    # proved empty, so the case is skipped instead of reported as a free case
    fib = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
    text = "E x in R. E y in R. x - y = 0 & D7(x) & !D7(y)"
    verdict = decide(F.parse(text), fib)
    assert verdict.is_false() and verdict.certificate.is_proved
    body = F.parse(text).body.body
    assert not any(F.eval_ground(body, fib, {"x": a, "y": b})
                   for a in range(61) for b in range(61))


FIB = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))


def brute_force_witnesses(text, side, necessary):
    """Every index assignment in [0, side]^k under which the matrix of the
    sentence holds on FIB: eval_ground checks each assignment that passes
    `necessary(r, *indices)`, a condition on the terms r that every witness
    meets."""
    node = F.parse(text)
    names = []
    while isinstance(node, F.ExistsInR):
        names.append(node.var)
        node = node.body
    r = FIB.values(side + 1)
    return [tup for tup in itertools.product(range(side + 1), repeat=len(names))
            if necessary(r, *tup)
            and F.eval_ground(node, FIB, dict(zip(names, tup)))]


def test_pattern_exclusion_gives_up_at_the_budget():
    # the anchors of the family of x + S(y) = z that meet the constraints
    # are empty only on a scanned window (y + 3 in R is a window scan), so no
    # False is claimed
    text = "E x in R. E y in R. E z in R. x + S(y) = z & D12(z) & y + 3 in R & !(x > 10)"
    verdict = decide(F.parse(text), FIB)
    assert (verdict.kind, verdict.reason) == (Verdict.UNKNOWN, "pattern-exclusion-at-budget")
    # and none is there to find: no witness on [0, 30]^3
    assert brute_force_witnesses(text, 30, lambda r, x, y, z: r[x] + r[y + 1] == r[z]) == []


def test_split_families_give_up_at_the_budget():
    # a solution may split into a family on three unknowns (w + x = z, say)
    # and the fourth equal to 2; split families are not tested against the
    # constraints, so no False is claimed
    text = "E w in R. E x in R. E y in R. E z in R. x + y + w = z + 2 & D12(x) & D6(w)"
    verdict = decide(F.parse(text), FIB)
    assert (verdict.kind, verdict.reason) == (Verdict.UNKNOWN, "split-families-at-budget")
    # and none is there to find: no witness on [0, 22]^4
    assert brute_force_witnesses(
        text, 22, lambda r, w, x, y, z: r[w] + r[x] + r[y] == r[z] + 2) == []


# ---------------------------------------------------------------------------
# verify-ax6, solve_inhomogeneous and an order-1 recurrence
# ---------------------------------------------------------------------------

def test_verify_ax6_with_a_trivial_operator_is_inconclusive(tmp_path, capsys):
    seq = tmp_path / "pow2.json"
    seq.write_text(json.dumps({"kind": "power", "q": "2"}), encoding="utf-8")
    code = cli.main(["verify-ax6", "--seq", str(seq), "--ops", "[-2,1];[1]"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report == {"axiom": "Ax6", "status": "inconclusive",
                      "reason": "trivial-operator-present"}
    # f[-2,1] vanishes at every index of the window: a trivial operator
    problem = E.EquationProblem(POW2, [[-2, 1]], 0)
    assert len(E.brute_force(problem, 30)) == 31


def test_solve_inhomogeneous_on_a_cofinitely_vanishing_operator():
    # r = 1, 3, 4, 8, 16, ...: f[-2,1] is 1, -2, then 0 from index 2 on
    table = make_handle(SequenceSpec.table([1, 3] + [2 ** k for k in range(2, 61)]))
    op = Operator([-2, 1])
    cls = classify(op, table)
    assert isinstance(cls, CofiniteZero) and cls.exceptions == (0, 1)
    for z in (1, -2, 5, -1):
        sols, cert = solve_inhomogeneous(op, table, z)
        expected = sorted(n for (n,), _ in E.brute_force(E.EquationProblem(table, [op], z), 40))
        assert sols == expected, z
        assert cert == cls.cert
    assert solve_inhomogeneous(op, POW2, 3) == ([], classify(op, POW2).cert)


def test_order_one_recurrence_is_geometric():
    spec = SequenceSpec.recurrence([3], [2])          # 2 * 3^n
    handle = make_handle(spec)
    assert S.power_base_expansion(spec) == [(3, 2)]
    assert handle.values(4) == [2, 6, 18, 54, 162]
    killed = classify(Operator([-3, 1]), handle)
    assert isinstance(killed, CofiniteZero) and killed.cert.is_proved
    kept = classify(Operator([-2, 1]), handle)
    assert isinstance(kept, FiniteRoots) and kept.cert.is_proved
    assert kept.lower_bound == Fraction(1, 2)      # lead 2 over twice the mass 2
    assert solve_inhomogeneous(Operator([-2, 1]), handle, 54)[0] == scan(
        Operator([-2, 1]), handle, 54)
    problem = E.EquationProblem(handle, [[1], [1], [-1]], 0)
    description = E.solve_full(problem)
    assert description.certificate.is_proved
    assert description.instantiate(12) == {t for t, _ in E.brute_force(problem, 12)}


@pytest.mark.parametrize("c", [1, 0, -2])
def test_order_one_recurrence_below_two_is_not_geometric(c, tmp_path, capsys):
    # 5, 5c, 5c^2, ... does not increase: no exact expansion, so no Proved
    # verdict is given without evaluating a term, and the ratio limit refuses
    spec = SequenceSpec.recurrence([c], [5])
    assert S.power_base_expansion(spec) is None
    for coeffs in ([1], [-1, 1]):
        with pytest.raises(ValueError, match="^not enough terms for a ratio scan$"):
            classify(Operator(coeffs), make_handle(spec))
    data = E._completeness_data(make_handle(spec), [Operator([1]), Operator([-1])], 0, 2)
    assert not data.cert.is_proved
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(spec.to_json()))
    for op in ("[1]", "[-1,1]"):
        assert cli.main(["classify", "--seq", str(path), "--op", op]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: not enough terms for a ratio scan\n"


@pytest.mark.parametrize("spec,ops,z", [
    (SequenceSpec.power(2), [[1], [1]], 2 ** 30 + 2 ** 5),
    (SequenceSpec.power(2), [[1], [-1]], 2 ** 35 - 2 ** 3),
    (SequenceSpec.recurrence([1, 1], [1, 2]), [[1], [1]], 10 ** 6),
    (SUM23, [[1], [1], [1]], 3 ** 20),
])
def test_large_target_lies_below_the_anchor_bound(spec, ops, z):
    handle = make_handle(spec)
    problem = E.EquationProblem(handle, ops, z)
    s = problem.s
    data = E._completeness_data(handle, problem.operators, z, s)
    assert data.cert.is_proved
    # the anchor bound L already outweighs the target (no extension needed)
    anchor = data.box - (s - 1) * (data.gap + 1)
    _, _, u_star, _ = E._proved_growth(handle, sum(op.mass() for op in problem.operators))
    assert u_star * handle.eval(anchor) > abs(z)
    description = E.solve_full(problem)
    assert description.instantiate(40) == {t for t, _ in E.brute_force(problem, 40)}


def test_completeness_box_is_capped_at_the_anchor_budget():
    # x1 + x2 + x3 = x4 + x5 + x6 + 10^9 on Fibonacci: the gap bound is
    # proved, but the box it gives lies past ANCHOR_SCAN_BUDGET, so the box is
    # the budget under a BoundedCheck.  Only the bounds are computed: the
    # solve itself has no work budget.
    ops = [Operator([1])] * 3 + [Operator([-1])] * 3
    z = 10 ** 9
    data = E._completeness_data(FIB, ops, z, 6)
    assert (data.gap, data.box, data.cert) == \
        (61, E.ANCHOR_SCAN_BUDGET, BoundedCheck(E.ANCHOR_SCAN_BUDGET))
    _, n0, _, cutoff = E._proved_growth(FIB, 6)
    k_dom = cutoff(5 * data.gap)
    assert k_dom is not None
    assert max(n0, k_dom) + data.gap + 2 + 5 * (data.gap + 1) > E.ANCHOR_SCAN_BUDGET
