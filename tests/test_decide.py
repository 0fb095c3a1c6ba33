"""Three-valued decision procedure: verdicts, witnesses, axiom checks.

Soundness is the load-bearing property: every True must come with a witness
that passes direct evaluation, every False must rest on fully proved
certificates, and anything else must be explicitly UnknownBeyond.
"""

import random
import time

import pytest

from regseq import decide as decide_module
from regseq import formulas as F
from regseq.certs import Proved
from regseq.congruence import PeriodicIndexSet
from regseq.decide import (BOUNDED_ASSIGNMENT_CAP, STREAM_HEAD, OutOfFragment, Verdict,
                           _by_index_sum, _independent_disjunct, decide, verify_ax5,
                           verify_ax6)
from regseq.equations import EquationProblem, solve_full
from regseq.operators import Operator
from regseq.sequences import SequenceSpec, make_handle

POW2 = make_handle(SequenceSpec.power(2))
FIB = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
TABLE = make_handle(SequenceSpec.table([], generator="2**n + n"))


def run(text, handle=POW2, budget=64):
    return decide(F.parse(text), handle, budget=budget)


def check_witness(text, verdict, handle):
    assignment = {var: value for var, (sort, value) in verdict.witness.items()
                  if sort == "index"}
    int_env = {var: value for var, (sort, value) in verdict.witness.items()
               if sort == "value"}
    node = F.parse(text)
    for var, value in int_env.items():
        node = substitute_raw(node, var, value)
    assert F.eval_ground(node, handle, assignment)


def substitute_raw(node, var, value):
    # bounded quantifiers disappear under decide's integer expansion; the
    # witness records the chosen value, re-checked here by stripping the
    # binder and substituting on the normalized body
    if isinstance(node, F.ExistsBounded) and node.var == var:
        return F._substitute(F.normalize(node.body), var, value)
    if isinstance(node, (F.ExistsBounded, F.ExistsInR)):
        inner = substitute_raw(node.body, var, value)
        if isinstance(node, F.ExistsBounded):
            return F.ExistsBounded(node.var, node.bound, inner)
        return F.ExistsInR(node.var, inner)
    return node


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


def test_finite_exhaustion_needs_whole_sets_not_heads():
    # x, y range over Proved finite sets of size + 1 members, the last of
    # them far above the rest; the literals hold only at x = far, y != x.
    # Past the head depth that member is never tried, so the search must not
    # call the sets exhausted.  Within it every member is tried and, with
    # the far member left out of the sets, the search refutes.
    x, y = F.LinTerm(0, {"x": (1,)}), F.LinTerm(0, {"y": (1,)})
    side = [F.NeqZ(x.add(y.scale(-1)))]
    for size, far_member, want in ((STREAM_HEAD + 6, True, "unknown"),
                                   (STREAM_HEAD - 4, False, "false")):
        far = size + 3
        lits = side + [F.EqZ(x.plus_const(-2 ** far))]
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
