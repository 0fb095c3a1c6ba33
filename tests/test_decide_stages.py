"""decide's witness search on one equation: exact early stages first.

A stage of side at most equations.BOUNDED_BOX is solved from the equation
itself by one box scan; the description is built by solve_full only when the
search goes past those stages or has to refute.  The reference below is the
search that builds the description first, and the verdicts and witnesses of
both must agree.
"""

import itertools
import json
import random

import pytest

from regseq import certs, cli
from regseq import decide as decide_module
from regseq import formulas as F
from regseq.decide import CANDIDATE_CAP, _by_index_sum, _description_empty, \
    _StagedSolutions, decide
from regseq.equations import BOUNDED_BOX, EquationProblem, solve_full
from regseq.operators import Operator
from regseq.sequences import SequenceSpec, make_handle

SPECS = {
    "fib": SequenceSpec.recurrence([1, 1], [1, 2]),
    "trib": SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]),
    "pell": SequenceSpec.recurrence([1, 2], [1, 2]),
    "pow2": SequenceSpec.power(2),
    "sum23": SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)]),
    "factorial": SequenceSpec.factorial(),
    "table": SequenceSpec.table([], generator="2**n + n"),
}


def handle(name):
    return make_handle(SPECS[name])


def reference_equation_disjunct(handle, rvars, lits, constraints, side, eq, budget):
    """The search that builds the whole description before it looks for a
    witness, as decide did before the exact stages."""
    evars = eq.lin.variables()
    others = [v for v in rvars if v not in evars]
    problem = EquationProblem(handle, [Operator(eq.lin.ops[v]) for v in evars],
                              -eq.lin.const)
    description = solve_full(problem)
    other_heads = [constraints[v].head(8) for v in others]
    checked = 0
    for tup in reference_by_index_sum(description, max(16, budget)):
        if any(not constraints[v].contains(n) for v, n in zip(evars, tup)):
            continue
        for combo in itertools.product(*other_heads):
            assignment = dict(zip(evars, tup))
            assignment.update(zip(others, combo))
            checked += 1
            if F._eval(F.And(list(lits)), handle, dict(assignment), budget):
                return ("true", {v: ("index", n) for v, n in assignment.items()})
            if checked > CANDIDATE_CAP:
                return ("unknown", "equation-candidates-at-budget")

    empty, cert_or_reason = _description_empty(handle, description,
                                               constraints, evars)
    if empty:
        used = [cert_or_reason] + [constraints[v].cert for v in rvars]
        if all(c.is_proved for c in used):
            return ("false", certs.merge(used, reason="equation-completeness"))
        return ("unknown", "equation-emptiness-at-budget")
    return ("unknown", cert_or_reason)


def reference_by_index_sum(description, window):
    done = -1
    side = 8
    while side < window:
        yield from sorted((t for t in description.instantiate(side)
                           if done < sum(t) <= side), key=lambda t: (sum(t), t))
        done = side
        side *= 2
    yield from sorted((t for t in description.instantiate(window) if sum(t) > done),
                      key=lambda t: (sum(t), t))


OPERATORS = [("%s", [1]), ("2*%s", [2]), ("f[1,1](%s)", [1, 1]),
             ("f[-1,1](%s)", [-1, 1]), ("f[1,-2](%s)", [1, -2]),
             ("f[2,0,-1](%s)", [2, 0, -1])]
VARS = ["x", "y", "z", "w"]


def random_sentence(rng, h):
    """An existential sentence with one equation of 2 to 4 unknowns, signed
    operators of degree 0 to 2, a target that is 0, attained at small
    indices or random, and side literals x != y, Dm(v) and an extra
    variable."""
    s = rng.randint(2, 4)
    evars = VARS[:s]
    terms, total = [], 0
    for i, v in enumerate(evars):
        sign = 1 if i == 0 or rng.random() < 0.5 else -1
        form, coeffs = rng.choice(OPERATORS)
        terms.append(("+ " if sign > 0 else "- ") + form % v)
        n = rng.randint(0, 6)
        total += sign * sum(c * h.eval(n + j) for j, c in enumerate(coeffs))
    z = rng.choice([0, total, rng.randint(-40, 40)])
    lits = ["%s = %d" % (" ".join(terms)[2:], z)]
    rvars = list(evars)
    if rng.random() < 0.4:
        lits.append("%s != %s" % tuple(rng.sample(evars, 2)))
    if rng.random() < 0.3:
        lits.append("D%d(%s)" % (rng.randint(2, 3), rng.choice(evars)))
    if rng.random() < 0.2:
        rvars.append("u")
        lits.append("u != %s" % rng.choice(evars))
    return "".join("E %s in R. " % v for v in rvars) + " & ".join(lits)


def refuse(problem):
    raise AssertionError("solve_full called")


def answer(text, name, budget=64):
    h = handle(name)
    return decide(F.parse(text), h, budget=budget).to_json(h)


def test_witnesses_and_verdicts_match_the_description_first_search(monkeypatch):
    rng = random.Random(20171113)
    battery = [(name, random_sentence(rng, handle(name)), 64)
               for name in SPECS for _ in range(6)]
    # witnesses past the exact stages, at index sums 58 and 41, and a budget
    # that walks two description stages
    fib, pow2 = handle("fib"), handle("pow2")
    battery += [("fib", "E x in R. E y in R. x - y = %d" % fib.eval(29), 64),
                ("pow2", "E x in R. E y in R. x + y = %d" % (2 ** 40 + 2), 64),
                ("pow2", "E x in R. E y in R. x + y = %d" % (2 ** 40 + 2), 200)]
    new = [answer(text, name, budget) for name, text, budget in battery]
    monkeypatch.setattr(decide_module, "_equation_disjunct",
                        reference_equation_disjunct)
    old = [answer(text, name, budget) for name, text, budget in battery]
    for (name, text, budget), a, b in zip(battery, new, old):
        assert a == b, (name, text, budget)
    kinds = {a["verdict"] for a in new}
    assert kinds == {"True", "False", "UnknownBeyond"}, kinds


def test_candidate_cap_is_crossed_inside_an_exact_stage(monkeypatch):
    # z + w != x + y fails on every solution, and u, v multiply each tuple
    # by 64 combinations, so the cap falls within index sum 32
    text = ("E x in R. E y in R. E z in R. E w in R. E u in R. E v in R. "
            "x + y = z + w & z + w != x + y & u != v")
    want = {"horizon": 64, "reason": "equation-candidates-at-budget",
            "verdict": "UnknownBeyond"}
    monkeypatch.setattr(decide_module, "_equation_disjunct",
                        reference_equation_disjunct)
    assert answer(text, "fib") == want

    monkeypatch.undo()
    monkeypatch.setattr(decide_module, "solve_full", refuse)
    assert answer(text, "fib") == want


def test_witness_in_the_first_stage_builds_no_description(monkeypatch):
    monkeypatch.setattr(decide_module, "solve_full", refuse)
    text = "E x in R. E y in R. E z in R. x + y = z + 3 & x != y"
    for name in ("fib", "trib", "table"):
        verdict = answer(text, name)
        assert verdict["verdict"] == "True", name
        assert sum(int(e["index"]) for e in verdict["witness"].values()) <= 8
    with pytest.raises(AssertionError, match="solve_full called"):
        answer("E x in R. E y in R. x + y = 7", "pow2")


# (sequence, operators, target): Proved descriptions (fib, Pell, pow2,
# 2^n + 3^n) and bounded ones (tribonacci, the 2**n + n table), s = 2 to 4,
# operators of degree up to 2, and one that fib kills (a free case)
STAGED = [
    ("fib", [[1], [1], [-1]], 0), ("fib", [[1, 1], [-1]], 0),
    ("fib", [[1, 1, -1], [1], [-1]], 0), ("fib", [[1], [-1], [1], [-1]], 3),
    ("pell", [[1], [1], [-1], [-1]], 0), ("pell", [[2], [-1], [1]], 1),
    ("pow2", [[1], [1], [-1]], 0), ("pow2", [[2, -1], [1]], 5),
    ("sum23", [[1], [1], [-1]], 0), ("trib", [[1], [1], [-1]], 0),
    ("trib", [[2], [1], [-1]], 0), ("trib", [[1], [-1], [1], [-1]], 3),
    ("table", [[1], [1], [-1]], 0), ("table", [[2, -3, 1], [-2, 3, -1]], 0),
    ("table", [[1], [1], [1], [-1]], 4),
]


@pytest.mark.parametrize("case", range(len(STAGED)))
def test_exact_stages_are_the_description_stages(case):
    name, ops, z = STAGED[case]
    problem = EquationProblem(handle(name), ops, z)
    description = solve_full(problem)
    staged = _StagedSolutions(EquationProblem(handle(name), ops, z))
    assert 32 <= BOUNDED_BOX
    for side in (8, 16, 32):
        box = list(staged.instantiate(side))
        assert len(box) == len(set(box))
        assert set(box) == description.instantiate(side), (name, ops, z, side)
    assert staged._description is None
    for window in (16, 20, 40, 64):
        assert list(_by_index_sum(staged, window)) == \
            list(_by_index_sum(description, window)), (name, ops, z, window)


def test_stage_battery_covers_proved_and_bounded_descriptions():
    proved = {solve_full(EquationProblem(handle(name), ops, z)).certificate.is_proved
              for name, ops, z in STAGED}
    assert proved == {True, False}


def test_short_table_witness_in_the_first_stage(tmp_path, capsys):
    # With 11 values and no generator, solve_full would need r_11 and exit 3;
    # a witness in the first stage needs none of them.
    seq = tmp_path / "table.json"
    seq.write_text(json.dumps({"kind": "table",
                               "values": [str(2 ** n + n) for n in range(11)]}),
                   encoding="utf-8")
    found = tmp_path / "found.trf"
    found.write_text("E x in R. E y in R. E z in R. x + y = z + 1", encoding="utf-8")
    assert cli.main(["decide", "--seq", str(seq), "--formula", str(found)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "True"
    assert {v: w["index"] for v, w in report["witness"].items()} == \
        {"x": "0", "y": "0", "z": "0"}
    # past the first stage the search still needs r_11: the same exit 3
    missing = tmp_path / "missing.trf"
    missing.write_text("E x in R. E y in R. x + y = 5", encoding="utf-8")
    assert cli.main(["decide", "--seq", str(seq), "--formula", str(missing)]) == 3
    err = capsys.readouterr().err
    assert "table sequence has 11 values and no generator (asked for r_11)" in err
