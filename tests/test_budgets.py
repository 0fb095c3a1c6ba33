"""Inputs whose cost used to grow without a stated budget, and the one scan
behind both kinds of Mann equation."""

import inspect
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from regseq import cli
from regseq import formulas as F
from regseq import sequences as sq
from regseq.congruence import MAX_STATES, BoundedProfileError, profile
from regseq.decide import CANDIDATE_CAP, DECIDE_BUDGET, Verdict, _smallest_combinations, \
    decide
from regseq.mann import MannMonoid, solve_unit
from regseq.sequences import CacheBudgetExceeded, SequenceSpec, make_handle

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


def _decide_cli(tmp_path, text, spec='{"kind": "power", "q": "2"}'):
    formula = tmp_path / "formula.txt"
    formula.write_text(text)
    seq = tmp_path / "seq.json"
    seq.write_text(spec)
    return cli.main(["decide", "--seq", str(seq), "--formula", str(formula)])


# the text, and the index of its least witness on pow2
LARGE_ATOMS = [("E x in R. x > 200000", 18), ("E x in R. !D200000(x)", 0)]


def _least_witness(text, index, handle=POW2):
    """Whether the one-variable sentence holds at index and at no smaller
    one."""
    matrix = F.normalize(F.parse(text)).body
    holds = [F.eval_ground(matrix, handle, {"x": n}) for n in range(index + 1)]
    return holds[-1] and not any(holds[:-1])


@pytest.mark.parametrize("text,index", LARGE_ATOMS, ids=[t for t, _ in LARGE_ATOMS])
def test_large_atoms_answer(tmp_path, capsys, text, index):
    # t > c and !Dm(t) are one literal each, whatever c or m
    assert _decide_cli(tmp_path, text) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness == {"x": {"element": str(2 ** index), "index": str(index)}}
    assert _least_witness(text, index)


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


def test_negated_divisibilities_of_any_modulus_answer(tmp_path, capsys):
    # each !Dm(t) is one literal, so two of them answer whatever their
    # moduli, and so does the dual A x of their Or
    for m in (2049, 2050, 200000):
        text = "E x in R. !D%d(x) | !D%d(x + 1)" % (m, m + 1)
        assert _decide_cli(tmp_path, text) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness == {"x": {"element": "1", "index": "0"}}
        assert _least_witness(text, 0)
        verdict = decide(F.parse("A x in R. D%d(x) & D%d(x + 1)" % (m + 1, m)), POW2)
        assert verdict.to_json() == {"verdict": "False", "certificate": {
            "level": "Proved", "reason": "witnessed-dual"}}
    # x + 1 is odd from r_1 = 2 on
    text = "E x in R. !D2(x + 1) & !D200000(x)"
    assert decide(F.parse(text), POW2).witness == {"x": ("index", 1)}
    assert _least_witness(text, 1)
    # a modulus past congruence.MAX_STATES: the literal scans its window
    text = "E x in R. !D1000003(x + 1) & x > 4000"
    assert _decide_cli(tmp_path, text, FIB_SPEC) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness == {"x": {"element": "4181", "index": "17"}}
    assert _least_witness(text, 17, make_handle(SequenceSpec.recurrence([1, 1], [1, 2])))


FIB_SPEC = '{"kind": "recurrence", "coeffs": ["1", "1"], "initials": ["1", "2"]}'


def test_a_far_order_atom_answers_with_a_checked_witness(tmp_path, capsys):
    # one scan to the growth cutoff of 10^3000 finds every value of [0, c]
    c = 10 ** 3000
    assert _decide_cli(tmp_path, "E x in R. x > %d" % c, FIB_SPEC) == 0
    out = json.loads(capsys.readouterr().out)
    index = int(out["witness"]["x"]["index"])
    fib = make_handle(SequenceSpec.from_json(json.loads(FIB_SPEC)))
    element = int(out["witness"]["x"]["element"])
    assert element == fib.eval(index) > c >= fib.eval(index - 1)
    assert out["certificate"] == {"level": "Proved", "reason": "checked-witness"}


CACHE_REFUSED = {"horizon": "64", "reason": "cache-budget-exceeded",
                 "verdict": "UnknownBeyond"}


def test_a_far_order_atom_past_the_cache_budget_is_unknown(tmp_path, capsys, monkeypatch):
    # the terms up to 10^3000 take about 72 million bits: the refusal leaves
    # the one disjunct undecided
    monkeypatch.setattr(sq, "MAX_CACHE_BITS", 100_000)
    assert _decide_cli(tmp_path, "E x in R. x > %d" % 10 ** 3000, FIB_SPEC) == 2
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert json.loads(captured.out) == CACHE_REFUSED


@pytest.mark.parametrize("text", ["E x in R. x = 1 | x + 1 in R",
                                  "E x in R. x + 1 in R | x = 1"])
def test_a_true_disjunct_wins_over_a_cache_refusal(text, monkeypatch):
    # r_n = 10^(99 n) takes about 329 n bits: the budget stops the window
    # scan of x + 1 in R near n = 300, before the window of 400
    monkeypatch.setattr(sq, "MAX_CACHE_BITS", 100_000)
    big = make_handle(SequenceSpec.power(10 ** 99))
    verdict = decide(F.parse(text), big, budget=400)
    assert verdict.is_true() and verdict.witness == {"x": ("index", 0)}
    refused = decide(F.parse("E x in R. x + 1 in R | x = 2"), big, budget=400)
    assert refused.to_json() == dict(CACHE_REFUSED, horizon=400)


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


def test_congruence_walk_stops_at_the_state_cap(tmp_path, capsys):
    # 2^n modulo 2^k - 1 has period exactly k, so its walk takes k states
    assert MAX_STATES == 10_000
    assert profile(POW2, 2 ** MAX_STATES - 1).p == MAX_STATES
    with pytest.raises(BoundedProfileError, match="MAX_STATES") as info:
        profile(POW2, 2 ** (MAX_STATES + 1) - 1)
    assert info.value.prefix == [2 ** n for n in range(MAX_STATES)]
    # the Pisano period of 10007 is 20016; decide scans its window instead
    fib = {"kind": "recurrence", "coeffs": ["1", "1"], "initials": ["1", "2"]}
    handle = make_handle(SequenceSpec.from_json(fib))
    with pytest.raises(BoundedProfileError):
        profile(handle, 10007)
    verdict = decide(F.parse("E x in R. D10007(x + %d)" % (10007 - 89)), handle)
    assert verdict.is_true() and verdict.witness["x"] == ("index", 9)
    seq = tmp_path / "fib.json"
    seq.write_text(json.dumps(fib), encoding="utf-8")
    start = time.perf_counter()
    code = cli.main(["periodicity", "--seq", str(seq), "--modulus", "10007"])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: no state repeats within %d steps" % MAX_STATES)
    assert err.count("\n") == 1


def test_factorial_walk_ends_at_its_first_zero():
    # (n + 2)! mod the prime 9973 is 0 from n = 9971 on; the walk stops at
    # the first repeat, well under the cap, as the residue 0 drops its counter
    prof = profile(make_handle(SequenceSpec.factorial()), 9973)
    assert (prof.rho, prof.p) == (9971, 1)


def test_benchmark_moduli_stay_under_the_state_cap():
    specs = [SequenceSpec.power(2), SequenceSpec.factorial(),
             SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)])]
    specs += [SequenceSpec.recurrence(c, i) for c, i in
              (([1, 1], [1, 2]), ([1, 2], [1, 2]), ([1, 1, 1], [1, 2, 4]))]
    for spec in specs:
        for m in range(2, 25):
            assert profile(make_handle(spec), m).p <= MAX_STATES


def test_term_cache_stops_at_its_bit_budget(monkeypatch):
    # r_n = 2^n has n + 1 bits, so r_0..r_9 take 55 bits and r_10 11 more
    monkeypatch.setattr(sq, "MAX_CACHE_BITS", 55)
    handle = make_handle(SequenceSpec.power(2))
    assert handle.eval(9) == 512
    with pytest.raises(CacheBudgetExceeded, match=r"r_0\.\.r_10 exceed the cache budget of 55"):
        handle.eval(10)
    assert len(handle.cache) == 10 and handle.values(9)[-1] == 512


def test_factorial_eval_at_the_n_ceiling_fits_the_cache_budget(tmp_path, capsys):
    # r_0..r_10000 of (n + 2)! take about 531 Mbit of the 1024 Mbit budget
    assert sq.MAX_CACHE_BITS == 2 ** 30
    seq = tmp_path / "factorial.json"
    seq.write_text(json.dumps({"kind": "factorial"}), encoding="utf-8")
    assert cli.main(["eval", "--seq", str(seq), "--n", "10000"]) == 0
    assert len(json.loads(capsys.readouterr().out)["element"]) == 35668


@pytest.mark.parametrize("text", ["E x in R. x + 1 in R & x > 5", "E x in R. x + 1 in R"])
def test_large_base_scan_is_unknown_at_the_cache_budget(tmp_path, text):
    # r_n = 10^(99 n) has about 329 n bits: the budget stops the InR scan
    # near n = 2,550, where the whole window would need gigabytes
    seq = tmp_path / "big.json"
    seq.write_text(json.dumps({"kind": "power", "q": str(10 ** 99)}), encoding="utf-8")
    formula = tmp_path / "next.trf"
    formula.write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "regseq.cli", "decide", "--seq", str(seq),
                           "--formula", str(formula), "--budget", "10000"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr == "" and proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == dict(CACHE_REFUSED, horizon="10000")
