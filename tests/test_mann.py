"""Equations over finitely generated multiplicative monoids.

The frozen sets below were derived by hand before the implementation: for
x1 - x2 = 1 over <2,3> the consecutive pairs are (2,1), (3,2), (4,3), (9,8);
for x1 + x2 = x3 the base families are (1,1,2), (1,2,3), (1,3,4), (1,8,9).
"""

import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from regseq import cli, jsonio, mann
from regseq.mann import (DEFAULT_EXPONENT, SCAN_CAP, WINDOW_BITS, MannMonoid, _canonical,
                         _canonical_base, _largest_window, _scan, _scan_window, _slot_groups,
                         induced_trace, solve_homogeneous, solve_unit)


M23 = MannMonoid([2, 3])


def test_enumerate_two_three():
    assert M23.enumerate(12) == [1, 2, 3, 4, 6, 8, 9, 12]


def test_enumerate_six_ten():
    assert MannMonoid([6, 10]).enumerate(100) == [1, 6, 10, 36, 60, 100]


def test_generators_validated():
    with pytest.raises(ValueError):
        MannMonoid([1, 2])
    with pytest.raises(ValueError):
        MannMonoid([0])
    MannMonoid([-2, 3])  # negatives allowed


def test_membership_decided_exactly():
    for v in range(1, 400):
        assert M23.contains(v) == (v in set(M23.enumerate(400))), v
    assert not M23.contains(0)
    assert not M23.contains(-6)
    neg = MannMonoid([-2])
    assert neg.contains(4) and neg.contains(-8) and not neg.contains(8)


def test_unit_equation_consecutive_pairs():
    sols, cert = solve_unit([1, -1], M23, 30)
    assert sols == [(2, 1), (3, 2), (4, 3), (9, 8)]
    assert cert.n == 30


def test_unit_equation_single_variable():
    sols, _cert = solve_unit([1], M23, 10)
    assert sols == [(1,)]


def test_homogeneous_four_base_families():
    sols = solve_homogeneous([1, 1, -1], M23, 20)
    assert sols.base == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 8, 9)]
    assert sols.splits == []
    assert sols.certificate.n == 20


def test_homogeneous_empty_when_ratio_unreachable():
    sols = solve_homogeneous([2, -1], MannMonoid([3]), 15)
    assert sols.base == []


def test_coverage_up_to_scaling_and_slot_permutation():
    sols = solve_homogeneous([1, 1, -1], M23, 20)
    assert sols.covers((2, 6, 8))        # 2 * (1, 3, 4)
    assert sols.canonical((2, 6, 8)) == (1, 3, 4)
    assert sols.covers((2, 1, 3))        # swap of equal-coefficient slots
    assert not sols.covers((2, 3, 5))    # 5 is not in the monoid


def test_scan_completeness_at_window():
    sols = solve_homogeneous([1, 1, -1], M23, 12)
    assert sols.family_tuples() == set(sols.scanned)
    # and every scanned tuple actually solves the equation
    for tup in sols.scanned:
        assert tup[0] + tup[1] - tup[2] == 0


def test_family_soundness_random_multipliers():
    sols = solve_homogeneous([1, 1, -1], M23, 20)
    rng = random.Random(1729)
    multipliers = rng.sample([m for m in M23.enumerate(10 ** 6) if m > 1], 20)
    for m in multipliers:
        for base in sols.base:
            scaled = sols.scale(base, m)
            assert scaled[0] + scaled[1] - scaled[2] == 0
            assert all(M23.contains(v) for v in scaled)


def test_distinct_coefficients_keep_fractional_ratio_families():
    # x1 + 2 x2 = 3 x3 has solutions whose ratios leave the monoid order,
    # e.g. (4, 1, 2); the scan must still find their canonical bases
    sols = solve_homogeneous([1, 2, -3], M23, 12)
    assert (4, 1, 2) in sols.base
    assert (1, 1, 1) in sols.base
    for b in sols.base:
        assert b[0] + 2 * b[1] - 3 * b[2] == 0


def test_canonical_is_idempotent_and_permutation_invariant():
    sols = solve_homogeneous([1, 1, -1], M23, 12)
    rng = random.Random(42)
    for tup in rng.sample(sols.scanned, min(25, len(sols.scanned))):
        c = sols.canonical(tup)
        assert sols.canonical(c) == c
        swapped = (tup[1], tup[0], tup[2])
        assert sols.canonical(swapped) == c


def test_degenerate_splits_for_four_variables():
    sols = solve_homogeneous([1, -1, 1, -1], M23, 6)
    assert sols.splits, "balanced four-variable equation must split"
    for split in sols.splits:
        assert 2 <= len(split.positions) <= 2
        assert split.left.base and split.right.base
    # a known degenerate solution: (2, 2, 9, 9) vanishes pairwise
    positions = [sp.positions for sp in sols.splits]
    assert (0, 1) in positions


def test_nondegenerate_excludes_vanishing_subsums():
    sols = solve_homogeneous([1, -1, 1, -1], M23, 4)
    for tup in sols.scanned:
        assert tup[0] - tup[1] != 0
        assert tup[0] - tup[1] + tup[2] != 0
        assert tup[2] - tup[3] != 0


def test_induced_trace_round_trip():
    trace = induced_trace([1, 1, -1], M23, 12)
    assert trace.evaluate() == set(trace.solution_set.scanned)
    lines = trace.render()
    assert len(lines) == len(trace.solution_set.base)
    assert all(line.startswith("x1 in M") for line in lines)


def test_kfold_sumsets_grow_strictly():
    # the monoid is multiplicatively closed but additively sparse: iterated
    # sumsets keep growing inside a fixed window
    bound = 10 ** 4
    elements = set(M23.enumerate(bound))
    current = set(elements)
    sizes = [len(current)]
    for _ in range(3):
        current = {a + b for a in current for b in elements if a + b <= bound}
        sizes.append(len(current))
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_default_exponent_is_reasonable():
    assert DEFAULT_EXPONENT >= 32


# ---------------------------------------------------------------------------
# The scan and the canonical form against plain reference versions
# ---------------------------------------------------------------------------

EQUIVALENCE_MONOIDS = ([2, 3], [-2, 3], [6, 10], [2, 4], [4, 6, 9], [2, 3, 5])


def reference_canonical(coeffs, monoid, tup):
    """The canonical form as first written: every monoid element up to the
    largest coordinate is a candidate divisor."""
    out = list(tup)
    for idxs in _slot_groups(coeffs):
        vals = sorted(out[i] for i in idxs)
        for i, v in zip(idxs, vals):
            out[i] = v
    best = tuple(out)
    divisors = [m for m in monoid.enumerate(max(abs(v) for v in best) or 1)
                if m > 1]
    for m in sorted(divisors, reverse=True):
        if all(v % m == 0 and monoid.contains(v // m) for v in best):
            return tuple(v // m for v in best)
    return best


def reference_scan(coeffs, target, elements):
    """Every non-degenerate solution tuple, in itertools.product order."""
    out = []
    for tup in itertools.product(elements, repeat=len(coeffs)):
        terms = [a * x for a, x in zip(coeffs, tup)]
        if sum(terms) == target and not any(
                sum(terms[i] for i in sub) == 0
                for k in range(1, len(terms))
                for sub in itertools.combinations(range(len(terms)), k)):
            out.append(tup)
    return out


@pytest.mark.parametrize("gens", EQUIVALENCE_MONOIDS)
def test_canonical_matches_reference(gens):
    monoid = MannMonoid(gens)
    rng = random.Random("canonical:%s" % gens)
    window = monoid.elements_with_exponents(4)
    small = [v for v in window if abs(v) <= 1000]
    cases = []
    for coeffs in ([1, 1, -1], [1, 2, -1], [1, -1, 1, -1], [2, -1]):
        sols = solve_homogeneous(coeffs, monoid, 3)
        cases += [(coeffs, t) for t in sols.scanned]
        for _ in range(40):
            # non-solutions, scaled copies and arbitrary integers
            tup = tuple(rng.choice(small) for _ in coeffs)
            cases.append((coeffs, tup))
            cases.append((coeffs, tuple(rng.choice(small) * v for v in tup)))
            cases.append((coeffs, tuple(rng.randint(-500, 500) or 1
                                        for _ in coeffs)))
    cases.append(([1, 1, -1], (0, 0, 0)))
    cases.append(([1, 1, -1], (0, 6, 12)))
    top = max(math.gcd(*t) for _, t in cases)
    divisors = monoid.enumerate(top)
    for coeffs, tup in cases:
        want = reference_canonical(coeffs, monoid, tup)
        assert _canonical(coeffs, monoid, tup) == want, (coeffs, tup)
        assert _canonical(coeffs, monoid, tup, divisors) == want, (coeffs, tup)


# The equivalence monoids, three whose generators are dependent, and one in
# which 5, the gcd of the hit (10, 15) of 3 x1 - 2 x2 = 0, is no element
# although 10 / 5 and 15 / 5 are.
CANONICAL_BASE_MONOIDS = EQUIVALENCE_MONOIDS + ([2, 3, 6], [2, 12, 18], [-6, 4, 9],
                                                [2, 3, 10, 15])


@pytest.mark.parametrize("gens", CANONICAL_BASE_MONOIDS)
def test_canonical_base_matches_per_hit_canonical(gens):
    monoid = MannMonoid(gens)
    for coeffs in ([3, -2], [1, 1, -1], [1, 2, -1], [1, -1, -1], [1, 2, -3],
                   [1, -1, 1, -1], [1, 1, 1, -1], [1, 2, -1, -2]):
        for e in (2,) if len(coeffs) + len(gens) > 6 else (2, 4):
            window = _scan_window(monoid, e, len(coeffs))
            scanned = _scan(coeffs, 0, window)
            groups = _slot_groups(coeffs)
            want = sorted({_canonical(coeffs, monoid, t, None, groups) for t in scanned})
            assert _canonical_base(coeffs, monoid, scanned, window, groups) == want, \
                (coeffs, e)
            assert solve_homogeneous(coeffs, monoid, e).base == want, (coeffs, e)


@pytest.mark.parametrize("gens, coeffs, e", [([-2, 3], [1, 1, -1], 8),
                                             ([2, 12, 18], [1, 2, -1], 4),
                                             ([2, 3, 10, 15], [3, -2], 2)])
def test_hits_the_window_cannot_settle_go_through_canonical(monkeypatch, gens, coeffs, e):
    # 2 is no element of <-2, 3>, 6 none of <2, 12, 18> and 5 none of
    # <2, 3, 10, 15>: hits with such a gcd fall back
    calls = []

    def counting(*args):
        calls.append(args[2])
        return _canonical(*args)
    monkeypatch.setattr(mann, "_canonical", counting)
    sols = solve_homogeneous(coeffs, MannMonoid(gens), e)
    assert 0 < len(calls) < len(sols.scanned)
    assert set(calls) <= set(sols.scanned)


def test_a_solve_the_window_settles_enumerates_no_monoid(monkeypatch):
    def refuse(self, bound):
        raise AssertionError("enumerate(%d)" % bound)
    monkeypatch.setattr(MannMonoid, "enumerate", refuse)
    sols = solve_homogeneous([1, 1, -1], M23, 16)
    assert len(sols.scanned) > 100
    assert sols.base == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 8, 9)]


@pytest.mark.parametrize("gens, coeffs, e", [([4, 6, 9], [1, -1, 1, -1], 2),
                                             ([2, 12, 18], [1, 2, -1], 2),
                                             ([2, 12, 18], [1, 2, -1], 3),
                                             ([2, 12, 18], [1, 2, -1], 4)])
def test_dependent_generators_keep_their_reference_base(gens, coeffs, e):
    """Dividing every hit by the scaled copies of bases found before it is
    no canonical form over dependent generators: it changes both bases, and
    over <2, 12, 18> it loses (8, 12, 32)."""
    monoid = MannMonoid(gens)
    sols = solve_homogeneous(coeffs, monoid, e)
    assert sols.base == sorted({reference_canonical(coeffs, monoid, t)
                                for t in sols.scanned})
    if gens == [2, 12, 18]:
        assert (8, 12, 32) in sols.base


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_matches_product_order_reference(n):
    rng = random.Random("scan:%d" % n)
    for gens in ([2, 3], [-2, 3], [2, 4], [2, 3, 5]):
        # windows whose full product stays below about 50000 tuples
        e = {1: 6, 2: 6, 3: 3, 4: 2}[n] - (len(gens) > 2)
        elements = MannMonoid(gens).elements_with_exponents(e)
        for _ in range(6):
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n - 1)]
            coeffs.append(rng.choice([-6, -4, -3, -2, 2, 3, 4, 6]))
            for target in (0, 1, rng.choice([-7, -1, 2, 5, 12, 36])):
                want = reference_scan(coeffs, target, elements)
                assert _scan(coeffs, target, elements) == want, (coeffs, target)


# ---------------------------------------------------------------------------
# The scan budget refuses a window before it is built in full
# ---------------------------------------------------------------------------

def test_largest_window_is_the_integer_root():
    assert _largest_window(1) is None
    for n in range(2, 9):
        limit = _largest_window(n)
        assert limit ** (n - 1) <= SCAN_CAP < (limit + 1) ** (n - 1)


@pytest.mark.parametrize("gens,n,bounds", [
    ([2, 3], 3, range(46, 51)),
    ([2, 4], 4, range(58, 63)),
    ([4, 6, 9], 4, range(11, 16)),
    ([2, 3, 5], 4, range(3, 8)),
    ([2, 3], 5, range(4, 10)),
])
def test_scan_window_accepts_what_the_full_window_allows(gens, n, bounds):
    monoid = MannMonoid(gens)
    for e in bounds:
        full = monoid.elements_with_exponents(e)
        if len(full) ** (n - 1) <= SCAN_CAP:
            assert _scan_window(monoid, e, n) == full
        else:
            with pytest.raises(ValueError, match="monoid scan of %d unknowns "
                                                 "exceeds the budget" % n):
                _scan_window(monoid, e, n)


def test_over_budget_scan_is_refused_before_the_window_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="monoid scan of 3 unknowns"):
            solve_homogeneous([1, 1, -1], M23, 2448)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    with pytest.raises(ValueError, match="exponent window of 6002500 elements"):
        solve_homogeneous([1, 1, -1], M23, 2449)
    # duplicates shrink {2, 4} at exponent 60 to 181 elements
    assert solve_homogeneous([1, 1, -1], MannMonoid([2, 4]), 60).base == [(1, 1, 2)]


def test_window_bits_budget_boundary():
    window = _scan_window(M23, 234, 2)
    assert len(window) == 235 ** 2
    assert sum(v.bit_length() for v in window) <= WINDOW_BITS
    assert M23.elements_with_exponents(234) == window
    message = "monoid window at exponent bound 235 exceeds %d bits" % WINDOW_BITS
    for unknowns in (1, 2):
        with pytest.raises(ValueError, match=message):
            _scan_window(M23, 235, unknowns)
    with pytest.raises(ValueError, match=message):
        M23.elements_with_exponents(235)


def test_many_unknowns_at_exponent_bound_zero(capsys):
    # the window is {1}: the one hit x_i = 1 has the vanishing pair
    # x1 - x17, which the degeneracy test finds without building all 2^31
    # sub-sums
    eq = "+".join("x%d" % i for i in range(1, 17)) + \
        "".join("-x%d" % i for i in range(17, 32)) + " = 1"
    tracemalloc.start()
    try:
        code = cli.main(["mann", "solve", "--gens", "2,3", "--eq", eq, "--exp-bound", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == []
    assert peak < 16 * 2 ** 20


def test_many_distinct_terms_meet_in_the_middle(capsys):
    # 24 unknowns 2^i x_i = 2^24 - 1 at exponent bound 0: the one hit x_i = 1
    # has 2^24 distinct sub-sums, none 0, and each half of its terms lists
    # its own 2^12
    eq = "+".join("%d x%d" % (2 ** i, i + 1) for i in range(24)) + " = %d" % (2 ** 24 - 1)
    start = time.perf_counter()
    code = cli.main(["mann", "solve", "--gens", "2,3", "--eq", eq, "--exp-bound", "0"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == [["1"] * 24]


def test_unknowns_are_capped(capsys):
    assert mann.MAX_UNKNOWNS == 32
    eq = "+".join("x%d" % i for i in range(1, 34)) + " = 1"
    code = cli.main(["mann", "solve", "--gens", "2,3", "--eq", eq, "--exp-bound", "0"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: equation has 33 unknowns; at most 32 are supported\n"
    with pytest.raises(ValueError, match="33 unknowns; at most 32"):
        solve_homogeneous([1] * 17 + [-1] * 16, M23, 0)
    # at the cap each half of a hit's terms lists 2^16 sub-sums
    assert solve_unit([Fraction(1, 32)] * 32, M23, 0)[0] == [(1,) * 32]


def test_one_unknown_window_is_refused_by_size(capsys):
    tracemalloc.start()
    try:
        code = cli.main(["mann", "solve", "--gens", "2,3", "--eq", "2 x1 = 1",
                         "--exp-bound", "2448"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == (
        "error: monoid window at exponent bound 2448 exceeds %d bits\n" % WINDOW_BITS)
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Golden battery: the answers of a reference build, byte for byte
# ---------------------------------------------------------------------------

GOLDEN_MANN = Path(__file__).parent / "data" / "mann.json"
BATTERY_TWO = ([2, 3], [2, 5], [3, 5], [2, 7], [-2, 3])
BATTERY_THREE = ([2, 3, 5], [2, 3, 7])


def mann_battery():
    """One JSON line per question: homogeneous solution sets with their
    scanned tuples, unit solutions and induced traces."""
    cases = [(g, e) for g in BATTERY_TWO for e in (8, 12)]
    cases += [(g, 4) for g in BATTERY_THREE]
    out = []
    for gens, e in cases:
        monoid = MannMonoid(gens)
        for coeffs in ([1, 1, -1], [1, 2, -1], [1, -1, -1], [1, 2, -3], [2, -1]):
            sols = solve_homogeneous(coeffs, monoid, e)
            out.append({"kind": "homogeneous", "gens": gens, "exp": e,
                        "coeffs": coeffs, "answer": sols.to_json(),
                        "scanned": sols.scanned})
        for coeffs in (["1", "-1"], ["1/2", "1/2"], ["2", "-1"], ["1", "1", "-1"]):
            tuples, cert = solve_unit([Fraction(c) for c in coeffs], monoid, e)
            out.append({"kind": "unit", "gens": gens, "exp": e,
                        "coeffs": coeffs, "solutions": tuples,
                        "certificate": cert.to_json()})
        for coeffs in ([1, 1, -1], [1, 2, -1]):
            trace = induced_trace(coeffs, monoid, e)
            out.append({"kind": "trace", "gens": gens, "exp": e,
                        "coeffs": coeffs, "answer": trace.to_json()})
    for gens in BATTERY_TWO:
        monoid = MannMonoid(gens)
        for coeffs in ([1, -1, 1, -1], [1, 1, 1, -1]):
            sols = solve_homogeneous(coeffs, monoid, 3)
            out.append({"kind": "homogeneous", "gens": gens, "exp": 3,
                        "coeffs": coeffs, "answer": sols.to_json(),
                        "scanned": sols.scanned})
    return "".join(jsonio.dumps(entry) + "\n" for entry in out)


def test_mann_battery_matches_golden_answers():
    assert mann_battery() == GOLDEN_MANN.read_text(encoding="utf-8")


def test_slot_groups_are_computed_once_per_scan(monkeypatch):
    calls = []
    real = mann._slot_groups

    def counting(coeffs):
        calls.append(tuple(coeffs))
        return real(coeffs)
    monkeypatch.setattr(mann, "_slot_groups", counting)
    sols = solve_homogeneous([1, 1, -1], M23, 12)
    assert calls == [(1, 1, -1)]
    assert len(sols.scanned) > len(sols.base) > 1
    # given or computed, the groups canonicalise alike
    groups = real([1, 1, -1])
    for tup in sols.scanned:
        assert _canonical([1, 1, -1], M23, tup, None, groups) == _canonical([1, 1, -1], M23, tup)


def _split_depth(sols):
    """How many levels of splits hang below a solution set."""
    return max((1 + max(_split_depth(sp.left), _split_depth(sp.right))
                for sp in sols.splits), default=0)


def test_splits_recurse_below_depth_two():
    # 8 unknowns = a 6-unknown block with its own base + [1, -1]; the block
    # splits into x1 + x2 = x3 + x4 (base (1, 3, 2, 2)) and x5 = 3 x6, and
    # x1 + x2 = x3 + x4 splits into x = y twice over: splits at depth 2
    coeffs = [1, 1, -1, -1, 1, -3, 1, -1]
    sols = solve_homogeneous(coeffs, M23, 1)
    assert _split_depth(sols) == 3
    block = next(sp.left for sp in sols.splits if sp.positions == (0, 1, 2, 3, 4, 5))
    assert block.base
    four = next(sp.left for sp in block.splits if sp.positions == (0, 1, 2, 3))
    assert (1, 3, 2, 2) in four.base
    assert [sp.positions for sp in four.splits] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    # every split side is the solution set of its own sub-equation
    for sp in four.splits:
        assert sp.left.to_json() == solve_homogeneous(
            [four.coefficients[i] for i in sp.positions], M23, 1).to_json()


def reference_split_visits(coeffs):
    """The split candidates a homogeneous solve visits, memo hits included:
    each coefficient tuple loops over its subsets of 2 to n - 2 positions
    once, the first time it is met."""
    seen = set()

    def visit(key):
        if key in seen:
            return 0
        seen.add(key)
        n, total = len(key), 0
        for size in range(2, n - 1):
            for sub in itertools.combinations(range(n), size):
                rest = [i for i in range(n) if i not in sub]
                total += 1 + visit(tuple(key[i] for i in sub)) + visit(tuple(key[i] for i in rest))
        return total

    return visit(tuple(coeffs))


def test_split_budget_boundary(monkeypatch):
    coeffs = [1, 2, 3, 4, 5, 6, 7, -28]
    visits = reference_split_visits(coeffs)
    assert visits == 3178
    want = solve_homogeneous(coeffs, M23, 1).to_json()
    monkeypatch.setattr(mann, "SPLIT_CAP", visits)
    assert solve_homogeneous(coeffs, M23, 1).to_json() == want
    monkeypatch.setattr(mann, "SPLIT_CAP", visits - 1)
    with pytest.raises(ValueError, match="more than 3177 split candidates"):
        solve_homogeneous(coeffs, M23, 1)
    # equal coefficients share their sub-tuples, so they visit fewer
    assert reference_split_visits([1] * 7 + [-7]) < visits


def _split_equation(coeffs):
    return " ".join("%+d x%d" % (a, i) for i, a in enumerate(coeffs, 1)) + " = 0"


@pytest.mark.parametrize("coeffs", [list(range(1, 16)) + [-120], [1] * 31 + [-31]],
                         ids=["16-distinct", "32-equal"])
def test_split_search_past_its_budget_exits_three(coeffs, capsys):
    # about 3^n split candidates for n distinct coefficients: 16 of them, or
    # 32 equal ones, would run for minutes
    start = time.perf_counter()
    code = cli.main(["mann", "solve", "--gens", "2,3", "--eq", _split_equation(coeffs),
                     "--exp-bound", "0"])
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == ("error: homogeneous solve visits more than %d split candidates "
                   "(mann.SPLIT_CAP)\n" % mann.SPLIT_CAP)


def test_twelve_distinct_coefficients_fit_the_split_budget():
    # 449,966 split candidates, about 3^12; only the full sum of
    # 1 + 2 + ... + 11 = 66 vanishes
    sols = solve_homogeneous(list(range(1, 12)) + [-66], M23, 0)
    assert sols.base == [(1,) * 12] and sols.splits == []


@pytest.mark.parametrize("coeffs", [
    [3, -3], [1, 2, -3], [1, 2, 3, -6], list(range(1, 8)) + [-28],
    [1] * 9 + [-9], [2] * 6,
    [1, 2, 1, 2, 1, 2, -3], [1, 1, 2, 2, 3, 3, -6, -6], [5, -1, 5, -1, 5, 7, 7],
], ids=lambda c: ",".join(map(str, c)))
def test_split_count_closed_form_matches_the_visits(coeffs):
    assert mann._split_visits(coeffs) == reference_split_visits(coeffs)


def test_split_count_closed_form_on_seeded_lists():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 10)
        alphabet = rng.choice([[1, -1], [1, 2, -3], list(range(-20, 21))])
        coeffs = [rng.choice([a for a in alphabet if a]) for _ in range(n)]
        assert mann._split_visits(coeffs) == reference_split_visits(coeffs), coeffs


def test_split_search_past_its_budget_is_refused_before_any_scan(monkeypatch):
    # the count follows from the coefficients, so the refusal needs no scan
    def no_scan(*args):
        raise AssertionError("scanned before the split budget refused")

    monkeypatch.setattr(mann, "_scan", no_scan)
    with pytest.raises(ValueError, match="more than 500000 split candidates"):
        solve_homogeneous(list(range(1, 16)) + [-120], M23, 0)


# ---------------------------------------------------------------------------
# Three-term homogeneous scans through the ratio window
# ---------------------------------------------------------------------------

RATIO_MONOIDS = EQUIVALENCE_MONOIDS + ([-2], [6], [2, 5], [2, 7], [3, 5], [2, 3, 7],
                                       [2, 12, 18], [-6, 4, 9], [2, 3, 10, 15],
                                       [2, 4, 8, 16])
# equal coefficients, a common factor, one sign throughout (no hit at all)
RATIO_COEFFS = ([1, 1, -1], [1, 2, -1], [1, -1, -1], [1, 2, -3], [2, 4, -6], [1, 1, 1],
                [5, -7, 2])


def _direct_solve(monkeypatch, coeffs, monoid, e):
    """solve_homogeneous with every scan made by _scan."""
    with monkeypatch.context() as patch:
        patch.setattr(mann, "_ratio_scan", lambda *args: None)
        return solve_homogeneous(coeffs, monoid, e)


@pytest.mark.parametrize("gens", RATIO_MONOIDS)
def test_ratio_scan_matches_the_direct_scan(monkeypatch, gens):
    # exponent bounds from 0 while the window keeps the direct scan cheap;
    # odd bounds make L negative over <-2>, <-2, 3> and <-6, 4, 9>
    monoid = MannMonoid(gens)
    e = 0
    while len(window := _scan_window(monoid, e, 3)) <= 120 and e <= 12:
        for coeffs in RATIO_COEFFS:
            want = _scan(coeffs, 0, window)
            assert mann._ratio_scan(coeffs, monoid, e, window) == want, (coeffs, e)
            sols = solve_homogeneous(coeffs, monoid, e)
            assert sols.scanned == want, (coeffs, e)
            assert sols.to_json() == _direct_solve(monkeypatch, coeffs, monoid, e).to_json()
        e += 1
    assert e >= 2


def test_workload_shapes_take_the_ratio_route(monkeypatch):
    # the homogeneous and trace questions of the benchmark's mann-scan
    # rounds; unit equations still scan directly
    def unit_only(coeffs, target, elements):
        assert not (len(coeffs) == 3 and target == 0), coeffs
        return _scan(coeffs, target, elements)
    monkeypatch.setattr(mann, "_scan", unit_only)
    for gens in BATTERY_TWO:
        monoid = MannMonoid(gens)
        for e in (8, 12, 16):
            for coeffs in ([1, 1, -1], [1, 2, -1], [1, -1, -1]):
                solve_homogeneous(coeffs, monoid, e)
        induced_trace([1, 2, -1], monoid, 12)
        solve_unit([1, 1, -1], monoid, 6)
    for gens in BATTERY_THREE:
        for e in (4, 5):
            solve_homogeneous([1, 1, -1], MannMonoid(gens), e)
    # a five-term solve scans directly and its three-term sides by ratios
    sols = solve_homogeneous([1, 1, -1, 1, -1], M23, 2)
    assert any(len(sp.left.coefficients) == 3 and sp.left.base for sp in sols.splits)


def test_a_wide_window_past_its_bits_falls_back_to_the_direct_scan():
    # the 81 elements of <2, 3^31500> at exponent bound 8 hold 16.2M bits,
    # within WINDOW_BITS, but the 289 of the wide window at bound 16 would
    # hold 13.8 MB; the build stops once its bits pass the budget, 2 MB,
    # and peaks at 2.2 MB traced (Python 3.11), under twice the budget
    monoid = MannMonoid([2, 3 ** 31_500])
    window = _scan_window(monoid, 8, 3)
    assert sum(v.bit_length() for v in window) <= WINDOW_BITS
    tracemalloc.start()
    try:
        assert mann._products(monoid.generators, 16)[1] > WINDOW_BITS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WINDOW_BITS // 4
    assert mann._ratio_scan([1, 1, -1], monoid, 8, window) is None
    sols = solve_homogeneous([1, 1, -1], monoid, 8)
    assert sols.scanned == _scan([1, 1, -1], 0, window)
    assert len(sols.scanned) == 72 and sols.base == [(1, 1, 2)]


def test_the_largest_wide_window_at_the_three_term_cap():
    # 11 independent generators at exponent bound 1: a 2,048-element window,
    # within the three-term cap of 2,449, and 3^11 = 177,147 wide elements.
    # Traced, the solve peaks at 28.0 MB whatever the coefficients (the wide
    # window and its map of c v to v); untraced, the [1, 1, -1] solve takes
    # 0.52 s, and 0.41 s by the direct scan (min of 3, 2 CPUs, Python 3.11)
    monoid = MannMonoid([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    assert len(_scan_window(monoid, 1, 3)) == 2 ** 11 <= _largest_window(3)
    assert len(mann._products(monoid.generators, 2)[0]) == 3 ** 11
    tracemalloc.start()
    try:
        assert solve_homogeneous([1, 1, 1], monoid, 1).base == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20
    start = time.perf_counter()
    sols = solve_homogeneous([1, 1, -1], monoid, 1)
    assert time.perf_counter() - start < 10
    assert len(sols.scanned) == 39_590 and len(sols.base) == 516


# ---------------------------------------------------------------------------
# One staged construction for every element set
# ---------------------------------------------------------------------------

# independent, signed and dependent generators
STAGED_MONOIDS = ([2, 3], [-2, 3], [4, 6, 9], [2, 12, 18], [-6, 4, 9], [2, 4, 8, 16],
                  [2, 3, 5])
PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                    71, 73, 79, 83, 89, 97]


def exponent_reference(gens, e):
    """The distinct products over every exponent vector in [0, e]^k, sorted."""
    return sorted({math.prod(g ** x for g, x in zip(gens, exps))
                   for exps in itertools.product(range(e + 1), repeat=len(gens))})


def frontier_reference(gens, bound):
    """The sorted elements of absolute value at most bound, by a depth-first
    walk that multiplies each element found by every generator."""
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v * g
            if abs(w) <= bound and w not in seen:
                seen.add(w)
                frontier.append(w)
    return sorted(seen)


@pytest.mark.parametrize("gens", STAGED_MONOIDS)
def test_staged_windows_match_the_exponent_vector_reference(gens):
    monoid = MannMonoid(gens)
    for e in range(7):
        want = exponent_reference(gens, e)
        assert monoid.elements_with_exponents(e) == want, e
        for n in (2, 3, 4):
            if len(want) ** (n - 1) <= SCAN_CAP:
                assert _scan_window(monoid, e, n) == want, (e, n)
            else:
                with pytest.raises(ValueError, match="monoid scan of %d unknowns" % n):
                    _scan_window(monoid, e, n)
        # the wide window of the three-term route
        wide, bits = mann._products(monoid.generators, 2 * e)
        assert sorted(wide) == exponent_reference(gens, 2 * e), e
        assert bits == sum(v.bit_length() for v in wide), e


@pytest.mark.parametrize("gens", STAGED_MONOIDS)
def test_enumerate_matches_the_frontier_walk(gens):
    monoid = MannMonoid(gens)
    for bound in (1, 2, 7, 100, 5000, 10 ** 6):
        assert monoid.enumerate(bound) == frontier_reference(gens, bound), bound


def test_the_staged_build_stops_just_past_its_caps():
    # the count cap: one product past it, at each cap
    for cap in (1, 2, 50, 288):
        found, bits = mann._products(M23.generators, 16, cap=cap)
        assert len(found) == cap + 1
        assert bits == sum(v.bit_length() for v in found)
    assert len(mann._products(M23.generators, 16, cap=289)[0]) == 289
    # the bits cap: the last product found passes it, the ones before do not
    found, bits = mann._products(M23.generators, 16, max_bits=1000)
    assert bits - found[-1].bit_length() <= 1000 < bits
    # <2, 4> at exponent bound 300: the build makes 90,601 products, 1
    # included, whose bits total 40.9M; the 901 distinct ones hold 406,351
    window = MannMonoid([2, 4]).elements_with_exponents(300)
    assert window == [2 ** j for j in range(901)]


def test_a_window_past_the_count_cap_is_refused_before_its_bits_are():
    # seven primes at exponent bound 8 give 9^7 = 4,782,969 distinct products,
    # within SCAN_CAP; three unknowns admit 2,449 of them, and the build stops
    # at the next one, where building on to WINDOW_BITS would peak near 38 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="monoid scan of 3 unknowns exceeds the budget"):
            _scan_window(MannMonoid([2, 3, 5, 7, 11, 13, 17]), 8, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_enumerate_past_window_bits_is_refused(capsys):
    # the elements of the 25 primes below 100 grow about 3.4 times per decade
    # of the bound; the refusal comes once they pass WINDOW_BITS, after
    # 0.2 s untraced (2 CPUs, Python 3.11) and at a 43 MB traced peak
    gens = ",".join(map(str, PRIMES_BELOW_100))
    tracemalloc.start()
    try:
        code = cli.main(["mann", "enumerate", "--gens", gens, "--bound", str(10 ** 12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: monoid elements up to %d exceed %d bits\n" % (10 ** 12, WINDOW_BITS)
    assert peak < 64 * 2 ** 20


def test_canonical_divisor_lists_are_not_capped(capsys):
    # x1 - x2 = 0 over <-2, 3> at exponent bound 230: the hits with an odd
    # power of 2 in their gcd go through _canonical, over a divisor list of
    # about 44 Mbit, past WINDOW_BITS
    code = cli.main(["mann", "solve", "--gens=-2,3", "--eq", "x1 - x2 = 0",
                     "--exp-bound", "230"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["base"] == [["-2", "-2"], ["1", "1"]]


def test_enumerate_stops_its_powers_past_the_bound():
    # x1 - x2 = 0 over <-G> with G of 1,001 digits: the hit (-G, -G) has gcd
    # G, outside the window {-G, 1}, so the solve enumerates the monoid up to
    # G; the powers of -G past G add nothing and must not be built
    big = 10 ** 1000 + 1
    monoid = MannMonoid([-big])
    start = time.perf_counter()
    assert monoid.enumerate(big) == [-big, 1]
    result = solve_homogeneous([1, -1], monoid, 1)
    assert time.perf_counter() - start < 1.0
    assert result.base == [(-big, -big), (1, 1)]
