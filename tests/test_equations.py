"""Shift-pattern solver versus the exhaustive tuple oracle.

brute_force enumerates [0, n]^s directly from handle values; the solver's
instantiate() must reproduce it verbatim, and for nonzero targets the
non-degenerate answer must be purely sporadic.
"""

import itertools
import random
from fractions import Fraction
import tracemalloc

import pytest

from regseq import polyops
from regseq import sequences as sq
from regseq.certs import BoundedCheck, Proved
from regseq import equations
from regseq.equations import (EquationProblem, ShiftPattern,
                              TrivialOperatorPresent, _box_scan, _degenerate,
                              _family_offsets, _half_entries, _half_sums, _KillTester,
                              _meet_in_the_middle, _mirrored, _orbit,
                              _partial_kill_present,
                              _proper_subsums_nonzero, _value_table, _vanishing_subset,
                              brute_force, solve_full, solve_nondegenerate)
from regseq.operators import (ZERO, CofiniteZero, Operator, apply, classify,
                              shift_combine)
from regseq.sequences import SequenceSpec, make_handle
from regseq.subsums import DOUBLING_TERMS

HANDLES = {
    "pow2": make_handle(SequenceSpec.power(2)),
    "pow3": make_handle(SequenceSpec.power(3)),
    "fib": make_handle(SequenceSpec.recurrence([1, 1], [1, 2])),
    "factorial": make_handle(SequenceSpec.factorial()),
    "sum23": make_handle(SequenceSpec.sum_of([SequenceSpec.power(2),
                                              SequenceSpec.power(3)])),
}

EQUATIONS = {
    "x1+x2-x3": ([[1], [1], [-1]], 0),
    "x1+x2-x4-x3": ([[1], [1], [-1], [-1]], 0),
    "2x1-x2": ([[2], [-1]], 0),
    "x1-x2=1": ([[1], [-1]], 1),
}


def oracle_tuples(problem, n):
    return {t for t, _tag in brute_force(problem, n)}


def test_description_matches_oracle_everywhere():
    for label, handle in HANDLES.items():
        for eq_label, (ops, z) in EQUATIONS.items():
            problem = EquationProblem(handle, ops, z)
            description = solve_full(problem)
            bound = 12 if problem.s == 4 else 20
            got = description.instantiate(bound)
            want = oracle_tuples(problem, bound)
            assert got == want, (label, eq_label)


def test_fibonacci_sum_patterns_are_the_recurrence():
    problem = EquationProblem(HANDLES["fib"], [[1], [1], [-1]], 0)
    dsol = solve_nondegenerate(problem)
    offsets = sorted(p.offsets for p in dsol.patterns)
    assert offsets == [(0, 1, 2), (1, 0, 2)]
    for p in dsol.patterns:
        assert p.validity == ShiftPattern.COFINITE
        assert p.exceptions == ()
    assert dsol.certificate.is_proved


def test_pattern_offsets_anchor_at_zero():
    for label in ("pow2", "fib", "sum23"):
        problem = EquationProblem(HANDLES[label], [[1], [1], [-1]], 0)
        for p in solve_nondegenerate(problem).patterns:
            assert min(p.offsets) == 0


def test_nonzero_target_gives_sporadic_only():
    problem = EquationProblem(HANDLES["pow2"], [[1], [1]], 12)
    dsol = solve_nondegenerate(problem)
    assert dsol.patterns == []
    assert sorted(dsol.sporadic) == [(2, 3), (3, 2)]


def test_trivial_operator_rejected_by_nondegenerate_solver():
    problem = EquationProblem(HANDLES["pow2"], [[-2, 1], [1]], 0)
    with pytest.raises(TrivialOperatorPresent):
        solve_nondegenerate(problem)
    # solve_full covers the same problem through casework
    description = solve_full(problem)
    assert description.instantiate(10) == oracle_tuples(problem, 10)


def test_instantiate_cases_never_overlap():
    # instantiate() raises AssertionError on any double-counted tuple;
    # exercising it across all fixtures is the disjointness check
    for handle in HANDLES.values():
        for ops, z in EQUATIONS.values():
            problem = EquationProblem(handle, ops, z)
            solve_full(problem).instantiate(8)


def test_random_problems_against_oracle():
    rng = random.Random(77)
    names = sorted(HANDLES)
    for _ in range(15):
        handle = HANDLES[rng.choice(names)]
        s = rng.randint(2, 3)
        ops = []
        for _ in range(s):
            deg = rng.randint(0, 1)
            coeffs = [rng.randint(-3, 3) for _ in range(deg + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = rng.choice([-1, 1])
            ops.append(coeffs)
        z = rng.randint(-6, 6)
        problem = EquationProblem(handle, ops, z)
        description = solve_full(problem)
        assert description.instantiate(14) == oracle_tuples(problem, 14)


def test_nonzero_sporadic_completeness_random():
    rng = random.Random(515)
    names = sorted(HANDLES)
    done = 0
    while done < 12:
        handle = HANDLES[rng.choice(names)]
        s = rng.randint(2, 3)
        ops = []
        for _ in range(s):
            coeffs = [rng.randint(-3, 3), rng.choice([1, -1, 2])]
            ops.append(coeffs)
        if any(isinstance(classify(o, handle), CofiniteZero)
               for o in (EquationProblem(handle, ops, 1).operators)):
            continue
        z = rng.choice([-9, -4, -1, 1, 3, 8, 20])
        problem = EquationProblem(handle, ops, z)
        dsol = solve_nondegenerate(problem)
        assert dsol.patterns == []
        want = {t for t, tag in brute_force(problem, 20)
                if tag["status"] == "non-degenerate"}
        got = {t for t in dsol.sporadic if max(t) <= 20}
        assert got == want, (ops, z)
        done += 1


def test_nondegenerate_solutions_are_the_distinct_ones_without_splits():
    # solve_nondegenerate reads the core alone: the families, sporadic
    # tuples and box of _solve_distinct, and where the core is Proved its
    # certificate too, as every split it no longer solves is then Proved
    rng = random.Random(2310)
    names = sorted(KILL_HANDLES)
    kinds = []
    while len(kinds) < 40:
        handle = make_handle(KILL_HANDLES[rng.choice(names)][0])
        ops = [rng.choice(KILL_OPS) for _ in range(rng.randint(2, 4))]
        z = rng.choice([0, 0, 0, 1, -3, 10])
        problem = EquationProblem(handle, ops, z)
        if any(isinstance(classify(o, handle), CofiniteZero) for o in problem.operators):
            continue
        got = solve_nondegenerate(problem)
        want = equations._solve_distinct(problem, {})
        assert [(p.offsets, p.exceptions) for p in got.patterns] == \
            [(p.offsets, p.exceptions) for p in want.patterns], (ops, z)
        assert (got.sporadic, got.bound) == (want.sporadic, want.bound), (ops, z)
        assert got.splits == []
        if got.certificate.is_proved:
            assert got.certificate == want.certificate, (ops, z)
        else:
            assert not want.certificate.is_proved, (ops, z)
        kinds.append(got.certificate.is_proved)
    assert 10 <= sum(kinds) <= 30


# One solver core per canonical form: a problem with its unknowns permuted,
# or with every operator and z negated, reads its families and sporadic
# tuples from the same core.  [9], [6, -5, 1] on 2^n + 3^n kills only the
# 3^n summand at a gap of 1 (a partial kill: a bounded description).  The
# sequences are those of KILL_HANDLES below.
SYMMETRY_CASES = [
    ("fib", [[1], [1], [-1], [-1]], 0),
    ("fib", [[1], [-1], [2]], 5),
    ("fib", [[1, 1], [1], [-2]], 0),
    ("trib", [[1], [1], [1], [-1]], 0),
    ("pow2", [[2], [-1], [1], [-1]], 0),
    ("sum23", [[9], [6, -5, 1], [-1]], 0),
    ("table", [[1], [1], [-1], [-1]], 0),
    ("table", [[2, -3, 1], [1], [-1]], 2),
]


@pytest.mark.parametrize("case", range(len(SYMMETRY_CASES)))
def test_permuted_and_negated_problems_share_one_core(case):
    label, ops, z = SYMMETRY_CASES[case]
    handle = make_handle(KILL_HANDLES[label][0])
    s = len(ops)
    window = 12 if s == 4 else 20
    base = solve_full(EquationProblem(handle, ops, z))
    want = base.instantiate(window)
    assert want == oracle_tuples(EquationProblem(handle, ops, z), window)
    perms = list(itertools.permutations(range(s)))
    if s == 4:
        rng = random.Random("symmetry:%d" % case)
        perms = [perms[-1]] + rng.sample(perms[1:-1], 3)
    for perm in perms:
        permuted = solve_full(EquationProblem(handle, [ops[i] for i in perm], z))
        assert permuted.instantiate(window) == {tuple(t[i] for i in perm) for t in want}
        assert permuted.certificate == base.certificate
        for c in permuted.cases:
            if c.distinct is not None:
                offsets = [p.offsets for p in c.distinct.patterns]
                assert offsets == sorted(offsets)
    negated = solve_full(EquationProblem(handle, [[-c for c in op] for op in ops], -z))
    assert negated.to_json()["cases"] == base.to_json()["cases"]
    assert negated.certificate == base.certificate


def test_problem_json_round_trip():
    problem = EquationProblem(HANDLES["fib"], [[1], [1], [-1]], 0)
    back = EquationProblem.from_json(HANDLES["fib"], problem.to_json())
    assert [op.coeffs for op in back.operators] == [(1,), (1,), (-1,)]
    assert back.z == 0


# ---------------------------------------------------------------------------
# Family search: meet-in-the-middle against the pattern-by-pattern loop
# ---------------------------------------------------------------------------

class ReferenceKillTester:
    """The kill tester before the family search was rewritten: tuple
    vectors summed coordinate by coordinate, and shift_combine in marker
    mode."""

    def __init__(self, handle, ops, max_offset):
        self.ops = ops
        expansion = sq.power_base_expansion(handle.spec)
        if expansion is not None:
            self.mode = "geometric"
            bases = [q for q, _ in expansion]
            self.top = len(bases) - 1
            self.vectors = [
                [tuple(polyops.peval(op.poly(), q) * q ** m for q in bases)
                 for m in range(max_offset + 1)]
                for op in ops]
            return
        kepler = sq._cached_kepler(handle)
        if (kepler.kind == sq.KeplerLimit.ALGEBRAIC
                and sq.certify(handle).recurrence_certified):
            self.mode = "algebraic"
            P = kepler.minpoly.coeffs
            k = kepler.minpoly.degree
            pows = []
            cur = [1] + [0] * (k - 1)
            for _ in range(max_offset + max(op.degree for op in ops) + 1):
                pows.append(list(cur))
                carry = cur[-1]
                cur = [0] + cur[:-1]
                for i in range(k):
                    cur[i] -= carry * P[i]
            self.vectors = []
            for op in ops:
                per_offset = []
                for m in range(max_offset + 1):
                    acc = [0] * k
                    for i, a in enumerate(op.coeffs):
                        if a:
                            row = pows[m + i]
                            for t in range(k):
                                acc[t] += a * row[t]
                    per_offset.append(tuple(acc))
                self.vectors.append(per_offset)
            return
        self.mode = "marker"

    def status(self, members, offsets):
        if self.mode == "marker":
            base = min(offsets)
            g = shift_combine([self.ops[j] for j in members],
                              [m - base for m in offsets])
            return "killed" if g is ZERO else "clean"
        acc = None
        for j, m in zip(members, offsets):
            v = self.vectors[j][m]
            acc = v if acc is None else tuple(a + b for a, b in zip(acc, v))
        if all(c == 0 for c in acc):
            return "killed"
        if self.mode == "geometric" and acc[self.top] == 0:
            return "partial"
        return "clean"


def reference_offset_patterns(s, gap):
    if s == 1:
        yield (0,)
        return
    for gaps in itertools.product(range(1, gap + 1), repeat=s - 1):
        positions = [0]
        for g in gaps:
            positions.append(positions[-1] + g)
        for perm in itertools.permutations(range(s)):
            yield tuple(positions[perm[i]] for i in range(s))


def reference_families(tester, s, gap):
    out = []
    for offsets in reference_offset_patterns(s, gap):
        if tester.status(range(s), offsets) != "killed":
            continue
        if not any(tester.status(sub, [offsets[j] for j in sub]) == "killed"
                   for size in range(1, s)
                   for sub in itertools.combinations(range(s), size)):
            out.append(offsets)
    return out


def reference_partial_kill(tester, s, gap):
    return any(tester.status(members, offsets) == "partial"
               for size in range(1, s + 1)
               for members in itertools.combinations(range(s), size)
               for offsets in reference_offset_patterns(size, gap))


KILL_HANDLES = {
    "pow2": (SequenceSpec.power(2), "geometric"),
    "sum23": (SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)]),
              "geometric"),
    "fib": (SequenceSpec.recurrence([1, 1], [1, 2]), "algebraic"),
    "pell": (SequenceSpec.recurrence([1, 2], [1, 2]), "algebraic"),
    "trib": (SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]), "algebraic"),
    "table": (SequenceSpec.table([], generator="2**n + n"), "marker"),
    "factorial": (SequenceSpec.factorial(), "marker"),
}

# Operators that kill, partly kill or cancel in each mode: [2] against [-1]
# one step up kills 2^n, [3] against [-1] kills only the 3^n summand of
# 2^n + 3^n, [1, 1] against [-1] kills Fibonacci, [1] one step up cancels
# [0, -1] identically, and [-2, 1] is killed by 2^n on its own.
KILL_OPS = [[1], [-1], [2], [3], [1, 1], [0, -1], [1, 2], [-2, 1], [1, 1, 1]]


def _kill_cases(rng, s):
    cases = [[[1], [1], [-1], [-1]][:s], [[2], [-1], [1], [-3]][:s]]
    for _ in range(3):
        cases.append([rng.choice(KILL_OPS) for _ in range(s)])
    return cases


@pytest.mark.parametrize("label", sorted(KILL_HANDLES))
def test_family_search_matches_reference(label):
    spec, mode = KILL_HANDLES[label]
    handle = make_handle(spec)
    rng = random.Random("kill:" + label)
    for s in range(1, 5):
        gaps = range(1, 13) if s < 4 else (1, 3, 6)
        for coeffs in _kill_cases(rng, s):
            ops = [Operator(c) for c in coeffs]
            for gap in gaps:
                tester = _KillTester(handle, ops, (s - 1) * gap)
                reference = ReferenceKillTester(handle, ops, (s - 1) * gap)
                assert tester.mode == reference.mode == mode
                assert (set(_family_offsets(tester, s, gap))
                        == set(reference_families(reference, s, gap))), (coeffs, gap)
                if mode == "geometric":
                    assert (_partial_kill_present(tester, s, gap)
                            == reference_partial_kill(reference, s, gap)), (coeffs, gap)


def test_family_search_finds_known_families_and_partial_kills():
    fib = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
    tester = _KillTester(fib, [Operator([1]), Operator([1]), Operator([-1])], 6)
    assert sorted(_family_offsets(tester, 3, 3)) == [(0, 1, 2), (1, 0, 2)]
    sum23 = make_handle(KILL_HANDLES["sum23"][0])
    tester = _KillTester(sum23, [Operator([3]), Operator([-1])], 1)
    assert _family_offsets(tester, 2, 1) == []
    assert _partial_kill_present(tester, 2, 1)
    table = make_handle(KILL_HANDLES["table"][0])
    tester = _KillTester(table, [Operator([1]), Operator([0, -1])], 2)
    assert _family_offsets(tester, 2, 2) == [(1, 0)]
    # a variable killed on its own is a family alone and demotes every
    # larger pattern
    pow2 = make_handle(KILL_HANDLES["pow2"][0])
    tester = _KillTester(pow2, [Operator([-2, 1])], 0)
    assert _family_offsets(tester, 1, 1) == [(0,)]
    tester = _KillTester(pow2, [Operator([-2, 1]), Operator([2]), Operator([-1])], 2)
    assert _family_offsets(tester, 3, 1) == []
    # 9 r_n - r_{n+2} kills the 3^n summand only, at a gap of 2 that a
    # variable killed by 2^n + 3^n, (X - 2)(X - 3), bridges at offset 1
    ops = [Operator([9]), Operator([6, -5, 1]), Operator([-1])]
    assert not _partial_kill_present(_KillTester(sum23, ops[::2], 1), 2, 1)
    assert _partial_kill_present(_KillTester(sum23, ops, 2), 3, 1)


def _refuse_kernel(*args):
    raise AssertionError("the kernel ran on a mirrored problem")


def test_family_search_joins_mirrored_kill_rows(monkeypatch):
    # kill rows that are negations two by two take the mirror join, as value
    # rows do: the kernel never runs.  On Fibonacci 1 + 2 phi^5 = phi^6 +
    # 2 phi^2, so [1], [2] against their negations have families; so do
    # [1, 1] and [0, 0, -1], whose kill rows are negations although the
    # operators differ
    monkeypatch.setattr(equations, "_meet_in_the_middle", _refuse_kernel)
    fib = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
    cases = [([[1]] * 3 + [[-1]] * 3, 2), ([[1], [2], [-1], [-2]], 3),
             ([[1], [-2], [2], [-1]], 4), ([[1, 1], [-1], [1], [0, 0, -1]], 4)]
    found = []
    for coeffs, gap in cases:
        s = len(coeffs)
        ops = [Operator(c) for c in coeffs]
        got = _family_offsets(_KillTester(fib, ops, (s - 1) * gap), s, gap)
        reference = ReferenceKillTester(fib, ops, (s - 1) * gap)
        assert got == sorted(reference_families(reference, s, gap)), coeffs
        found.append(got)
    assert found[0] == [] and found[1] == [(0, 5, 6, 2), (6, 2, 0, 5)]
    assert all(found[1:])


# ---------------------------------------------------------------------------
# _proved_growth: one route per sequence, or None
# ---------------------------------------------------------------------------

RATIO_SPECS = {
    "trib": SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]),
    "table-2n-plus-n": SequenceSpec.table([], generator="2**n + n"),
    "table-runs-out": SequenceSpec.table([1, 3, 4, 9, 20]),
}


@pytest.mark.parametrize("label", sorted(RATIO_SPECS))
def test_ratio_lower_bound_is_the_window_minimum(label):
    # no route proves the growth here, and no window is scanned for a
    # minimum ratio in its place: only the ratio limit's 101-term sanity
    # window is read
    handle = make_handle(RATIO_SPECS[label])
    assert equations._proved_growth(handle, 3) is None
    assert len(handle.cache) <= 101


def reference_ratio_lower_bound(handle):
    # the former sequences._ratio_lower_bound
    spec = handle.spec
    if spec.kind == sq.KIND_FACTORIAL:
        return Fraction(3), 0
    expansion = sq.power_base_expansion(spec)
    if expansion is not None:
        return Fraction(expansion[0][0]), 0
    data = sq._contraction_data(handle)
    if data is not None:
        lo = data.theta_iv[0]
        rho = 1 + (lo - 1) * Fraction(3, 4)
        n = data.first_index(handle, 1, lo - rho, sq.RATIO_SCAN_BUDGET)
        if n is not None:
            return rho, n
    return None


def reference_uniform_value_bound(handle, A):
    # the former equations._uniform_value_bound
    expansion = sq.power_base_expansion(handle.spec)
    if expansion is not None:
        return Fraction(1, 2 * sum(c for _, c in expansion))
    kepler = sq._cached_kepler(handle)
    if kepler.kind == sq.KeplerLimit.INFINITE and handle.spec.kind == sq.KIND_FACTORIAL:
        return Fraction(1, 2)
    if (kepler.kind == sq.KeplerLimit.ALGEBRAIC and sq.certify(handle).recurrence_certified
            and sq._contraction_data(handle) is not None):
        return Fraction(1, 2 * A ** (kepler.minpoly.degree - 1))
    return None


def reference_uniform_cutoff(handle, A, max_degree):
    # the former equations._uniform_cutoff
    expansion = sq.power_base_expansion(handle.spec)
    if expansion is not None:
        if len(expansion) == 1:
            return 0
        theta, q2 = expansion[-1][0], expansion[-2][0]
        return sq._geometric_cutoff(1, 2 * A * theta ** max_degree, theta, q2)
    kepler = sq._cached_kepler(handle)
    if kepler.kind == sq.KeplerLimit.INFINITE:
        try:
            k, cert = sq.dominance_cutoff(handle, Fraction(1, 2 * A))
        except ValueError:
            return None
        return k if cert.is_proved else None
    if kepler.kind == sq.KeplerLimit.ALGEBRAIC:
        u_raw = Fraction(1, A ** (kepler.minpoly.degree - 1))
        try:
            k, cert = sq.dominance_cutoff(handle, u_raw / (2 * A), degree=max_degree)
        except ValueError:
            return None
        return k if cert.is_proved else None
    return None


def reference_completeness_data(handle, ops, z, s):
    # the former equations._completeness_data, over the three functions
    # above, each with its own route tests
    A = sum(op.mass() for op in ops)
    d_max = max(op.degree for op in ops)
    try:
        bound = reference_ratio_lower_bound(handle)
    except ValueError:
        return equations._bounded_completeness(s)
    if bound is None:
        return equations._bounded_completeness(s)
    rho, n0 = bound
    u_star = reference_uniform_value_bound(handle, A)
    if u_star is None:
        return equations._bounded_completeness(s)
    target = Fraction(A + abs(z)) / u_star
    G = d_max
    power = Fraction(rho)
    while power <= target:
        G += 1
        power *= rho
        if G > equations.OFFSET_BUDGET:
            return equations._bounded_completeness(s)
    k_dom = reference_uniform_cutoff(handle, A, (s - 1) * G + d_max)
    if k_dom is None:
        return equations._bounded_completeness(s)
    L = max(n0, k_dom) + G + d_max + 2
    box = L + (s - 1) * (G + 1)
    if box > equations.ANCHOR_SCAN_BUDGET:
        budget = equations.ANCHOR_SCAN_BUDGET
        return equations._Completeness(G, budget, BoundedCheck(budget))
    return equations._Completeness(G, box, Proved("dominance-bounds"))


FIB_SPEC = SequenceSpec.recurrence([1, 1], [1, 2])
LUCAS = SequenceSpec.recurrence([1, 1], [1, 3])
COMPLETENESS_SPECS = {
    "fib": FIB_SPEC,
    "pell": SequenceSpec.recurrence([1, 2], [1, 2]),
    "pow2": SequenceSpec.power(2),
    "sum23": SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)]),
    "2*3^n": SequenceSpec.recurrence([3], [2]),
    "factorial": SequenceSpec.factorial(),
    "trib": RATIO_SPECS["trib"],
    "tetranacci": SequenceSpec.recurrence([1, 1, 1, 1], [1, 2, 4, 8]),
    # r_{n+3} = r_n + 2 r_{n+2}: a contraction of degree 3
    "degree-3-contraction": SequenceSpec.recurrence([1, 0, 2], [1, 2, 5]),
    "table-2n-plus-n": RATIO_SPECS["table-2n-plus-n"],
    "table-runs-out": RATIO_SPECS["table-runs-out"],
    # one value: the ratio limit cannot be read, a ValueError
    "table-7": SequenceSpec.table([7]),
    "fib+lucas": SequenceSpec.sum_of([FIB_SPEC, LUCAS]),
    "fib+3^n": SequenceSpec.sum_of([FIB_SPEC, SequenceSpec.power(3)]),
    "fib+table": SequenceSpec.sum_of([FIB_SPEC, SequenceSpec.table([], generator="n*n + 1")]),
    "factorial+2^n": SequenceSpec.sum_of([SequenceSpec.factorial(), SequenceSpec.power(2)]),
}
COMPLETENESS_OPS = [[1], [-1], [2], [-3], [1, 1], [1, -1], [-2, 1], [0, 1], [1, 1, 1]]
# the sequences whose gap and box some case proves; the rest fall back
PROVED_COMPLETENESS = {"fib", "pell", "pow2", "sum23", "2*3^n", "factorial",
                       "degree-3-contraction"}


@pytest.mark.parametrize("label", sorted(COMPLETENESS_SPECS))
def test_completeness_data_matches_the_windowed_ratio_bound(label):
    rng = random.Random("completeness-" + label)
    spec = COMPLETENESS_SPECS[label]
    cases = [([[1], [1], [-1]], 0), ([[1], [1], [-1], [-1]], 0), ([[1], [-1]], 1)]
    cases += [([rng.choice(COMPLETENESS_OPS) for _ in range(rng.randint(1, 4))],
               rng.choice([0, 0, 1, -5, 100, 10 ** 6, 10 ** 9, -10 ** 12]))
              for _ in range(20)]
    got = [equations._completeness_data(make_handle(spec), [Operator(c) for c in ops],
                                        z, len(ops))
           for ops, z in cases]
    want = [reference_completeness_data(make_handle(spec), [Operator(c) for c in ops],
                                        z, len(ops))
            for ops, z in cases]
    for (ops, z), g, w in zip(cases, got, want):
        assert (g.gap, g.box, g.cert) == (w.gap, w.box, w.cert), (ops, z)
    assert any(w.cert.is_proved for w in want) == (label in PROVED_COMPLETENESS)


def distinct_parts(description):
    """Every DistinctSolutions of a description, the sides of its splits
    included."""
    stack = [c.distinct for c in description.cases if c.distinct is not None]
    while stack:
        part = stack.pop()
        yield part
        for sp in part.splits:
            stack += [sp.zero_side, sp.target_side]


def reference_extended_scan(problem, comp, patterns):
    """The sporadic scan over the whole value table, out to L* + (s-1)G,
    the instances of the families dropped."""
    top = comp.box + (problem.s - 1) * comp.gap
    return _box_scan(_value_table(problem, top), problem.z,
                     lambda tup: not any(p.matches(tup) for p in patterns))


@pytest.mark.parametrize("label", sorted(KILL_HANDLES))
def test_sporadic_tuples_lie_in_the_box(label):
    # every sporadic tuple of every case and split lies in [0, bound], and
    # where the core is Proved no non-degenerate solution off the families
    # lies past L*: scanning the whole table finds exactly the sporadic
    # tuples.  On the 2**n + n table x + y = z + w has the solution
    # (71, 6, 72) of its case x = y (2 r_71 = r_6 + r_72), whose box is
    # bounded at 66
    spec, _ = KILL_HANDLES[label]
    handle = make_handle(spec)
    rng = random.Random("box-extent:" + label)
    problems = [([[1], [1], [-1], [-1]], 0)]
    for s in (2, 3, 4) * 3:
        ops = [rng.choice(KILL_OPS) for _ in range(s)]
        tup = [rng.randint(0, 12) for _ in range(s)]
        z = rng.choice([0, sum(apply(Operator(op), handle, n) for op, n in zip(ops, tup))])
        problems.append((ops, z))
    memo, proved = {}, 0
    for ops, z in problems:
        for part in distinct_parts(solve_full(EquationProblem(handle, ops, z))):
            assert all(max(t) <= part.bound for t in part.sporadic), (ops, z, part.bound)
            comp, patterns, sporadic = equations._core(part.problem, memo)
            if comp.cert.is_proved:
                proved += 1
                extended = reference_extended_scan(part.problem, comp, patterns)
                assert all(max(t) <= comp.box for t in extended), (ops, z)
                assert extended == sorted(sporadic), (ops, z)
    assert (proved > 0) == (label not in ("trib", "table")), proved


# ---------------------------------------------------------------------------
# _box_scan: zero terms pruned, sub-sum checks only where they can fail
# ---------------------------------------------------------------------------

def reference_value_table(problem, n):
    return [[apply(op, problem.handle, i) for i in range(n + 1)]
            for op in problem.operators]


def reference_meet_in_the_middle(rows, target):
    half = len(rows) // 2
    idx = range(len(rows[0]))
    table = {}
    for tup, terms in zip(itertools.product(idx, repeat=half),
                          itertools.product(*rows[:half])):
        table.setdefault(sum(terms), []).append(tup)
    for tup, terms in zip(itertools.product(idx, repeat=len(rows) - half),
                          itertools.product(*rows[half:])):
        for left in table.get(target - sum(terms), ()):
            yield left + tup


def reference_box_solutions(problem, top):
    s = problem.s
    vals = reference_value_table(problem, top)
    out = [full for full in reference_meet_in_the_middle(vals, problem.z)
           if len(set(full)) == s
           and _vanishing_subset([row[v] for row, v in zip(vals, full)]) is None]
    out.sort()
    return out, vals


def box_solutions(problem, top):
    """The box scan of the problem's value rows over [0, top], and the
    rows."""
    vals = _value_table(problem, top)
    return _box_scan(vals, problem.z), vals


def assert_box_matches_reference(handle, ops, z, top):
    problem = EquationProblem(handle, ops, z)
    assert box_solutions(problem, top) == reference_box_solutions(problem, top), (ops, z)


def test_proper_subsums_nonzero_is_exact_on_small_terms():
    # where the predicate holds, no nonzero terms summing to the target have
    # a vanishing proper sub-sum; where it does not, some do
    values = [v for v in range(-4, 5) if v]
    for size in range(1, 5):
        for terms in itertools.product(values, repeat=size):
            if _proper_subsums_nonzero(size, sum(terms)):
                assert _vanishing_subset(list(terms)) is None, terms
    assert _vanishing_subset([1, -1, 2]) == (0, 1) and not _proper_subsums_nonzero(3, 2)
    assert _vanishing_subset([1, -1, 2, -2]) == (0, 1) and not _proper_subsums_nonzero(4, 0)
    # _degenerate is the existence half of _vanishing_subset, zero terms and
    # vanishing full sums included
    for size in range(7):
        for terms in itertools.product((-2, -1, 0, 1, 3), repeat=size):
            assert _degenerate(list(terms)) == (_vanishing_subset(list(terms)) is not None), \
                terms

def test_degenerate_holds_no_list_past_its_term_cap():
    # 16 terms double a list up to 2^15 sums, 17 are searched subset by
    # subset: no list of 2^16 sums is built
    assert DOUBLING_TERMS == 16
    assert _degenerate([1] * 16 + [-1] * 15)
    tracemalloc.start()
    try:
        assert not _degenerate([3 ** i for i in range(17)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_degenerate_meets_in_the_middle_past_its_term_cap():
    # past DOUBLING_TERMS each half lists its own sub-sums: every pair of
    # half subsets counts but (empty, empty) and (full, full).  Distinct
    # powers of 3 with signs have no vanishing sub-sum; a term set to minus
    # a sub-sum of the others makes one, at a random place
    rng = random.Random("degenerate-halves")
    powers = [2 ** i for i in range(8)]
    cases = [[2 ** i for i in range(17)] + [1 - 2 ** 17],   # only the full sum is 0
             powers[:7] + [-127] + [1000] * 9,              # the whole left half
             [1000] * 8 + powers + [-255],                  # the whole right half
             [1] * 8 + [-8] + [100] * 8,                    # the left half and one term
             [100] * 8 + [1, 2, -3, 7, 11, 13, 17, 19, 23]]  # part of the right half
    for size in (17, 18) * 4:
        terms = [rng.choice((1, -1)) * 3 ** e for e in rng.sample(range(40), size)]
        if rng.random() < 0.5:
            picked = rng.sample(range(size - 1), rng.randint(1, size - 2))
            terms[-1] = -sum(terms[i] for i in picked)
            rng.shuffle(terms)
        cases.append(terms)
    verdicts = set()
    for terms in cases:
        verdict = _degenerate(terms)
        assert verdict == (_vanishing_subset(terms) is not None), terms
        verdicts.add(verdict)
    assert verdicts == {True, False}


ZERO_HEAVY = {
    "pow2": SequenceSpec.power(2),
    "table-2n-plus-n": SequenceSpec.table([], generator="2**n + n"),
    "table-n2-plus-1": SequenceSpec.table([], generator="n*n + 1"),
}

# (handle, operators, target): on pow2 [2, -1] is 0 everywhere; on 2**n + n
# [2, -3, 1] is -1 and [-2, 3, -1] is 1 everywhere and [-2, 1] is 0 at n = 1;
# on n*n + 1 [-2, 1] is 0 at n = 0 and 2 and [-1, 3, -3, 1] is 0 everywhere
ZERO_HEAVY_CASES = [
    ("pow2", [[2, -1]], 0),
    ("pow2", [[2, -1], [1]], 4),
    ("pow2", [[2, -1], [1], [-1]], 0),
    ("pow2", [[1], [2, -1], [1], [-1]], 0),
    ("table-2n-plus-n", [[2, -3, 1], [-2, 3, -1]], 0),
    ("table-2n-plus-n", [[-2, 3, -1], [2, -3, 1]], 0),
    ("table-2n-plus-n", [[2, -3, 1], [-2, 1]], -1),
    ("table-2n-plus-n", [[-2, 1]], 0),
    ("table-2n-plus-n", [[-2, 1], [2, -3, 1], [-2, 3, -1]], 0),
    ("table-2n-plus-n", [[-2, 1], [2, -3, 1], [-2, 3, -1]], -3),
    ("table-2n-plus-n", [[2, -3, 1], [-2, 3, -1], [1], [-1]], 0),
    ("table-n2-plus-1", [[-2, 1]], 0),
    ("table-n2-plus-1", [[-1, 3, -3, 1]], 0),
    ("table-n2-plus-1", [[-2, 1], [1, -2, 1]], 2),
    ("table-n2-plus-1", [[-2, 1], [1], [-1]], 0),
    ("table-n2-plus-1", [[-2, 1], [-2, 1], [1, -2, 1]], 1),
    ("table-n2-plus-1", [[-1, 3, -3, 1], [1], [-1], [1]], 5),
    # mirrored: a^2 + b^2 = c^2 + d^2 has solutions with distinct indices
    ("table-n2-plus-1", [[1], [1], [-1], [-1]], 0),
    ("table-n2-plus-1", [[-1], [1], [-1], [1], [-1], [1]], 0),
]


@pytest.mark.parametrize("case", range(len(ZERO_HEAVY_CASES)))
def test_box_matches_reference_on_zero_heavy_rows(case):
    label, ops, z = ZERO_HEAVY_CASES[case]
    handle = make_handle(ZERO_HEAVY[label])
    for top in (0, 1, 2, 5, {4: 17, 6: 11}.get(len(ops), 40)):
        assert_box_matches_reference(handle, ops, z, top)


def test_one_variable_box_keeps_every_index():
    # with one variable a zero term is the whole sum, not a proper sub-sum
    problem = EquationProblem(make_handle(SequenceSpec.power(2)), [[2, -1]], 0)
    assert box_solutions(problem, 30)[0] == [(n,) for n in range(31)]
    problem = EquationProblem(make_handle(ZERO_HEAVY["table-n2-plus-1"]), [[-2, 1]], 0)
    assert box_solutions(problem, 30)[0] == [(0,), (2,)]


BOX_SPECS = {
    "fib": SequenceSpec.recurrence([1, 1], [1, 2]),
    "trib": SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]),
    "pell": SequenceSpec.recurrence([1, 2], [1, 2]),
    "sum23": SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)]),
}
BOX_OPS = [[1], [-1], [2], [-2], [1, 1], [1, -1], [-1, 0, 1], [3, -1]]


@pytest.mark.parametrize("label", sorted(BOX_SPECS))
def test_box_matches_reference_on_recurrences(label):
    handle = make_handle(BOX_SPECS[label])
    rng = random.Random("box:" + label)
    for s in (2, 3, 4):
        top = {2: 60, 3: 30, 4: 14}[s]
        cases = [[[1]] * (s - 1) + [[-1]], [[2], [-1], [1], [-1]][:s]]
        cases += [[rng.choice(BOX_OPS) for _ in range(s)] for _ in range(4)]
        for ops in cases:
            assert_box_matches_reference(handle, ops, 0, top)
            # a target that some index tuple attains, so z != 0 has hits
            for _ in range(2):
                tup = [rng.randint(0, top) for _ in range(s)]
                z = sum(apply(Operator(op), handle, n) for op, n in zip(ops, tup))
                if z:
                    assert_box_matches_reference(handle, ops, z, top)
    # mirrored equations, which the box scan joins half against half: equal
    # rows within a half, and halves in any order
    rng = random.Random("mirror:" + label)
    for half, top in ((1, 60), (2, 14), (3, 8)):
        cases = [[[1]] * half + [[-1]] * half, [[1], [-1]] * half]
        for _ in range(4):
            ops = [rng.choice(BOX_OPS) for _ in range(half)]
            ops += [[-c for c in op] for op in ops]
            rng.shuffle(ops)
            cases.append(ops)
        for ops in cases:
            assert_box_matches_reference(handle, ops, 0, top)


# rows that are negations two by two, from operators that are not: on
# Fibonacci [1, 1] is r_{n+2} and [0, 0, -1] is -r_{n+2}; on 2**n + n,
# [0, 2, -3, 1] is -1 and [-2, 3, -1] is 1 everywhere
ROW_MIRRORS = [
    ("fib", [[1, 1], [0, 0, -1]]),
    ("fib", [[1, 1], [-1], [1], [0, 0, -1]]),
    ("table-2n-plus-n", [[0, 2, -3, 1], [-2, 3, -1]]),
    ("table-2n-plus-n", [[1], [0, -2, 3, -1], [-1], [2, -3, 1]]),
]


@pytest.mark.parametrize("case", range(len(ROW_MIRRORS)))
def test_mirror_pairs_are_read_from_the_rows(case, monkeypatch):
    label, ops = ROW_MIRRORS[case]
    spec = BOX_SPECS.get(label) or ZERO_HEAVY.get(label)
    problem = EquationProblem(make_handle(spec), ops, 0)
    assert _mirrored(sorted(_value_table(problem, 10)), 0)
    assert not _mirrored(sorted(_value_table(problem, 10)), 1)
    assert solve_full(problem).instantiate(14) == {t for t, _ in brute_force(problem, 14)}
    top = 40 if len(ops) == 2 else 14
    monkeypatch.setattr(equations, "_meet_in_the_middle", _refuse_kernel)
    assert box_solutions(problem, top) == reference_box_solutions(problem, top)


def test_box_checks_sub_sums_of_three_terms_with_a_target():
    # 2 r_0 - r_1 = 0 on Fibonacci, so (0, 1, 5) sums to r_5 = 13 with a
    # vanishing pair: it is degenerate and must be dropped
    handle = make_handle(BOX_SPECS["fib"])
    problem = EquationProblem(handle, [[2], [-1], [1]], 13)
    found = box_solutions(problem, 20)[0]
    assert (0, 1, 5) not in found
    assert found == reference_box_solutions(problem, 20)[0]


def test_value_table_errors_match_reference():
    for spec, top, ops in ((SequenceSpec.table([1, 3, 4, 9, 20]), 6, [[1], [0, 1]]),
                           (SequenceSpec.table([1, 3, 4, 9, 20]), 3, [[1], [1, 0, 1]]),
                           (SequenceSpec.table([1, 3, 2]), 5, [[1], [-1]]),
                           (SequenceSpec.table([], generator="2**(n - 3)"), 4, [[1], [-1]])):
        errors = []
        for box in (box_solutions, reference_box_solutions):
            try:
                box(EquationProblem(make_handle(spec), ops, 0), top)
                errors.append(None)
            except ValueError as exc:
                errors.append((type(exc), str(exc)))
        assert errors[0] is not None and errors[0] == errors[1], errors


def test_unknowns_are_capped():
    cap = EquationProblem.MAX_UNKNOWNS
    assert cap == 7
    assert EquationProblem(HANDLES["pow2"], [[1]] * (cap - 1) + [[-1]], 0).s == cap
    with pytest.raises(ValueError, match="8 unknowns; at most 7"):
        EquationProblem(HANDLES["pow2"], [[1]] * cap + [[-1]], 0)


# ---------------------------------------------------------------------------
# _meet_in_the_middle: half sums and lookups inside C iterators
# ---------------------------------------------------------------------------

def _mitm_rows(rng, s, length):
    """Rows of small values with repeats, some rows equal to or the negation
    of an earlier one, so that both halves have colliding sums."""
    rows = []
    for j in range(s):
        pick = rng.random()
        if j and pick < 0.25:
            rows.append(list(rows[rng.randrange(j)]))
        elif j and pick < 0.5:
            rows.append([-v for v in rows[rng.randrange(j)]])
        else:
            rows.append([rng.randint(-4, 4) for _ in range(length)])
    return rows


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_half_sums_follow_product_order(s):
    rng = random.Random("half-sums:%d" % s)
    rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] for _ in range(s)]
    for k in range(s + 1):
        assert list(_half_sums(rows[:k])) == [sum(t) for t in itertools.product(*rows[:k])]


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_meet_in_the_middle_matches_reference(s):
    rng = random.Random("mitm:%d" % s)
    length = {1: 12, 2: 12, 3: 9, 4: 7, 5: 5}[s]
    for _ in range(12):
        rows = _mitm_rows(rng, s, length)
        targets = {0, sum(rng.choice(row) for row in rows), rng.randint(-6, 6)}
        for target in sorted(targets):
            want = sorted(reference_meet_in_the_middle(rows, target))
            assert sorted(_meet_in_the_middle(rows, target)) == want, (rows, target)
            # pruned rows: the hits are the reference hits on the kept indices
            indices = [[i for i, v in enumerate(row) if v] for row in rows]
            pruned = [[row[i] for i in idx] for row, idx in zip(rows, indices)]
            kept = [t for t in want if all(t[j] in indices[j] for j in range(s))]
            assert sorted(_meet_in_the_middle(pruned, target, indices)) == kept, \
                (rows, target)


# ---------------------------------------------------------------------------
# _box_scan: the hashed half listed once per orbit of equal rows
# ---------------------------------------------------------------------------

def reference_mirror_pairs(vals, z):
    """Rows paired with their negations one by one, waiting rows matched in
    sorted order: the pairs, or None when some row is left unpaired."""
    s = len(vals)
    if z != 0 or s % 2:
        return None
    rows = [tuple(row) for row in vals]
    waiting, runs = {}, {}
    for r in sorted(range(s), key=rows.__getitem__):
        partners = waiting.get(tuple(-v for v in rows[r]))
        if partners:
            l = partners.pop(0)
            runs.setdefault(rows[l], []).append((l, r))
        else:
            waiting.setdefault(rows[r], []).append(r)
    if 2 * sum(map(len, runs.values())) != s:
        return None
    return list(runs.values())


def _seeded_rows(rng):
    """Rows of length 4 that are mirrored as often as not: negations
    shuffled in, zero rows, rows that start with zeros, one entry nudged."""
    s = rng.randint(1, 7)
    pool = [[0, 0, 0, 0], [0, 0, 1, -2], [0, 0, -1, 2], [1, -1, 0, 3], [-1, 2, 2, 0],
            [2, 0, 0, 0], [0, 1, 0, 0]]
    if rng.random() < 0.5:
        rows = [list(rng.choice(pool)) for _ in range(s // 2)]
        rows += [[-v for v in row] for row in rows]
        if s % 2:
            rows.append(list(rng.choice(pool)))
    else:
        rows = [list(rng.choice(pool)) for _ in range(s)]
    if rng.random() < 0.2:
        row = rng.choice(rows)
        row[rng.randrange(4)] += rng.choice((1, -1))
    rng.shuffle(rows)
    return rows


def test_mirror_pairs_agree_with_the_pairing_reference():
    rng = random.Random("mirror-pairs")
    verdicts = set()
    for _ in range(600):
        vals = _seeded_rows(rng)
        for z in (0, 0, rng.choice((1, -2))):
            mirrored = _mirrored(sorted(vals), z)
            pairs = reference_mirror_pairs(vals, z)
            assert mirrored == (pairs is not None), (vals, z)
            if pairs is not None:
                pairs = [pair for run in pairs for pair in run]
                assert sorted(p for pair in pairs for p in pair) == list(range(len(vals)))
                assert all(vals[r] == [-v for v in vals[l]] for l, r in pairs)
            verdicts.add((z, not mirrored))
    assert verdicts == {(0, True), (0, False), (1, True), (-2, True)}


def test_half_entries_list_each_orbit_once():
    # the orbits of the listed entries are exactly the index tuples with
    # distinct indices and nonzero terms, each once, and each entry carries
    # the sum of its terms
    rng = random.Random("half-entries")
    for _ in range(40):
        runs = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
        rows = []
        for length in runs:
            row = [rng.choice((0, 1, -1, 2, 5)) for _ in range(6)]
            rows += [row] * length
        entries, sums = _half_entries(rows, runs)
        assert sums == [sum(row[v] for row, v in zip(rows, e)) for e in entries]
        expanded = [t for e in entries for t in _orbit(e, runs)]
        want = [t for t in itertools.product(range(6), repeat=len(rows))
                if len(set(t)) == len(t) and all(row[v] for row, v in zip(rows, t))]
        assert sorted(expanded) == want, (rows, runs)


def test_equal_rows_are_searched_once_per_orbit(monkeypatch):
    # a run of equal rows in the hashed half lists its indices increasing,
    # so the kernel yields at most half the ordered tuples that sum to z:
    # a plain kernel over the full rows yields every one of them
    fib = make_handle(BOX_SPECS["fib"])
    hits = []

    def counting(*args, **kwargs):
        for hit in _meet_in_the_middle(*args, **kwargs):
            hits.append(hit)
            yield hit

    monkeypatch.setattr(equations, "_meet_in_the_middle", counting)
    for ops, z, solutions in (([[-1]] * 3 + [[1]], 0, 162), ([[1], [1], [-1], [-1]], 3, 8)):
        problem = EquationProblem(fib, ops, z)
        hits.clear()
        found, vals = box_solutions(problem, 30)
        ordered = sum(1 for _ in reference_meet_in_the_middle(vals, z))
        assert 2 * len(hits) <= ordered, (ops, z, len(hits), ordered)
        assert len(found) == solutions
        monkeypatch.setattr(equations, "_meet_in_the_middle", _meet_in_the_middle)
        assert found == reference_box_solutions(problem, 30)[0]
        monkeypatch.setattr(equations, "_meet_in_the_middle", counting)


# Runs of 2 to 5 equal rows that are not mirrored, in the hashed half, across
# the halves and in the streamed half; zero-heavy rows; and rows that are
# equal although their operators differ (on Fibonacci [1, 1] and [0, 0, 1]
# are both r_{n+2}; on 2**n + n [2, -3, 1] is -1 everywhere)
RUN_CASES = [
    ("fib", [[-1], [-1], [1], [2]], 0, 16),
    ("fib", [[-1]] * 3 + [[1]], 0, 16),
    ("fib", [[1]] * 4, 40, 16),
    ("fib", [[-1]] * 4 + [[1]], 0, 10),
    ("fib", [[-1]] * 5 + [[1]], 0, 7),
    ("fib", [[1]] * 5 + [[-2]], 3, 7),
    ("fib", [[-1], [-1], [1], [1], [1], [2]], 0, 7),
    ("fib", [[-1, -1], [0, 0, -1], [1], [2]], 0, 16),
    ("fib", [[1, 1], [0, 0, 1], [-1], [-1], [1]], 4, 10),
    ("pell", [[-1]] * 2 + [[1]] * 2 + [[2]], 0, 10),
    ("pow2", [[2, -1], [2, -1], [1], [-2]], 0, 14),
    ("table-2n-plus-n", [[2, -3, 1]] * 3 + [[1]], 0, 14),
    ("table-2n-plus-n", [[2, -3, 1], [2, -3, 1], [-2, 3, -1], [1], [1]], 7, 9),
    ("table-n2-plus-1", [[-2, 1]] * 3 + [[1]], 0, 14),
    ("table-n2-plus-1", [[-2, 1]] * 4 + [[1, -2, 1]], 8, 9),
]


@pytest.mark.parametrize("case", range(len(RUN_CASES)))
def test_box_matches_reference_on_runs_of_equal_rows(case):
    label, ops, z, top = RUN_CASES[case]
    handle = make_handle(BOX_SPECS.get(label) or ZERO_HEAVY.get(label))
    assert not _mirrored(sorted(_value_table(EquationProblem(handle, ops, z), top)), z)
    for side in (0, 3, top):
        assert_box_matches_reference(handle, ops, z, side)
