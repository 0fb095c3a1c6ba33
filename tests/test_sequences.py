"""Sequence construction and evaluation against independent closed forms.

Every frozen expectation below is computed by a loop or closed form written
directly in this file, never by the code under test.
"""

import random
from fractions import Fraction

import pytest

from regseq import equations, polyops
from regseq import sequences as sq
from regseq.sequences import (KeplerLimit, MonotonicityError, SequenceSpec,
                              TableExhausted, kepler_limit, make_handle)


def fib_list(count):
    vals = [1, 2]
    while len(vals) < count:
        vals.append(vals[-1] + vals[-2])
    return vals[:count]


def factorial_list(count):
    vals = []
    acc = 1
    for n in range(count):
        acc = acc * (n + 2) if n else 2
        vals.append(acc)
    return vals


def test_power_elements():
    for q in (2, 3, 10):
        handle = make_handle(SequenceSpec.power(q))
        assert handle.values(20) == [q ** n for n in range(21)]


def test_fibonacci_convention_starts_1_2():
    handle = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
    assert handle.values(9) == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_factorial_convention_starts_at_two():
    handle = make_handle(SequenceSpec.factorial())
    assert handle.values(4) == [2, 6, 24, 120, 720]
    assert handle.values(4) == factorial_list(5)


def test_sum_of_two_powers():
    spec = SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)])
    handle = make_handle(spec)
    assert handle.values(12) == [2 ** n + 3 ** n for n in range(13)]


def test_table_with_generator_and_prefix():
    handle = make_handle(SequenceSpec.table([], generator="2**n + n"))
    assert handle.values(6) == [2 ** n + n for n in range(7)]
    mixed = make_handle(SequenceSpec.table([1, 3], generator="2**n + n"))
    assert mixed.values(4) == [1, 3, 6, 11, 20]


def test_table_without_generator_exhausts():
    handle = make_handle(SequenceSpec.table([1, 4, 9]))
    assert handle.values(2) == [1, 4, 9]
    with pytest.raises(TableExhausted):
        handle.eval(3)


def test_monotonicity_enforced():
    with pytest.raises(MonotonicityError):
        SequenceSpec.recurrence([1, 1], [2, 2])
    flat = make_handle(SequenceSpec.table([1, 3], generator="4"))
    flat.eval(2)
    with pytest.raises(MonotonicityError):
        flat.eval(3)


def test_json_round_trip():
    specs = [SequenceSpec.power(2),
             SequenceSpec.recurrence([1, 1], [1, 2]),
             SequenceSpec.factorial(),
             SequenceSpec.sum_of([SequenceSpec.power(2),
                                  SequenceSpec.power(3)]),
             SequenceSpec.table([7], generator="2**n + 6")]
    for spec in specs:
        back = SequenceSpec.from_json(spec.to_json())
        assert back == spec
        assert make_handle(back).values(10) == make_handle(spec).values(10)


def test_kepler_limit_power_is_exact():
    limit = kepler_limit(make_handle(SequenceSpec.power(2)))
    assert limit.is_algebraic
    lo, hi = limit.theta_interval()
    assert lo <= 2 <= hi


def test_kepler_limit_factorial_is_infinite():
    assert kepler_limit(make_handle(SequenceSpec.factorial())).is_infinite


def test_kepler_limit_fibonacci_brackets_golden_ratio():
    limit = kepler_limit(make_handle(SequenceSpec.recurrence([1, 1], [1, 2])))
    lo, hi = limit.theta_interval()
    assert lo <= Fraction(1618, 1000) <= hi or (float(lo) < 1.619 and float(hi) > 1.617)
    assert hi - lo < Fraction(1, 100)


def test_kepler_limit_sum_takes_dominant_part():
    spec = SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)])
    limit = kepler_limit(make_handle(spec))
    lo, hi = limit.theta_interval()
    assert lo <= 3 <= hi


def test_random_recurrences_strictly_increase():
    rng = random.Random(20260814)
    for _ in range(40):
        depth = rng.randint(1, 3)
        coeffs = [rng.randint(1, 5) for _ in range(depth)]
        initials = sorted(rng.sample(range(1, 50), depth))
        if depth == 1 and coeffs[0] == 1:
            coeffs[0] = 2
        handle = make_handle(SequenceSpec.recurrence(coeffs, initials))
        vals = handle.values(60)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # re-deriving from the recurrence reproduces the cache
        k = depth
        for n in range(k, 61):
            assert vals[n] == sum(coeffs[i] * vals[n - k + i] for i in range(k))


def test_cache_interleaving_is_consistent():
    handle = make_handle(SequenceSpec.recurrence([2, 1], [1, 3]))
    high = handle.eval(50)
    assert handle.eval(10) == handle.values(50)[10]
    assert handle.eval(50) == high


# ---------------------------------------------------------------------------
# _try_contraction: a certified early stop once kappa(theta) >= 1 is proved
# ---------------------------------------------------------------------------

def reference_try_contraction(handle):
    kepler = sq._cached_kepler(handle)
    if not kepler.is_algebraic or handle.spec.kind != sq.KIND_RECURRENCE:
        return None
    cp = sq.char_poly(handle.spec)
    if cp is None or cp != kepler.minpoly or cp.degree < 2:
        return None
    iv = kepler.interval
    for _ in range(80):
        quot = polyops.synthetic_quotient_intervals(cp.coeffs, iv)
        kappa = sum(polyops.iabs_hi(c) for c in quot[:-1])
        if kappa < 1:
            k = cp.degree
            w0 = Fraction(0)
            for t in range(k - 1):
                e_iv = polyops.iadd(polyops.ival(handle.eval(t + 1)),
                                    polyops.ineg(polyops.iscale(iv, handle.eval(t))))
                w0 = max(w0, polyops.iabs_hi(e_iv))
            return sq._Contraction(iv, kappa, w0, k - 1)
        if iv[0] == iv[1]:
            return None
        iv = polyops.refine_root_interval(cp.coeffs, iv[0], iv[1], (iv[1] - iv[0]) / 4)
    return None


def contraction_fields(data):
    if data is None:
        return None
    return (data.theta_iv, data.kappa, data.w0, data.step)


CONTRACTION_SPECS = {
    "fib": (SequenceSpec.recurrence([1, 1], [1, 2]), True),
    "pell": (SequenceSpec.recurrence([1, 2], [1, 2]), True),
    "trib": (SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]), False),
    "tetra": (SequenceSpec.recurrence([1, 1, 1, 1], [1, 2, 4, 8]), False),
}


@pytest.mark.parametrize("label", sorted(CONTRACTION_SPECS))
def test_contraction_matches_reference(label):
    spec, contracts = CONTRACTION_SPECS[label]
    got = contraction_fields(sq._try_contraction(make_handle(spec)))
    assert got == contraction_fields(reference_try_contraction(make_handle(spec)))
    assert (got is not None) == contracts


def test_failing_contraction_stops_without_refining(monkeypatch):
    def refuse(*args):
        raise AssertionError("refined after kappa >= 1 was proved")
    monkeypatch.setattr(polyops, "refine_root_interval", refuse)
    for label in ("trib", "tetra"):
        assert sq._try_contraction(make_handle(CONTRACTION_SPECS[label][0])) is None


@pytest.mark.parametrize("label", ["fib", "pell"])
def test_contraction_from_a_wide_interval_still_refines(label):
    # from [floor(theta), floor(theta) + 1] the upper bounds of kappa start at
    # 1 or more while theta's kappa is below 1: only refining decides it
    spec = CONTRACTION_SPECS[label][0]
    results = []
    for attempt in (sq._try_contraction, reference_try_contraction):
        handle = make_handle(spec)
        kepler = sq._cached_kepler(handle)
        lo = Fraction(int(kepler.interval[0]))
        handle._kepler = KeplerLimit.algebraic(kepler.minpoly, (lo, lo + 1))
        quot = polyops.synthetic_quotient_intervals(kepler.minpoly.coeffs, (lo, lo + 1))
        assert sum(polyops.iabs_hi(c) for c in quot[:-1]) >= 1
        results.append(contraction_fields(attempt(handle)))
    assert results[0] is not None and results[0] == results[1]


# ---------------------------------------------------------------------------
# One geometric cutoff and one contraction walk, against the loops they
# replaced
# ---------------------------------------------------------------------------

def reference_integer_cutoff(a, b, p, q):
    # the loop of operators._classify_geometric and of the geometric cutoff
    # of equations._proved_growth
    k = 0
    while a <= b:
        k += 1
        a *= p
        b *= q
    return k


def test_geometric_cutoff_matches_reference_on_a_grid():
    for a in range(1, 7):
        for b in range(0, 40, 3):
            for p in range(2, 7):
                for q in range(0, p):
                    assert sq._geometric_cutoff(a, b, p, q) == \
                        reference_integer_cutoff(a, b, p, q), (a, b, p, q)


def reference_contraction_index(handle, data, eps, degree, budget):
    # the loop of the former sequences._dominance_contraction
    hi = data.theta_iv[1]
    factor = degree * max(Fraction(1), hi) ** (degree - 1)
    n = 0
    while n <= max(budget, 64):
        if factor * data.defect_bound(n) < eps * handle.eval(n):
            return n
        n += 1
    return None


def reference_ratio_index(handle, data, budget):
    # the loop of the ratio walk of equations._proved_growth
    lo = data.theta_iv[0]
    margin = lo - (1 + (lo - 1) * Fraction(3, 4))
    n = 0
    while n <= max(budget, 64):
        if data.defect_bound(n) < margin * handle.eval(n):
            return n
        n += 1
    return None


@pytest.mark.parametrize("label", ["fib", "pell"])
def test_first_index_matches_both_old_walks(label):
    handle = make_handle(CONTRACTION_SPECS[label][0])
    data = sq._contraction_data(handle)
    hits = set()
    for budget in (0, 10, 64, 100):
        for degree in (0, 1, 2, 5):
            factor = degree * max(Fraction(1), data.theta_iv[1]) ** (degree - 1)
            for eps in (Fraction(1, 2), Fraction(1, 10 ** 6), Fraction(1, 10 ** 30),
                        Fraction(1, 10 ** 80)):
                got = data.first_index(handle, factor, eps, budget)
                assert got == reference_contraction_index(handle, data, eps,
                                                          degree, budget)
                hits.add(got is None)
        lo = data.theta_iv[0]
        margin = lo - (1 + (lo - 1) * Fraction(3, 4))
        assert data.first_index(handle, 1, margin, budget) == \
            reference_ratio_index(handle, data, budget)
    assert hits == {True, False}  # both exits are reached


def test_degree_zero_walk_stops_at_once():
    # the contraction cutoff of equations._proved_growth is asked for degree
    # 0 when s = 1 and the operator has degree 0: factor 0, as in
    # dominance_cutoff at degree 0
    handle = make_handle(CONTRACTION_SPECS["fib"][0])
    k, cert = sq.dominance_cutoff(handle, Fraction(1, 10 ** 9), degree=0)
    assert (k, cert.is_proved) == (0, True)
    _, _, _, cutoff = equations._proved_growth(handle, 10 ** 9)
    assert cutoff(0) == 0


# ---------------------------------------------------------------------------
# Uncertified limits: Unknown, from three evaluated terms
# ---------------------------------------------------------------------------

UNKNOWN_LIMIT_SPECS = {
    "table-2^n+n": SequenceSpec.table([], generator="2**n + n"),
    "reducible": SequenceSpec.recurrence([-2, 3], [1, 3]),
    "fib+table": SequenceSpec.sum_of([SequenceSpec.recurrence([1, 1], [1, 2]),
                                      SequenceSpec.table([], generator="n*n + 1")]),
}


@pytest.mark.parametrize("label", sorted(UNKNOWN_LIMIT_SPECS))
def test_uncertified_limit_is_unknown_after_three_terms(label):
    handle = make_handle(UNKNOWN_LIMIT_SPECS[label])
    limit = kepler_limit(handle)
    assert limit.kind == KeplerLimit.UNKNOWN
    assert not limit.is_algebraic and not limit.is_infinite
    assert len(handle.cache) <= 3
    with pytest.raises(ValueError):
        limit.theta_interval()
    assert sq.certify(handle).recurrence_certified is False


@pytest.mark.parametrize("spec", [SequenceSpec.table([1, 2]),
                                  SequenceSpec.recurrence([1], [5])],
                         ids=["two-value-table", "constant-recurrence"])
def test_short_sequences_are_refused(spec):
    with pytest.raises(ValueError, match="^not enough terms for a ratio scan$"):
        kepler_limit(make_handle(spec))


def test_three_value_table_is_enough():
    assert kepler_limit(make_handle(SequenceSpec.table([1, 2, 4]))).kind == \
        KeplerLimit.UNKNOWN


def _ratios_within_by_fractions(handle, lo, hi):
    """The Kepler sanity check as it reads: lo < r_{n+1} / r_n < hi for
    n = 10, ..., 99, each ratio an exact Fraction."""
    return all(lo < Fraction(handle.eval(n + 1), handle.eval(n)) < hi
               for n in range(10, 100))


def test_integer_ratio_check_agrees_with_fractions_on_shifted_intervals():
    specs = [SequenceSpec.power(2),
             SequenceSpec.recurrence([1, 1], [1, 2]),
             SequenceSpec.recurrence([1, 2], [1, 2]),
             SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]),
             SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)]),
             SequenceSpec.table([], generator="2**n + n")]
    checked = set()
    for spec in specs:
        h = make_handle(spec)
        ratios = [Fraction(h.eval(n + 1), h.eval(n)) for n in range(10, 100)]
        low, high = min(ratios), max(ratios)
        # the window's own extremes as bounds, where only strictness decides
        intervals = [(low, high), (low, high + 1), (low - 1, high),
                     (low - Fraction(1, 10 ** 40), high + Fraction(1, 10 ** 40))]
        for shift in range(-6, 7):
            for width in (Fraction(1, 1024), Fraction(1, 16), Fraction(1)):
                mid = ratios[40] + shift * width / 4
                intervals.append((mid - width, mid + width))
        for lo, hi in intervals:
            expected = _ratios_within_by_fractions(h, lo, hi)
            assert sq._ratios_within(h, lo, hi) == expected, (spec.kind, lo, hi)
            checked.add(expected)
    assert checked == {True, False}


@pytest.mark.parametrize("jump", [9, 10, 99, 100])
def test_integer_ratio_check_window_is_ten_to_ninety_nine(jump):
    # ratio 2 everywhere except r_{jump+1} / r_jump = 3/2
    values = [2 ** n if n <= jump else 3 * 2 ** (n - 1) for n in range(120)]
    h = make_handle(SequenceSpec.table(values))
    lo, hi = Fraction(7, 4), Fraction(9, 4)
    inside = not 10 <= jump <= 99
    assert _ratios_within_by_fractions(h, lo, hi) == inside
    assert sq._ratios_within(h, lo, hi) == inside
