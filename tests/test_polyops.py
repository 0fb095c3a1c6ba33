"""The exact polynomial engine against sympy, which is the reference here.

polyops does its own division, lcm and irreducibility, the last by
Zassenhaus's test at every degree from 2 on; the program never imports sympy,
only these tests do.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from regseq import polyops

X = sympy.Symbol("X")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def to_sympy(cs):
    return sympy.Poly(list(reversed(cs)), X, domain="QQ")


def product(*polys):
    out = [1]
    for p in polys:
        acc = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                acc[i + j] += a * b
        out = acc
    return out


def random_monic(rng, degree):
    return [rng.randint(-9, 9) for _ in range(degree)] + [1]


def battery(seed=20261018, count=150):
    """Seeded monic integer polynomials of degree 1-6, half of them built as
    products so that reducible cases and rational roots are common."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        if k % 2:
            out.append(random_monic(rng, rng.randint(1, 6)))
        else:
            d1 = rng.randint(1, 3)
            d2 = rng.randint(1, 6 - d1)
            out.append(product(random_monic(rng, d1), random_monic(rng, d2)))
    return out


def test_is_irreducible_matches_sympy():
    for cs in battery():
        _, factors = to_sympy(cs).factor_list()
        want = len(factors) == 1 and factors[0][1] == 1
        assert polyops.is_irreducible(cs) == want, cs


def low_degree_battery(seed=20261020, count=200):
    """Seeded monic polynomials of degree 2 and 3: random ones, products with
    a linear factor, repeated roots such as X^2 (X - 1), coefficients near
    10^30, and integer roots near 10^10 such as those of X^2 - 10^20."""
    rng = random.Random(seed)
    out = [[-10 ** 20, 0, 1], [-10 ** 20, -1, 1], [0, 0, -1, 1]]
    for k in range(count):
        n, kind = 2 + k % 2, k // 2 % 5
        linear = [[rng.randint(-9, 9), 1] for _ in range(2)]
        if kind == 0:
            out.append(random_monic(rng, n))
        elif kind == 1:
            out.append(product(linear[0], random_monic(rng, n - 1)))
        elif kind == 2:
            out.append(product(linear[0], *linear[:n - 1]))
        elif kind == 3:
            out.append([rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)] + [1])
        else:
            roots = [rng.choice((-1, 1)) * (10 ** 10 + rng.randint(-10 ** 5, 10 ** 5))
                     for _ in range(n)]
            split = product(*[[-r, 1] for r in roots])
            out += [split, [split[0] + 1] + split[1:]]
    return out


def test_is_irreducible_matches_sympy_at_degrees_two_and_three():
    answers = []
    for cs in low_degree_battery():
        _, factors = to_sympy(cs).factor_list()
        want = len(factors) == 1 and factors[0][1] == 1
        assert polyops.is_irreducible(cs) == want, cs
        answers.append(want)
    assert 40 < sum(answers) < len(answers) - 40


# Fixed degree >= 4 cases: X^4 + 1 and X^4 - 10X^2 + 1 are irreducible but
# reducible modulo every prime, and so is (X - 1)^4 - 10(X - 1)^2 + 1, whose
# dominant real root is 1 + sqrt 2 + sqrt 3; the degree-8 minimal polynomial
# of sqrt 2 + sqrt 3 + sqrt 5; tetranacci and pentanacci.
ZASSENHAUS_CASES = [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [-8, 16, -4, -4, 1],
                    [576, 0, -960, 0, 352, 0, -40, 0, 1],
                    [-1, -1, -1, -1, 1], [-1, -1, -1, -1, -1, 1]]


def zassenhaus_battery(seed=20261019, count=140):
    """Seeded monic polynomials of degree 4-10: random ones, products of two
    factors, products with a repeated factor, and both kinds with coefficients
    near 10^30, after the fixed cases and the cyclotomic polynomials."""
    rng = random.Random(seed)
    out = list(ZASSENHAUS_CASES)
    out += [[int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(k, X), X).all_coeffs())]
            for k in (5, 7, 8, 9, 11, 12, 15, 16, 20, 22, 24, 30)]
    for k in range(count):
        n, kind = 4 + k % 7, k // 7 % 5
        a = rng.randint(1, n // 2)
        if kind == 0:
            out.append(random_monic(rng, n))
        elif kind == 1:
            out.append(product(random_monic(rng, a), random_monic(rng, n - a)))
        elif kind == 2:
            g = random_monic(rng, a)
            out.append(product(g, g, random_monic(rng, n - 2 * a)))
        elif kind == 3:
            out.append([rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)] + [1])
        else:
            big = [rng.randint(-10 ** 15, 10 ** 15) for _ in range(n)]
            out.append(product(big[:a] + [1], big[a:] + [1]))
    return out


def test_is_irreducible_matches_sympy_from_degree_four():
    answers = []
    for cs in zassenhaus_battery():
        _, factors = to_sympy(cs).factor_list()
        want = len(factors) == 1 and factors[0][1] == 1
        assert polyops.is_irreducible(cs) == want, cs
        answers.append(want)
    assert answers[:len(ZASSENHAUS_CASES)] == [True] * len(ZASSENHAUS_CASES)
    assert 40 < sum(answers) < len(answers) - 40


def test_divides_and_lcm_match_sympy():
    polys = battery(seed=7, count=80)
    for p, q in zip(polys, polys[1:]):
        for a, b in ((p, q), (p, product(p, q)), (q, product(p, q))):
            _, rem = sympy.div(to_sympy(b), to_sympy(a))
            assert polyops.divides(a, b) == rem.is_zero, (a, b)
        want = sympy.Poly(sympy.lcm(to_sympy(p), to_sympy(q)), X).monic()
        got = polyops.lcm(p, q)
        assert all(isinstance(c, int) for c in got)
        assert got == [int(c) for c in reversed(want.all_coeffs())], (p, q)


def test_fixed_cases():
    quartic = [1, 0, -10, 0, 1]                    # X^4 - 10X^2 + 1
    assert polyops.is_irreducible(quartic)
    split = product([1, 1, 1], [-2, 0, 1])         # (X^2 + X + 1)(X^2 - 2)
    assert not polyops.is_irreducible(split)
    big = 10 ** 20
    assert polyops.is_irreducible([-big, -1, 1])
    assert not polyops.is_irreducible([-big, 0, 1])
    assert polyops.lcm([-1, 1], [1, 1]) == [-1, 0, 1]
    assert polyops.lcm([-1, 1], [1, -2, 1]) == [1, -2, 1]


def test_non_monic_input_is_rejected():
    with pytest.raises(ValueError):
        polyops.is_irreducible([1, 0, 2])                     # 2X^2 + 1
    with pytest.raises(ValueError):
        polyops.is_irreducible([Fraction(1, 2), 0, 0, 1])     # X^3 + 1/2
    with pytest.raises(ValueError):
        polyops.lcm([1, 2], [1, 1])


def run_python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_sympy_stays_off_the_import_path():
    out = run_python(
        "import sys\n"
        "import regseq.cli\n"
        "print('sympy' in sys.modules)\n"
        "regseq.cli.run_suite()\n"
        "print('sympy' in sys.modules)\n")
    assert out.split() == ["False", "False"]


def test_degree_four_irreducibility_needs_no_sympy(tmp_path):
    spec = tmp_path / "tetranacci.json"
    spec.write_text(json.dumps({"kind": "recurrence",
                                "coeffs": ["1", "1", "1", "1"],
                                "initials": ["1", "2", "4", "8"]}))
    out = run_python(
        "import sys\n"
        "from regseq import cli\n"
        "code = cli.main(['classify', '--seq', %r, '--op', '[-1,-1,-1,-1,1]'])\n"
        "print('sympy' in sys.modules, code)\n" % str(spec))
    report, loaded = out.splitlines()
    assert json.loads(report) == {
        "certificate": {"level": "Proved", "reason": "minpoly-divides"},
        "exceptions": [], "kind": "CofiniteZero"}
    assert loaded == "False 0"


def test_huge_constant_coefficient_classifies(tmp_path):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"kind": "recurrence",
                                "coeffs": ["100000000000000000000", "1"],
                                "initials": ["1", "2"]}))
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "regseq.cli", "classify",
                           "--seq", str(spec), "--op", "[1]"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["kind"] == "FiniteRoots"
    assert report["certificate"] == {"level": "BoundedCheck", "N": "300"}


# ---------------------------------------------------------------------------
# isolate_largest_root_above: Sturm counts carried across bisection steps
# ---------------------------------------------------------------------------

def count_roots(chain, a, b):
    return polyops._sign_variations(chain, a) - polyops._sign_variations(chain, b)


def reference_isolate_largest_root_above(coeffs, floor, eps):
    cs = polyops.trim(coeffs)
    chain = polyops.sturm_chain(cs)
    lo = Fraction(floor)
    hi = Fraction(polyops.cauchy_bound(cs))
    if polyops.peval(cs, lo) == 0:
        lo += Fraction(1, 10 ** 9)
    if count_roots(chain, lo, hi) == 0:
        return None
    while count_roots(chain, lo, hi) > 1 or hi - lo > eps:
        mid = (lo + hi) / 2
        if polyops.peval(cs, mid) == 0:
            if count_roots(chain, mid, hi) == 0:
                return (mid, mid)
            lo = mid
            continue
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def sympy_rational_roots(cs):
    """sympy's rational roots, ascending."""
    return sorted(Fraction(int(r.p), int(r.q))
                  for r in sympy.roots(to_sympy(cs), filter="Q"))


# Bisection midpoints that land exactly on a rational root below the largest
# one: (X^2 - 1)(X^2 - 2) from 0, whose first midpoint is 1, and two quartics
# with the roots 1 and -3 (and 2 or 1 +- sqrt 3) from -5.
MIDPOINT_ROOT_POLYS = [[2, 0, -3, 0, 1], [6, -4, -5, 2, 1], [6, -3, -5, 1, 1],
                       [0, 2, -2, -1, 1]]


def test_isolation_matches_reference():
    rng = random.Random("isolate")
    epsilons = (Fraction(1), Fraction(1, 2 ** 12))
    hits = {"none": 0, "interval": 0, "exact": 0}
    for cs in MIDPOINT_ROOT_POLYS + battery(count=40):
        floors = [Fraction(-5), Fraction(0), Fraction(1),
                  Fraction(rng.randint(-40, 40), rng.randint(1, 8))]
        floors += sympy_rational_roots(cs)[:2]
        for floor in floors:
            for eps in epsilons:
                got = polyops.isolate_largest_root_above(cs, floor, eps)
                assert got == reference_isolate_largest_root_above(cs, floor, eps), (
                    cs, floor, eps)
                hits["none" if got is None else
                     "exact" if got[0] == got[1] else "interval"] += 1
    # the battery reaches every exit: no root, an interval, an exact root
    assert min(hits.values()) > 0, hits
