"""Exact polynomial and interval arithmetic over the rationals.

Polynomials are plain coefficient lists in *ascending* order: ``[c0, c1, ...]``
represents c0 + c1*X + ... .  Everything here is exact -- coefficients are
Python ints or ``fractions.Fraction``; no floats ever enter a certificate.

The module provides

* evaluation (point and interval),
* Sturm chains with root counting on half-open intervals (a, b],
* bisection isolation of the largest real root above 1,
* irreducibility over Q and exact divisibility (delegated to sympy, which is
  complete at every degree),
* synthetic division of a monic polynomial by (X - t) with t known only as a
  rational interval.

Intervals are pairs (lo, hi) of Fractions with lo <= hi.
"""

from fractions import Fraction

import sympy

_X = sympy.Symbol("X")


def trim(coeffs):
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def degree(coeffs):
    cs = trim(coeffs)
    return len(cs) - 1 if cs else -1


def peval(coeffs, x):
    """Evaluate by Horner's rule; exact for int/Fraction x."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def pneg(p):
    return [-c for c in p]


def to_sympy(coeffs):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs])), _X)


def from_sympy(poly):
    return trim([Fraction(c.p, c.q) for c in reversed(poly.all_coeffs())])


def divides(p, q):
    """True iff p divides q in Q[X] (both nonzero)."""
    p, q = trim(p), trim(q)
    if not p:
        return False
    if not q:
        return True
    if degree(p) > degree(q):
        return False
    _, rem = sympy.div(to_sympy(q), to_sympy(p), _X)
    return rem.is_zero

def lcm(p, q):
    """Least common multiple in Q[X], normalized monic with integer
    coefficients (our uses always produce a monic integer result)."""
    l = sympy.lcm(to_sympy(p).as_expr(), to_sympy(q).as_expr(), _X)
    cs = [Fraction(c) for c in from_sympy(sympy.Poly(l, _X))]
    lead = cs[-1]
    cs = [c / lead for c in cs]
    den = 1
    for c in cs:
        den = den * c.denominator // _gcd(den, c.denominator)
    return [int(c * den) for c in cs]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def rational_roots(coeffs):
    """All rational roots of an integer polynomial (exact, via divisor pairs)."""
    cs = trim(coeffs)
    if not cs:
        return []
    # Strip X^v factors; 0 is a root when v > 0.
    v = 0
    while cs[v] == 0:
        v += 1
    roots = [Fraction(0)] if v else []
    cs = cs[v:]
    if len(cs) == 1:
        return roots
    a0, ad = abs(int(cs[0])), abs(int(cs[-1]))
    for p in _divisors(a0):
        for q in _divisors(ad):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if peval(cs, cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def is_irreducible(coeffs):
    """Irreducibility over Q of a nonconstant integer polynomial.

    A rational-root pass handles the cheap rejections; the full factorization
    (complete at every degree) settles the rest.
    """
    cs = trim(coeffs)
    if degree(cs) < 1:
        return False
    if degree(cs) == 1:
        return True
    if rational_roots(cs):
        return False
    _, factors = to_sympy(cs).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Sturm chains and root isolation
# ---------------------------------------------------------------------------

def _pdivmod(p, q):
    """Polynomial division with remainder over Fractions."""
    p = [Fraction(c) for c in trim(p)]
    q = [Fraction(c) for c in trim(q)]
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    rem = p[:]
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and trim(rem):
        rem = trim(rem)
        if len(rem) - 1 < dq:
            break
        k = len(rem) - 1 - dq
        f = rem[-1] / lead
        quo[k] = f
        for i, c in enumerate(q):
            rem[i + k] -= f * c
        rem = rem[:-1]
    return trim(quo), trim(rem)


def sturm_chain(coeffs):
    cs = [Fraction(c) for c in trim(coeffs)]
    chain = [cs]
    if degree(cs) >= 1:
        chain.append(trim([i * c for i, c in enumerate(cs)][1:]))
    while degree(chain[-1]) >= 1:
        _, rem = _pdivmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(pneg(rem))
    return chain


def _sign_variations(chain, x):
    signs = []
    for p in chain:
        v = peval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    flips = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            flips += 1
    return flips


def count_roots(chain, a, b):
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_bound(coeffs):
    """All real roots lie in [-B, B] with B = 1 + max |c_i| / |lead|."""
    cs = trim(coeffs)
    lead = abs(Fraction(cs[-1]))
    m = max(abs(Fraction(c)) for c in cs[:-1]) if len(cs) > 1 else Fraction(0)
    return 1 + m / lead


def isolate_largest_root_above(coeffs, floor, eps):
    """Isolating interval (lo, hi) of the largest real root > floor.

    Returns None when there is no such root.  The result satisfies
    p(lo) * p(hi) != 0, exactly one root in (lo, hi], and hi - lo <= eps.
    Bisection keeps the invariant that no root exceeds hi.
    """
    cs = trim(coeffs)
    chain = sturm_chain(cs)
    lo = Fraction(floor)
    hi = Fraction(cauchy_bound(cs))
    if peval(cs, lo) == 0:
        # Nudge off an exact root at the floor.
        lo += Fraction(1, 10 ** 9)
    if count_roots(chain, lo, hi) == 0:
        return None
    while count_roots(chain, lo, hi) > 1 or hi - lo > eps:
        mid = (lo + hi) / 2
        if peval(cs, mid) == 0:
            # Rational root hit exactly: return a degenerate-width interval
            # around it once it is the largest root.
            if count_roots(chain, mid, hi) == 0:
                return (mid, mid)
            lo = mid
            continue
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def refine_root_interval(coeffs, lo, hi, eps):
    """Shrink an isolating interval (one sign change inside) to width <= eps."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return lo, hi
    slo = peval(coeffs, lo)
    shi = peval(coeffs, hi)
    if slo == 0 or shi == 0 or (slo > 0) == (shi > 0):
        raise ValueError("not a sign-change isolating interval")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        sm = peval(coeffs, mid)
        if sm == 0:
            return mid, mid
        if (sm > 0) == (slo > 0):
            lo, slo = mid, sm
        else:
            hi, shi = mid, sm
    return lo, hi


# ---------------------------------------------------------------------------
# Interval arithmetic (closed rational intervals)
# ---------------------------------------------------------------------------

def ival(x):
    x = Fraction(x)
    return (x, x)


def iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ineg(a):
    return (-a[1], -a[0])


def imul(a, b):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def iscale(a, c):
    c = Fraction(c)
    return (a[0] * c, a[1] * c) if c >= 0 else (a[1] * c, a[0] * c)


def ipow(a, k):
    out = ival(1)
    for _ in range(k):
        out = imul(out, a)
    return out


def iabs_hi(a):
    return max(abs(a[0]), abs(a[1]))


def iabs_lo(a):
    """Certified lower bound of |x| over the interval (0 when it straddles 0)."""
    if a[0] <= 0 <= a[1]:
        return Fraction(0)
    return min(abs(a[0]), abs(a[1]))


def peval_interval(coeffs, a):
    """Interval extension of polynomial evaluation (interval Horner)."""
    acc = ival(0)
    for c in reversed(list(coeffs)):
        acc = iadd(imul(acc, a), ival(c))
    return acc


def synthetic_quotient_intervals(coeffs, root_iv):
    """Interval coefficients of P(X)/(X - t), P monic, t in root_iv a root.

    With P = X^k - ...: q_{k-1} = 1 and q_{i-1} = c_i + t * q_i going down.
    Each quotient coefficient comes back as a rational interval.
    """
    cs = trim(coeffs)
    k = degree(cs)
    q = [None] * k
    q[k - 1] = ival(cs[k])
    for i in range(k - 1, 0, -1):
        q[i - 1] = iadd(ival(cs[i]), imul(root_iv, q[i]))
    return q
