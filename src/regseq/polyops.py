"""Exact polynomial and interval arithmetic over the rationals.

Polynomials are plain coefficient lists in *ascending* order: ``[c0, c1, ...]``
represents c0 + c1*X + ... .  Everything here is exact -- coefficients are
Python ints or ``fractions.Fraction``; no floats ever enter a certificate.

The module provides

* evaluation (point and interval),
* Sturm chains with root counting on half-open intervals (a, b],
* bisection isolation of the largest real root above 1,
* exact division, divisibility and lcm over Q,
* rational roots of monic integer polynomials by Sturm bisection, and
  irreducibility over Q (degree <= 3 from the rational roots; higher degrees
  through sympy's factorization, imported only for them),
* synthetic division of a monic polynomial by (X - t) with t known only as a
  rational interval.

Intervals are pairs (lo, hi) of Fractions with lo <= hi.
"""

from fractions import Fraction


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


def _require_monic_integer(cs):
    if not cs or cs[-1] != 1 or any(Fraction(c).denominator != 1 for c in cs):
        raise ValueError("expected a monic integer polynomial, got %r" % (cs,))


def divides(p, q):
    """True iff p divides q in Q[X] (both nonzero)."""
    p, q = trim(p), trim(q)
    if not p:
        return False
    if not q:
        return True
    if degree(p) > degree(q):
        return False
    return not _pdivmod(q, p)[1]


def lcm(p, q):
    """Least common multiple of two monic integer polynomials.

    The result is monic with integer coefficients: by Gauss's lemma every
    monic factor of a monic integer polynomial has integer coefficients."""
    p, q = trim(p), trim(q)
    _require_monic_integer(p)
    _require_monic_integer(q)
    g, r = p, q
    while r:
        g, r = r, _pdivmod(g, r)[1]
    g = [Fraction(c) / g[-1] for c in g]
    quo, _ = _pdivmod(p, g)
    out = [0] * (len(quo) + len(q) - 1)
    for i, a in enumerate(quo):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return [int(c) for c in out]


def rational_roots(coeffs):
    """All rational roots of a monic integer polynomial, ascending.

    They are integers (rational root theorem), so Sturm counts on intervals
    with half-integer ends -- never a root -- bisect [-B, B] down to unit
    width, and the one integer inside each unit interval that holds a root
    is tested exactly.  The cost grows with log B, not with B."""
    cs = trim(coeffs)
    _require_monic_integer(cs)
    chain = sturm_chain(cs)
    half = Fraction(1, 2)
    hi = cauchy_bound(cs) + half    # B is an integer for monic integer input
    roots = []
    # (lo, hi, sign variations at lo and at hi): a root lies between iff they differ
    stack = [(-hi, hi, _sign_variations(chain, -hi), _sign_variations(chain, hi))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if peval(cs, lo + half) == 0:
                roots.append(lo + half)
            continue
        mid = lo + (hi - lo) // 2
        vmid = _sign_variations(chain, mid)
        stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(roots)


def is_irreducible(coeffs):
    """Irreducibility over Q of a nonconstant monic integer polynomial.

    A reducible polynomial of degree 2 or 3 has a linear factor, so the
    rational-root pass settles every degree up to 3; sympy's factorization
    (complete at every degree) settles the rest and is imported only then.
    """
    cs = trim(coeffs)
    if degree(cs) < 1:
        return False
    if degree(cs) == 1:
        return True
    if rational_roots(cs):
        return False
    if degree(cs) <= 3:
        return True
    import sympy
    _, factors = sympy.Poly(list(reversed(cs)), sympy.Symbol("X")).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Sturm chains and root isolation
# ---------------------------------------------------------------------------

def _pdivmod(p, q):
    """Polynomial division with remainder over Fractions."""
    rem = [Fraction(c) for c in trim(p)]
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    for k in reversed(range(len(quo))):
        quo[k] = rem[k + len(q) - 1] / q[-1]
        for i, c in enumerate(q):
            rem[k + i] -= quo[k] * c
    return trim(quo), trim(rem[:len(q) - 1])


def sturm_chain(coeffs):
    cs = [Fraction(c) for c in trim(coeffs)]
    chain = [cs]
    if degree(cs) >= 1:
        chain.append(trim([i * c for i, c in enumerate(cs)][1:]))
    while degree(chain[-1]) >= 1:
        _, rem = _pdivmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
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
    # Sign variations at lo and hi, carried across the steps: the roots in
    # (lo, hi] number v_lo - v_hi.
    v_lo, v_hi = _sign_variations(chain, lo), _sign_variations(chain, hi)
    if v_lo == v_hi:
        return None
    while v_lo - v_hi > 1 or hi - lo > eps:
        mid = (lo + hi) / 2
        v_mid = _sign_variations(chain, mid)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        elif peval(cs, mid) == 0:
            # The largest root is rational and hit exactly: return a
            # degenerate-width interval around it.
            return (mid, mid)
        else:
            hi = mid  # no root in (mid, hi], so v_hi stays
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
