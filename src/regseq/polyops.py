"""Exact polynomial and interval arithmetic over the rationals.

Polynomials are plain coefficient lists in *ascending* order: ``[c0, c1, ...]``
represents c0 + c1*X + ... .  Everything here is exact -- coefficients are
Python ints or ``fractions.Fraction``; no floats ever enter a certificate.

The module provides

* evaluation (point and interval),
* Sturm chains with root counting on half-open intervals (a, b],
* bisection isolation of the largest real root above 1,
* exact division, divisibility and lcm over Q,
* irreducibility over Q of monic integer polynomials, at every degree by
  factoring modulo a prime, Hensel lifting and recombination, in exact
  integer arithmetic,
* synthetic division of a monic polynomial by (X - t) with t known only as a
  rational interval.

Intervals are pairs (lo, hi) of Fractions with lo <= hi.
"""

from fractions import Fraction
from itertools import combinations, zip_longest
from math import isqrt

# odd primes that keep P squarefree, tried before Hensel lifting (the
# one with the fewest factors is lifted)
IRREDUCIBILITY_PRIMES = 5


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
    quo, _ = _pdivmod(p, _gcd(p, q))
    out = [0] * (len(quo) + len(q) - 1)
    for i, a in enumerate(quo):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return [int(c) for c in out]


def is_irreducible(coeffs):
    """Irreducibility over Q of a nonconstant monic integer polynomial.

    Degree 1 is irreducible.  From degree 2 on, the test is Zassenhaus's
    (1969) and complete:
    * a square factor shows in gcd(P, P');
    * else P is factored modulo the first IRREDUCIBILITY_PRIMES odd primes
      that keep it squarefree (distinct-degree factorisation, then
      Cantor-Zassenhaus splitting with probes in a fixed order), and P
      irreducible modulo one of them is irreducible;
    * else the factors modulo the prime with the fewest are Hensel-lifted
      past twice the Mignotte bound, and P is reducible exactly when the
      product of some subset of total degree <= n/2, in symmetric residues,
      divides it over Z.
    """
    cs = trim(coeffs)
    n = degree(cs)
    if n < 1:
        return False
    if n == 1:
        return True
    _require_monic_integer(cs)
    deriv = [i * c for i, c in enumerate(cs)][1:]
    if degree(_gcd(cs, deriv)) > 0:
        return False
    best, p = None, 1
    for _ in range(IRREDUCIBILITY_PRIMES):
        while True:     # P is squarefree, so only finitely many primes are skipped
            p += 2
            if (all(p % q for q in range(3, isqrt(p) + 1, 2))
                    and degree(_gcd_mod(cs, deriv, p)) == 0):
                break
        ddf = _distinct_degree(cs, p)
        count = sum(degree(g) // d for g, d in ddf)
        if count == 1:
            return True
        if best is None or count < best[0]:
            best = (count, p, ddf)
    _, p, ddf = best
    factors = [u for g, d in ddf for u in _equal_degree(g, d, p)]
    # a monic factor of degree k <= n/2 has |coefficients| <= 2^k ||P||_2
    bound = 2 ** (n // 2) * (isqrt(sum(c * c for c in cs)) + 1)
    # Hensel lifting, linear.  a_i = (P/g_i)^(p^deg g_i - 2) inverts P/g_i
    # modulo the irreducible g_i, so sum_i a_i P/g_i = 1 (mod p), and the
    # error e = (P - prod g_i) / m corrects each g_i by m (a_i e mod g_i).
    inv = [_pow_mod(_divmod_mod(cs, g, p)[0], p ** degree(g) - 2, g, p) for g in factors]
    lifted, m = list(map(list, factors)), p
    while m <= 2 * bound:
        prod = [1]
        for h in lifted:
            prod = _mul_mod(prod, h, m * p)
        err = [c // m for c in _sub(cs, prod)]
        for h, g, a in zip(lifted, factors, inv):
            for j, c in enumerate(_divmod_mod(_mul_mod(a, err, p), g, p)[1]):
                h[j] += m * c
        m *= p
    for size in range(1, n // 2 + 1):
        for subset in combinations(lifted, size):
            if sum(map(degree, subset)) <= n // 2:
                g = [1]
                for h in subset:
                    g = _mul_mod(g, h, m)
                if divides([c - m if 2 * c > m else c for c in g], cs):
                    return False
    return True


# ---------------------------------------------------------------------------
# Polynomials modulo an integer m (a prime, or a prime power for monic divisors)
# ---------------------------------------------------------------------------

def _gcd(p, q):
    """Monic gcd over Q by Euclid's algorithm."""
    g, r = trim(p), trim(q)
    while r:
        g, r = r, _pdivmod(g, r)[1]
    return [Fraction(c) / g[-1] for c in g]


def _sub(a, b):
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def _mod(a, m):
    return trim([c % m for c in a])


def _mul_mod(a, b, m):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _mod(out, m)


def _divmod_mod(a, b, m):
    """Quotient and remainder modulo m; the lead of b is a unit mod m."""
    rem, b = _mod(a, m), _mod(b, m)
    inv = pow(b[-1], -1, m)
    quo = [0] * max(0, len(rem) - len(b) + 1)
    for k in reversed(range(len(quo))):
        quo[k] = c = rem[k + len(b) - 1] * inv % m
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % m
    return trim(quo), trim(rem[:len(b) - 1])


def _gcd_mod(a, b, p):
    """Monic gcd modulo the prime p."""
    a, b = _mod(a, p), _mod(b, p)
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a]


def _pow_mod(a, e, f, p):
    """a^e modulo (f, p)."""
    out, a = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, a, p), f, p)[1]
        a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
        e >>= 1
    return out


def _distinct_degree(f, p):
    """[(g, d)]: g the product of the monic degree-d factors of the
    squarefree f modulo p, one entry per degree that occurs."""
    f, h, d, out = _mod(f, p), [0, 1], 0, []
    while 2 * (d + 1) <= degree(f):
        d += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _sub(h, [0, 1]), p)
        if degree(g) > 0:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if degree(f) > 0:
        out.append((f, degree(f)))
    return out


def _equal_degree(g, d, p):
    """The monic irreducible factors, all of degree d, of g modulo the odd
    prime p.  The probes a run through every nonconstant polynomial of degree
    < deg g in base-p order; one with a = 0 mod one factor and a = 1 mod
    another splits g, so the search ends."""
    if degree(g) == d:
        return [g]
    k = p
    while True:
        a, j = [], k
        while j:
            j, c = divmod(j, p)
            a.append(c)
        k += 1
        b = _pow_mod(a, (p ** d - 1) // 2, g, p)
        u = _gcd_mod(g, _sub(b, [1]), p)
        if 0 < degree(u) < degree(g):
            return _equal_degree(u, d, p) + _equal_degree(_divmod_mod(g, u, p)[0], d, p)


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
