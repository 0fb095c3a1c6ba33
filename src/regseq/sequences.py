"""Regular integer sequences: specs, exact evaluation, growth certification.

A *regular* sequence here is a strictly increasing sequence of positive
integers r_0 < r_1 < ... whose consecutive ratios r_{n+1}/r_n tend to a limit
theta in (1, oo].  Supported spec kinds:

* ``recurrence`` -- linear recurrence r_{n+k} = a_0 r_n + ... + a_{k-1} r_{n+k-1}
  with strictly increasing positive initial terms;
* ``power``      -- r_n = q^n for an integer base q >= 2, not a kind of its
  own: it is read as the order-1 recurrence r_{n+1} = q r_n with r_0 = 1;
* ``factorial``  -- evaluated as r_n = (n+2)!, which is strictly increasing
  from r_0 = 2 (n! itself repeats 1, 1 at the start);
* ``sum``        -- pointwise sum of sub-specs;
* ``table``      -- an explicit value table, optionally extended by a closed
  generator expression in n.  Table sequences exist as negative controls (for
  instance 2^n + n); no growth claim is certified for them.

All arithmetic is exact (Python bignums and Fractions).  The certification
layer provides two things the rest of the package builds on:

* ``kepler_limit``     -- the ratio limit: algebraic (an isolated root of the
  minimal polynomial with a rational isolating interval), infinite, or not
  certified at all (Unknown: tables, sums with such a part, reducible
  recurrences);
* ``dominance_cutoff`` -- an index k beyond which |r_{n+i} - theta^i r_n| stays
  below eps * r_n (or ratios exceed 1/eps when theta = oo).

Certified cutoffs carry Proved certificates; everything else is an explicit
BoundedCheck over the scanned window.
"""

import ast
import math
import operator
from fractions import Fraction

from . import polyops
from .jsonio import _json_int, _json_ints, _json_list
from .certs import Proved, BoundedCheck

KIND_RECURRENCE = "recurrence"
KIND_POWER = "power"  # a JSON spelling, read as an order-1 recurrence
KIND_FACTORIAL = "factorial"
KIND_SUM = "sum"
KIND_TABLE = "table"

# Number of terms a ratio scan may evaluate.  Exponential sequences exceed
# thousands of bits quickly, so this is intentionally modest.
RATIO_SCAN_BUDGET = 512

# Width of isolating intervals for algebraic ratio limits.
KEPLER_EPS = Fraction(1, 1024)

# Budget on the summed bit lengths of one handle's cached terms.  At the
# ceiling of `eval --n` (10,000) factorial caches about 531 Mbit, 2^n about
# 48 Mbit and Fibonacci about 33 Mbit; a power of 10^100 reaches the budget
# near n = 2,540.
MAX_CACHE_BITS = 1 << 30


class MonotonicityError(ValueError):
    """The evaluated prefix stopped being strictly increasing and positive."""

    def __init__(self, index, value, previous):
        self.index = index
        super().__init__(
            "sequence not strictly increasing at index %d (r_%d = %s, previous %s)"
            % (index, index, value, previous))


class TableExhausted(ValueError):
    """A table-backed sequence was asked past its data and has no generator."""


class CacheBudgetExceeded(ValueError):
    """The cached prefix of a handle would pass MAX_CACHE_BITS bits."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

class SequenceSpec:
    """Declarative description of a sequence; immutable once constructed."""

    def __init__(self, kind, coeffs=None, initials=None, parts=None,
                 values=None, generator=None):
        self.kind = kind
        self.coeffs = tuple(int(c) for c in coeffs) if coeffs is not None else None
        self.initials = tuple(int(c) for c in initials) if initials is not None else None
        self.parts = tuple(parts) if parts is not None else None
        self.values = tuple(int(v) for v in values) if values is not None else None
        self.generator = generator
        self._validate()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def recurrence(coeffs, initials):
        return SequenceSpec(KIND_RECURRENCE, coeffs=coeffs, initials=initials)

    @staticmethod
    def power(q):
        """q^n: the order-1 recurrence with coefficient q and r_0 = 1."""
        if q < 2:
            raise ValueError("power base must be an integer >= 2")
        return SequenceSpec.recurrence([q], [1])

    @staticmethod
    def factorial():
        return SequenceSpec(KIND_FACTORIAL)

    @staticmethod
    def sum_of(parts):
        return SequenceSpec(KIND_SUM, parts=list(parts))

    @staticmethod
    def table(values, generator=None):
        return SequenceSpec(KIND_TABLE, values=values, generator=generator)

    def _validate(self):
        if self.kind == KIND_RECURRENCE:
            if not self.coeffs or not self.initials:
                raise ValueError("recurrence needs coeffs and initials")
            if len(self.coeffs) != len(self.initials):
                raise ValueError("coeffs and initials must have equal length")
            prev = 0
            for i, v in enumerate(self.initials):
                if v <= prev:
                    raise MonotonicityError(i, v, prev)
                prev = v
        elif self.kind == KIND_FACTORIAL:
            pass
        elif self.kind == KIND_SUM:
            if not self.parts:
                raise ValueError("sum needs at least one part")
            for p in self.parts:
                if not isinstance(p, SequenceSpec):
                    raise ValueError("sum parts must be SequenceSpec")
        elif self.kind == KIND_TABLE:
            if not self.values and not self.generator:
                raise ValueError("table needs values or a generator")
            if self.generator is not None:
                _compile_generator(self.generator)  # fail early on bad syntax
        else:
            raise ValueError("unknown sequence kind %r" % (self.kind,))

    def key(self):
        """Canonical hashable identity of the spec."""
        if self.kind == KIND_SUM:
            return (self.kind, tuple(p.key() for p in self.parts))
        return (self.kind, self.coeffs, self.initials, self.values,
                self.generator)

    def __eq__(self, other):
        return isinstance(other, SequenceSpec) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.kind == KIND_RECURRENCE:
            return "SequenceSpec(recurrence %s / %s)" % (self.coeffs, self.initials)
        if self.kind == KIND_SUM:
            return "SequenceSpec(sum of %d parts)" % len(self.parts)
        return "SequenceSpec(%s)" % self.kind

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        if self.kind == KIND_RECURRENCE:
            return {"kind": self.kind,
                    "coeffs": [str(c) for c in self.coeffs],
                    "initials": [str(c) for c in self.initials]}
        if self.kind == KIND_FACTORIAL:
            return {"kind": self.kind}
        if self.kind == KIND_SUM:
            return {"kind": self.kind, "parts": [p.to_json() for p in self.parts]}
        out = {"kind": self.kind, "values": [str(v) for v in self.values or ()]}
        if self.generator is not None:
            out["generator"] = self.generator
        return out

    @staticmethod
    def from_json(obj):
        """The spec a JSON object describes; ValueError for any malformed
        object (integers must be JSON integers or decimal strings)."""
        if not isinstance(obj, dict):
            raise ValueError("sequence spec must be a JSON object")
        kind = obj.get("kind")
        if kind == KIND_RECURRENCE:
            return SequenceSpec.recurrence(_json_ints(obj.get("coeffs"), "coeffs"),
                                           _json_ints(obj.get("initials"), "initials"))
        if kind == KIND_POWER:
            return SequenceSpec.power(_json_int(obj.get("q"), "q"))
        if kind == KIND_FACTORIAL:
            return SequenceSpec.factorial()
        if kind == KIND_SUM:
            return SequenceSpec.sum_of([SequenceSpec.from_json(p)
                                        for p in _json_list(obj.get("parts"), "parts")])
        if kind == KIND_TABLE:
            generator = obj.get("generator")
            if generator is not None and not isinstance(generator, str):
                raise ValueError("table generator must be a string")
            return SequenceSpec.table(_json_ints(obj.get("values", []), "values"),
                                      generator)
        raise ValueError("unknown sequence kind %r" % (kind,))


# Generator expressions for table sequences go through an AST whitelist:
# integer literals, the variable n, + - * ** // %, and parentheses.

_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.FloorDiv, ast.Mod}

# Largest power, in bits, that a generator's ``**`` may build (estimated as
# exponent times the base's bit length).  2**n stays evaluable far past any
# index the solvers reach; 10**10**10, about 4 GB, is refused before it is
# built.  Negative exponents are refused too: they would yield floats.
GENERATOR_POW_BITS = 1 << 20


def _compile_generator(text):
    tree = ast.parse(text, mode="eval")

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise ValueError("generator operator not allowed: %s"
                                 % type(node.op).__name__)
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.UAdd, ast.USub)):
                raise ValueError("generator unary operator not allowed")
            check(node.operand)
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                raise ValueError("generator constants must be integers")
        elif isinstance(node, ast.Name):
            if node.id != "n":
                raise ValueError("generator may only use the variable n")
        else:
            raise ValueError("generator syntax not allowed: %s"
                             % type(node).__name__)

    check(tree)

    def run(n):
        return _eval_node(tree.body, n)

    return run


def _eval_node(node, n):
    if isinstance(node, ast.BinOp):
        a = _eval_node(node.left, n)
        b = _eval_node(node.right, n)
        op = type(node.op)
        if op is ast.Add:
            return a + b
        if op is ast.Sub:
            return a - b
        if op is ast.Mult:
            return a * b
        if op is ast.Pow:
            if b < 0:
                raise ValueError("generator exponent is negative")
            if b * a.bit_length() > GENERATOR_POW_BITS:
                raise ValueError("generator power exceeds %d bits"
                                 % GENERATOR_POW_BITS)
            return a ** b
        if b == 0:
            raise ValueError("generator divides by zero")
        if op is ast.FloorDiv:
            return a // b
        return a % b
    if isinstance(node, ast.UnaryOp):
        v = _eval_node(node.operand, n)
        return v if isinstance(node.op, ast.UAdd) else -v
    if isinstance(node, ast.Constant):
        return node.value
    return n  # ast.Name "n"


# ---------------------------------------------------------------------------
# Handles and evaluation
# ---------------------------------------------------------------------------

class SequenceHandle:
    """Memoized exact evaluator for a spec.

    The cache is append-only and every freshly computed value is checked to be
    strictly larger than its predecessor (and positive); a violation raises
    MonotonicityError naming the index, per the regularity contract.  A term
    that would take the cache past MAX_CACHE_BITS bits raises
    CacheBudgetExceeded instead of being cached.
    """

    def __init__(self, spec):
        self.spec = spec
        self.cache = []
        self._cache_bits = 0
        self.regularity_report = None
        self.parts = [SequenceHandle(p) for p in spec.parts] if spec.kind == KIND_SUM else None
        self._generator = (_compile_generator(spec.generator)
                           if spec.kind == KIND_TABLE and spec.generator else None)
        self._kepler = None
        self._contraction = None  # False = tried and failed
        self._profiles = {}

    def eval(self, n):
        if n < 0:
            raise ValueError("index must be a natural number")
        while len(self.cache) <= n:
            self._extend()
        return self.cache[n]

    def values(self, upto):
        """The prefix [r_0, ..., r_upto] as a list."""
        self.eval(upto)
        return self.cache[:upto + 1]

    def _extend(self):
        n = len(self.cache)
        v = self._raw(n)
        prev = self.cache[-1] if self.cache else 0
        if v <= prev:
            raise MonotonicityError(n, v, prev)
        self._cache_bits += v.bit_length()
        if self._cache_bits > MAX_CACHE_BITS:
            raise CacheBudgetExceeded(
                "terms r_0..r_%d exceed the cache budget of %d bits"
                % (n, MAX_CACHE_BITS))
        self.cache.append(v)

    def _raw(self, n):
        s = self.spec
        if s.kind == KIND_FACTORIAL:
            if n == 0:
                return 2
            return self.cache[n - 1] * (n + 2)
        if s.kind == KIND_RECURRENCE:
            k = len(s.coeffs)
            if n < k:
                return s.initials[n]
            return sum(map(operator.mul, s.coeffs, self.cache[n - k:n]))
        if s.kind == KIND_SUM:
            return sum(p.eval(n) for p in self.parts)
        # table
        if n < len(s.values):
            return s.values[n]
        if self._generator is None:
            raise TableExhausted(
                "table sequence has %d values and no generator (asked for r_%d)"
                % (len(s.values), n))
        return self._generator(n)


def make_handle(spec):
    return SequenceHandle(spec)


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------

class CharPoly:
    """Monic integer polynomial X^k - sum a_i X^i, ascending coefficients."""

    def __init__(self, coeffs):
        cs = polyops.trim([int(c) for c in coeffs])
        if not cs or cs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")
        if len(cs) < 2:
            raise ValueError("characteristic polynomial must have degree >= 1")
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, CharPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return "CharPoly(%s)" % (self.coeffs,)


def char_poly(spec):
    """Characteristic polynomial of the spec, or None when there is none
    (factorial growth, bare tables)."""
    if spec.kind == KIND_RECURRENCE:
        return CharPoly([-c for c in spec.coeffs] + [1])
    if spec.kind == KIND_SUM:
        acc = None
        for p in spec.parts:
            cp = char_poly(p)
            if cp is None:
                return None
            acc = cp.coeffs if acc is None else polyops.lcm(acc, cp.coeffs)
        return CharPoly(acc)
    return None


def power_base_expansion(spec):
    """When the sequence is exactly a sum of geometric terms, return the list
    of (base, multiplicity) pairs with distinct bases, sorted by base;
    otherwise None.  Covers order-1 recurrences (c * a^n with a >= 2; a
    smaller a does not grow), among them every power spec (c = 1), and sums
    of such."""
    if spec.kind == KIND_RECURRENCE and len(spec.coeffs) == 1:
        return [(spec.coeffs[0], spec.initials[0])] if spec.coeffs[0] >= 2 else None
    if spec.kind == KIND_SUM:
        bases = {}
        for p in spec.parts:
            sub = power_base_expansion(p)
            if sub is None:
                return None
            for q, c in sub:
                bases[q] = bases.get(q, 0) + c
        return sorted(bases.items())
    return None


# ---------------------------------------------------------------------------
# Kepler limits
# ---------------------------------------------------------------------------

class KeplerLimit:
    """Limit of consecutive ratios: Infinite, an isolated algebraic root, or
    Unknown where neither is certified."""

    INFINITE = "infinite"
    ALGEBRAIC = "algebraic"
    UNKNOWN = "unknown"

    def __init__(self, kind, minpoly=None, interval=None):
        self.kind = kind
        self.minpoly = minpoly
        self.interval = interval

    @staticmethod
    def infinite():
        return KeplerLimit(KeplerLimit.INFINITE)

    @staticmethod
    def algebraic(minpoly, interval):
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        return KeplerLimit(KeplerLimit.ALGEBRAIC, minpoly=minpoly, interval=(lo, hi))

    @property
    def is_infinite(self):
        return self.kind == KeplerLimit.INFINITE

    @property
    def is_algebraic(self):
        return self.kind == KeplerLimit.ALGEBRAIC

    def theta_interval(self):
        if self.is_algebraic:
            return self.interval
        raise ValueError("%s limit has no interval" % self.kind)

    def __repr__(self):
        if self.is_algebraic:
            return "KeplerLimit(algebraic %s in [%s, %s])" % (
                self.minpoly.coeffs, self.interval[0], self.interval[1])
        return "KeplerLimit(%s)" % self.kind


class RegularityReport:
    def __init__(self, recurrence_certified):
        self.recurrence_certified = recurrence_certified


def kepler_limit(handle):
    """The ratio limit with the strongest certification available.

    Factorial growth is Infinite outright.  Order-1 recurrences, powers among
    them, are exact (degenerate interval).  Irreducible recurrences get the
    largest real root of the characteristic polynomial isolated by Sturm
    bisection, cross-checked against the actual ratios -- if they disagree
    the limit is Unknown rather than a fabricated algebraic claim.  Sums take
    the maximum of their parts' limits.  Everything else (tables, sums with
    an uncertified part, reducible recurrences) is Unknown.
    """
    spec = handle.spec
    if spec.kind == KIND_FACTORIAL:
        return KeplerLimit.infinite()
    if spec.kind == KIND_RECURRENCE:
        return _kepler_recurrence(handle)
    if spec.kind == KIND_SUM:
        limits = [kepler_limit(p) for p in handle.parts]
        if any(l.is_infinite for l in limits):
            return KeplerLimit.infinite()
        if all(l.is_algebraic for l in limits):
            best = limits[0]
            for other in limits[1:]:
                best = _max_algebraic(best, other)
            return best
    return _unknown_limit(handle)


def _kepler_recurrence(handle):
    spec = handle.spec
    if len(spec.coeffs) == 1:
        q = spec.coeffs[0]
        if q >= 2:
            return KeplerLimit.algebraic(CharPoly([-q, 1]), (Fraction(q), Fraction(q)))
        return _unknown_limit(handle)
    cp = char_poly(spec)
    if polyops.is_irreducible(cp.coeffs):
        iso = polyops.isolate_largest_root_above(cp.coeffs, 1, KEPLER_EPS)
        if iso is not None and iso[0] > 1:
            # Sanity: the actual ratios must settle into the claimed interval.
            lo, hi = iso
            if _ratios_within(handle, lo - KEPLER_EPS, hi + KEPLER_EPS):
                return KeplerLimit.algebraic(cp, iso)
    return _unknown_limit(handle)


def _ratios_within(handle, lo, hi):
    """Whether lo < r_{n+1} / r_n < hi for n = 10, ..., 99, compared in
    integers as lo r_n < r_{n+1} < hi r_n (terms are positive).  Stops at
    the first ratio outside, so no term past it is evaluated."""
    lo_num, lo_den = lo.numerator, lo.denominator
    hi_num, hi_den = hi.numerator, hi.denominator
    prev = handle.eval(10)
    for n in range(11, 101):
        cur = handle.eval(n)
        if not (lo_num * prev < lo_den * cur and hi_den * cur < hi_num * prev):
            return False
        prev = cur
    return True


def _unknown_limit(handle):
    """The Unknown limit, for a sequence with at least three terms (two
    ratios) before a table runs out or the sequence stops increasing."""
    if len(_window_terms(handle, 2)) < 3:
        raise ValueError("not enough terms for a ratio scan")
    return KeplerLimit(KeplerLimit.UNKNOWN)


def _window_terms(handle, budget):
    """The terms r_0, ..., r_budget, stopping early where a table runs out or
    the sequence stops increasing."""
    terms = []
    for n in range(budget + 1):
        try:
            terms.append(handle.eval(n))
        except (TableExhausted, MonotonicityError):
            break
    return terms


def _window_ratios(handle, budget):
    """The ratios r_{n+1} / r_n for n < budget, stopping early where a table
    runs out or the sequence stops increasing."""
    terms = _window_terms(handle, budget)
    return [Fraction(b, a) for a, b in zip(terms, terms[1:])]


def _max_algebraic(a, b):
    """The larger of two isolated algebraic numbers, refining intervals until
    they separate (equal minpolys with overlapping intervals mean equality)."""
    for _ in range(128):
        alo, ahi = a.interval
        blo, bhi = b.interval
        if ahi < blo:
            return b
        if bhi < alo:
            return a
        if a.minpoly == b.minpoly:
            return a
        a, b = [KeplerLimit.algebraic(lim.minpoly, polyops.refine_root_interval(
                    lim.minpoly.coeffs, lo, hi, (hi - lo) / 4))
                for lim, (lo, hi) in ((a, a.interval), (b, b.interval))]
    raise ValueError("could not separate algebraic ratio limits")


def certify(handle):
    """Compute (and cache on the handle) the regularity report."""
    if handle.regularity_report is None:
        kepler = _cached_kepler(handle)
        # kepler_limit returns a minpoly only once it is known irreducible
        # (degree 1, or proved in _kepler_recurrence), so equality suffices.
        handle.regularity_report = RegularityReport(
            kepler.is_algebraic and char_poly(handle.spec) == kepler.minpoly)
    return handle.regularity_report


def _cached_kepler(handle):
    if handle._kepler is None:
        handle._kepler = kepler_limit(handle)
    return handle._kepler


# ---------------------------------------------------------------------------
# Contraction data for algebraic recurrences
# ---------------------------------------------------------------------------

class _Contraction:
    """Certified decay of the defect e_n = r_{n+1} - theta r_n.

    For an order-k recurrence with irreducible characteristic polynomial P and
    isolated root theta, e satisfies the order-(k-1) recurrence given by
    Q = P / (X - theta).  When kappa = sum of |q_i| over the non-leading
    quotient coefficients is certified < 1 by interval arithmetic, the window
    maximum W_n = max(|e_n|, ..., |e_{n+k-2}|) is non-increasing and shrinks
    by a factor kappa every k-1 steps.  That turns one verified inequality
    into a statement about every larger index -- the effective form of
    "for n big enough" used throughout.
    """

    def __init__(self, theta_iv, kappa, w0, step):
        self.theta_iv = theta_iv  # refined isolating interval of theta
        self.kappa = kappa        # certified upper bound < 1
        self.w0 = w0              # upper bound on the initial window max
        self.step = step          # k - 1

    def defect_bound(self, n):
        """Upper bound on |e_n| = |r_{n+1} - theta r_n|."""
        m = max(0, n - (self.step - 1))
        return self.w0 * self.kappa ** (m // self.step)

    def first_index(self, handle, factor, margin, budget):
        """The first n <= max(budget, 64) with
        factor * defect_bound(n) < margin * r_n, or None."""
        for n in range(max(budget, 64) + 1):
            if factor * self.defect_bound(n) < margin * handle.eval(n):
                return n
        return None


def _contraction_data(handle):
    """Build (and cache) contraction data, or None when not certifiable."""
    if handle._contraction is not None:
        return handle._contraction if handle._contraction is not False else None
    data = _try_contraction(handle)
    handle._contraction = data if data is not None else False
    return data


def _try_contraction(handle):
    kepler = _cached_kepler(handle)
    if not kepler.is_algebraic or handle.spec.kind != KIND_RECURRENCE:
        return None
    cp = char_poly(handle.spec)
    if cp is None or cp != kepler.minpoly or cp.degree < 2:
        return None
    iv = kepler.interval
    for _ in range(80):
        quot = polyops.synthetic_quotient_intervals(cp.coeffs, iv)
        # The interval coefficients enclose q_i(theta) on every refinement:
        # once their lower bounds already sum to 1, kappa(theta) >= 1 and no
        # upper bound can ever drop below 1, so the route has failed.
        if sum(polyops.iabs_lo(c) for c in quot[:-1]) >= 1:
            return None
        kappa = sum(polyops.iabs_hi(c) for c in quot[:-1])
        if kappa < 1:
            k = cp.degree
            w0 = Fraction(0)
            for t in range(k - 1):
                e_iv = polyops.iadd(polyops.ival(handle.eval(t + 1)),
                                    polyops.ineg(polyops.iscale(iv, handle.eval(t))))
                w0 = max(w0, polyops.iabs_hi(e_iv))
            return _Contraction(iv, kappa, w0, k - 1)
        if iv[0] == iv[1]:
            return None
        iv = polyops.refine_root_interval(cp.coeffs, iv[0], iv[1], (iv[1] - iv[0]) / 4)
    return None


# ---------------------------------------------------------------------------
# Dominance cutoffs
# ---------------------------------------------------------------------------

def dominance_cutoff(handle, eps, degree=1, budget=RATIO_SCAN_BUDGET):
    """Smallest certified k with, for all n >= k and 1 <= i <= degree,

        |r_{n+i} - theta^i r_n| < eps * r_n       (theta finite), or
        r_{n+1} / r_n > 1 / eps                   (theta infinite).

    Returns (k, certificate).  Proved certificates come from factorial's
    exact ratio or from the contraction argument; otherwise the inequality is
    verified on [k, budget] only and the certificate is a BoundedCheck (a
    geometric sum gets the scan here: every caller reads its exact expansion
    first).  An Unknown limit has no theta to compare against and raises
    ValueError.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    kepler = _cached_kepler(handle)
    if kepler.is_infinite:
        if handle.spec.kind == KIND_FACTORIAL:
            # ratio r_{n+1}/r_n = n+3, exactly and strictly increasing: the
            # least k with k + 3 > 1/eps
            return max(0, math.floor(1 / eps) - 2), Proved("exact-ratio")
        return _scan_ratio_cutoff(handle, 1 / eps, budget)

    data = _contraction_data(handle)
    if data is not None:
        factor = degree * max(Fraction(1), data.theta_iv[1]) ** (degree - 1)
        k = data.first_index(handle, factor, eps, budget)
        if k is not None:
            return k, Proved("contraction")
    return _scan_dominance_cutoff(handle, kepler, eps, degree, budget)


def _geometric_cutoff(a, b, p, q):
    """The smallest k >= 0 with a * p^k > b * q^k (integers, p > q)."""
    k = 0
    while a <= b:
        k += 1
        a *= p
        b *= q
    return k


def _scan_ratio_cutoff(handle, threshold, budget):
    """Bounded fallback for infinite limits: first k with every scanned ratio
    beyond k above the threshold."""
    ratios = _window_ratios(handle, budget)
    top = len(ratios)
    last_bad = max((n for n, r in enumerate(ratios) if r <= threshold), default=-1)
    if last_bad + 1 >= top:
        raise ValueError("budget exhausted at %d without establishing the ratio bound"
                         % top)
    return last_bad + 1, BoundedCheck(top)


def _scan_dominance_cutoff(handle, kepler, eps, degree, budget):
    """Bounded fallback; the scan ends at the first n whose terms stop short
    of r_{n+degree} (see _window_terms) with no bound broken before that."""
    iv = kepler.theta_interval()
    powers = [polyops.ipow(iv, i) for i in range(1, degree + 1)]
    terms = _window_terms(handle, budget - 1 + degree)
    last_bad = -1
    top = min(budget, len(terms))
    for n in range(top):
        rn = terms[n]
        if any(polyops.iabs_hi(polyops.iadd(polyops.ival(r),
                                            polyops.ineg(polyops.iscale(p, rn))))
               >= eps * rn for p, r in zip(powers, terms[n + 1:n + 1 + degree])):
            last_bad = n
        elif n + degree >= len(terms):
            top = n
            break
    if last_bad + 1 >= top:
        raise ValueError("budget exhausted at %d without establishing dominance" % top)
    return last_bad + 1, BoundedCheck(top)
