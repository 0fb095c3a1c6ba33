"""Shift operators on a sequence and the finite-roots / cofinite-zero split.

An operator is an integer coefficient vector (a_0, ..., a_d), a_d != 0, acting
on a sequence handle by f(n) = a_0 r_n + a_1 r_{n+1} + ... + a_d r_{n+d}.

Every operator on a certified sequence lands on one side of a dichotomy:

* ``FiniteRoots``  -- f(n) = 0 for at most finitely many n, all of them below
  an explicit cutoff;
* ``CofiniteZero`` -- f(n) = 0 for all n outside a finite exception set.

The certified reasons:

* the ratio limit is infinite and the top term swallows the rest
  ("theta-infinite-dominance");
* the limit theta is a certified algebraic number and sum a_i theta^i != 0,
  so a sliver of r_n survives every cancellation ("nonvanishing-at-theta");
* the minimal polynomial divides sum a_i X^i, which kills the sequence
  identically ("minpoly-divides").

Sequences that certify none of this (bare tables, Unknown ratio limits) get
honest BoundedCheck verdicts from an exhaustive scan.

values() is the one window evaluator: every scan of f over [0, N) (root and
solution scans, the bounded verdict, the equation solver's value table,
decide's literal windows and the axiom revalidations) sums slices of one
sequence prefix, and raises what apply would at the first missing term.
apply evaluates f at a single index.
"""

from fractions import Fraction

from . import polyops
from . import sequences as sq
from .certs import Proved, BoundedCheck, merge, \
    REASON_THETA_INFINITE, REASON_NONVANISHING, REASON_MINPOLY_DIVIDES
from .jsonio import _json_int, _json_list

DEFAULT_BUDGET = 300


class ZeroOperator:
    """Distinguished marker for an identically-zero combination.

    Not an Operator (those must have a nonzero trailing coefficient); callers
    of shift_combine must branch on it.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZeroOperator"


ZERO = ZeroOperator()


class Operator:
    def __init__(self, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if not cs:
            raise ValueError("empty operator forbidden")
        if cs[-1] == 0:
            raise ValueError("trailing operator coefficient must be nonzero")
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def poly(self):
        """The polynomial sum a_i X^i as an ascending coefficient list."""
        return list(self.coeffs)

    def mass(self):
        return sum(abs(c) for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Operator) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Operator%s" % (self.coeffs,)

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(obj):
        """An operator from a JSON list of integers or decimal strings;
        ValueError for anything else (a float, a bool, a nested list)."""
        return Operator([_json_int(c, "operator coefficient")
                         for c in _json_list(obj, "operator")])


def apply(op, handle, n):
    """Exact value a_0 r_n + ... + a_d r_{n+d}, at one index."""
    handle.eval(n + op.degree)
    return sum(a * handle.cache[n + i] for i, a in enumerate(op.coeffs))


def values(op, handle, count):
    """The window [f(0), ..., f(count - 1)], summed slice by slice from one
    prefix of the sequence; it raises what apply would at the first term it
    cannot reach."""
    if count <= 0:
        return []
    prefix = handle.values(count - 1 + op.degree)
    row = [0] * count
    for i, a in enumerate(op.coeffs):
        if a:
            row = [acc + a * r for acc, r in zip(row, prefix[i:i + count])]
    return row


def _hits(op, handle, count):
    """The indices n < count with f(n) = 0."""
    return [n for n, v in enumerate(values(op, handle, count)) if v == 0]


# ---------------------------------------------------------------------------
# Classification verdicts
# ---------------------------------------------------------------------------

class FiniteRoots:
    """f vanishes exactly on ``roots``, all below ``cutoff``.

    ``lower_bound``, when present, is a certified Fraction u with
    |f(n)| >= u * r_n for every n >= cutoff; solve_range reads it for the
    index past which |f| outgrows its range (_target_cutoff).  It is None
    when the operator provably outgrows zero but not proportionally to r_n
    (a dominant summand of the sequence got killed).
    """

    def __init__(self, roots, cutoff, cert, lower_bound=None):
        self.roots = tuple(sorted(roots))
        self.cutoff = int(cutoff)
        self.cert = cert
        self.lower_bound = lower_bound

    @property
    def kind(self):
        return "FiniteRoots"

    def __repr__(self):
        return "FiniteRoots(roots=%s, cutoff=%d, %r)" % (self.roots, self.cutoff, self.cert)

    def to_json(self):
        out = {"kind": self.kind,
               "roots": [str(r) for r in self.roots],
               "cutoff": str(self.cutoff),
               "certificate": self.cert.to_json()}
        if self.lower_bound is not None:
            out["lower_bound"] = "%d/%d" % (self.lower_bound.numerator,
                                            self.lower_bound.denominator)
        return out


class CofiniteZero:
    """f vanishes everywhere except on the finite ``exceptions`` set."""

    def __init__(self, exceptions, cert):
        self.exceptions = tuple(sorted(exceptions))
        self.cert = cert

    @property
    def kind(self):
        return "CofiniteZero"

    def __repr__(self):
        return "CofiniteZero(exceptions=%s, %r)" % (self.exceptions, self.cert)

    def to_json(self):
        return {"kind": self.kind,
                "exceptions": [str(e) for e in self.exceptions],
                "certificate": self.cert.to_json()}


class NotFinitelySolvable(ValueError):
    """f(n) = z held on the whole scanned tail: the finite-solution contract
    is violated (the sequence fails the intended axioms)."""

    def __init__(self, op, z, window):
        self.op = op
        self.z = z
        self.window = window
        super().__init__(
            "f(n) = %d holds on the entire scanned tail (window %d); "
            "no finite solution set exists" % (z, window))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def classify(op, handle, budget=DEFAULT_BUDGET):
    """Root dichotomy for f on the handle's sequence.

    Decision routes, in order: exact geometric expansion when the sequence is
    a sum of c * q^n terms; theta = oo dominance; minimal-polynomial
    divisibility; nonvanishing of sum a_i theta^i via interval refinement;
    exhaustive bounded scan otherwise.
    """
    expansion = sq.power_base_expansion(handle.spec)
    if expansion is not None:
        return _classify_geometric(op, handle, expansion)

    kepler = sq._cached_kepler(handle)

    if kepler.is_infinite:
        return _classify_infinite(op, handle, budget)

    if kepler.is_algebraic and sq.certify(handle).recurrence_certified:
        minpoly = kepler.minpoly
        if polyops.divides(minpoly.coeffs, op.poly()):
            # The recurrence holds from index 0, so f is identically zero;
            # the window check below is a pure sanity assertion.
            window = minpoly.degree + op.degree + 8
            assert not any(values(op, handle, window)), \
                "recurrence holds from 0, yet f missed zero"
            return CofiniteZero((), Proved(REASON_MINPOLY_DIVIDES))
        return _classify_nonvanishing(op, handle, kepler, budget)

    return _classify_scan(op, handle, budget)


def _classify_geometric(op, handle, expansion):
    """Exact route for r_n = sum c_j q_j^n: f(n) = sum c_j v_j q_j^n with
    v_j = (op polynomial evaluated at q_j), a finite exact expression."""
    live = _live_terms(op, expansion)
    if live is None:
        return CofiniteZero((), Proved(REASON_MINPOLY_DIVIDES))
    q_top, lead, tail = live
    q_max = max(q for q, _ in expansion)
    total_mass = sum(c for _, c in expansion)

    # strict dominance: lead * q_top^n > 2 * t_mass * q2^n (lead > 0, so
    # the cutoff is 0 when no other base is live)
    cutoff = sq._geometric_cutoff(lead, 2 * sum(m for _, m in tail), q_top,
                                  max((q for q, _ in tail), default=0))
    roots = _hits(op, handle, cutoff)
    lower_bound = None
    if q_top == q_max:
        # |f(n)| >= lead q_top^n / 2 beyond the cutoff and
        # r_n <= total_mass * q_max^n, so |f(n)| >= lead/(2 total_mass) r_n.
        lower_bound = Fraction(lead, 2 * total_mass)
    return FiniteRoots(roots, cutoff, Proved(REASON_NONVANISHING), lower_bound)


def _live_terms(op, expansion):
    """Split f(n) = sum c_j v_j q_j^n (v_j the operator polynomial at q_j)
    into its top live base q_top, that base's mass c_top |v_top| and the
    (base, mass) pairs of the other live bases; None when every v_j is 0."""
    live = [(q, c, polyops.peval(op.poly(), q)) for q, c in expansion]
    live = [(q, c, v) for q, c, v in live if v != 0]
    if not live:
        return None
    q_top, c_top, v_top = max(live)
    return q_top, c_top * abs(v_top), [(q, c * abs(v)) for q, c, v in live if q != q_top]


def _classify_infinite(op, handle, budget):
    d = op.degree
    if d == 0:
        return FiniteRoots((), 0, Proved(REASON_THETA_INFINITE),
                           Fraction(abs(op.coeffs[0])))
    lower_mass = sum(abs(c) for c in op.coeffs[:-1])
    a_d = abs(op.coeffs[-1])
    if lower_mass == 0:
        # f(n) = a_d r_{n+d} never vanishes; r_{n+d} >= r_n gives the bound.
        return FiniteRoots((), 0, Proved(REASON_THETA_INFINITE), Fraction(a_d))
    # Beyond the cutoff each ratio exceeds 2 * lower_mass / a_d, so the top
    # term is at least twice the rest:  |f(n)| >= a_d r_{n+d} / 2 >= a_d r_n / 2.
    eps = Fraction(a_d, 2 * lower_mass)
    k, cert = sq.dominance_cutoff(handle, eps, budget=budget)
    cutoff = max(0, k - d + 1)
    roots = _hits(op, handle, cutoff)
    return FiniteRoots(roots, cutoff,
                       merge([cert], reason=REASON_THETA_INFINITE),
                       Fraction(a_d, 2))


def _classify_nonvanishing(op, handle, kepler, budget):
    """Case: theta certified algebraic and sum a_i theta^i != 0.

    Since the minimal polynomial does not divide the operator polynomial,
    theta is not a root of it, so interval refinement must eventually
    separate the value from zero and yield a rational u with
    |sum a_i theta^i| >= u.  Then with eps = u / (2 sum|a_i|),

        |f(n)| >= u r_n - sum|a_i| * eps * r_n = (u/2) r_n

    beyond the dominance cutoff for eps.
    """
    minpoly = kepler.minpoly
    iv = kepler.interval
    for _ in range(256):
        val = polyops.peval_interval(op.poly(), iv)
        u = polyops.iabs_lo(val)
        if u > 0:
            break
        iv = polyops.refine_root_interval(minpoly.coeffs, iv[0], iv[1],
                                          (iv[1] - iv[0]) / 4)
    else:
        raise ValueError("could not separate operator value at theta from zero")
    eps = u / (2 * op.mass())
    k, cert = sq.dominance_cutoff(handle, eps, degree=max(1, op.degree), budget=budget)
    roots = _hits(op, handle, k)
    return FiniteRoots(roots, k, merge([cert], reason=REASON_NONVANISHING), u / 2)


def _classify_scan(op, handle, budget):
    """Bounded verdict: where the zeros sit in the window the terms reach."""
    terms = sq._window_terms(handle, budget - 1 + op.degree)
    top = min(budget, max(0, len(terms) - op.degree))
    zeros = _hits(op, handle, top)
    tail_start = max(1, top // 2)
    tail = range(tail_start, top)
    zero_set = set(zeros)
    tail_zero = sum(1 for n in tail if n in zero_set)
    if tail and tail_zero == len(tail):
        exceptions = [n for n in range(tail_start) if n not in zero_set]
        return CofiniteZero(exceptions, BoundedCheck(top))
    return FiniteRoots(zeros, top, BoundedCheck(top))


# ---------------------------------------------------------------------------
# Inhomogeneous equations f(n) = z
# ---------------------------------------------------------------------------

def solve_inhomogeneous(op, handle, z, budget=DEFAULT_BUDGET):
    """All n with f(n) = z for a nonzero target, with a certificate: the
    range (z, z) of solve_range, which raises NotFinitelySolvable where that
    reports z solid."""
    z = int(z)
    if z == 0:
        raise ValueError("use classify for the homogeneous case z = 0")
    hits, cert, solid = solve_range(op, handle, z, z, classify(op, handle, budget))
    if solid is not None:
        raise NotFinitelySolvable(op, z, cert.n)
    return hits, cert


def solve_range(op, handle, lo, hi, cls):
    """All n with lo <= f(n) <= hi and f(n) != 0, with a certificate, from
    the one classification cls of f: (solutions, cert, solid).  The zeros of
    f are cls's to give.

    On a classified-cofinite-zero operator the zero tail never lies among
    these values, so the answer is an exact finite scan of the exceptions.
    On finite-roots operators the growth cutoff of the largest of |lo| and
    |hi| pushes |f| above every value of the range, so one scan to it finds
    them all.  A bounded route scans its window, and when the scanned tail
    is one value z of the range, the finiteness contract itself fails for
    z: solid is z and its indices are left out of the solutions.  Otherwise
    solid is None.
    """
    if isinstance(cls, CofiniteZero):
        hits = [n for n in cls.exceptions if lo <= apply(op, handle, n) <= hi]
        return hits, cls.cert, None
    top = _target_cutoff(op, handle, cls, max(abs(lo), abs(hi))) \
        if cls.cert.is_proved else cls.cutoff
    row = values(op, handle, top)
    hits = [n for n, v in enumerate(row) if lo <= v <= hi and v]
    if cls.cert.is_proved:
        return hits, cls.cert, None
    # Bounded scan; detect the cofinitely-solvable anomaly.
    tail = set(row[max(1, 3 * top // 4):])
    if len(tail) == 1:
        z, = tail
        if z and lo <= z <= hi:
            return [n for n in hits if row[n] != z], BoundedCheck(top), z
    return hits, BoundedCheck(top), None


def _target_cutoff(op, handle, cls, z):
    """An index from which |f(n)| > |z| holds forever, given a Proved
    FiniteRoots classification."""
    if cls.lower_bound is not None:
        # r_n <= |z| / u, in integers (u = cls.lower_bound > 0)
        n = cls.cutoff
        num, bound = cls.lower_bound.numerator, abs(z) * cls.lower_bound.denominator
        while handle.eval(n) * num <= bound:
            n += 1
        return n
    # Partial-kill geometric case: f(n) = sum c_j v_j q_j^n with the overall
    # top base killed.  Past cls.cutoff the surviving top term is more than
    # twice the rest, so |f(n)| > lead q_top^n / 2, which exceeds |z| from
    # the first n with lead q_top^n > 2 |z| on.
    expansion = sq.power_base_expansion(handle.spec)
    assert expansion is not None, "lower-bound-free Proved verdicts are geometric"
    q_top, lead, _ = _live_terms(op, expansion)
    return max(cls.cutoff, sq._geometric_cutoff(lead, 2 * abs(z), q_top, 1))


# ---------------------------------------------------------------------------
# shift_combine
# ---------------------------------------------------------------------------

def shift_combine(ops, offsets):
    """The single operator n |-> sum_j f_j(n + m_j).

    Offsets are naturals with min 0 (any order; addition commutes).  Returns
    the ZERO marker when every aligned coefficient cancels.
    """
    ops = list(ops)
    offsets = [int(m) for m in offsets]
    if len(ops) != len(offsets):
        raise ValueError("ops and offsets differ in length")
    if not ops:
        raise ValueError("need at least one operator")
    if min(offsets) != 0:
        raise ValueError("offsets must include 0")
    size = max(m + op.degree for op, m in zip(ops, offsets)) + 1
    out = [0] * size
    for op, m in zip(ops, offsets):
        for i, a in enumerate(op.coeffs):
            out[m + i] += a
    trimmed = polyops.trim(out)
    if not trimmed:
        return ZERO
    return Operator(trimmed)
