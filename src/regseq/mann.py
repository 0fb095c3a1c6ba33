"""Linear equations over a finitely generated multiplicative submonoid of Z.

Such a monoid M has the Mann property: an equation q_1 x_1 + ... + q_n x_n = 1
with nonzero rational coefficients has only finitely many non-degenerate
solutions in M (no proper sub-sum vanishing).  Homogeneous equations inherit
a structure theorem from this: dividing through by the first coordinate
turns a_1 x_1 + ... + a_n x_n = 0 into a unit equation over ratios, so the
non-degenerate solutions organize into finitely many translate families
(g_1, ..., g_n)M.

No effective bound for the Mann property is available here, so every
completeness claim is tagged BoundedCheck at the exponent level scanned:
all tuples whose coordinates use generator exponents up to E are covered,
nothing beyond is claimed.  Every element set here comes from one staged
construction, _products: the window of products with exponents up to E,
the wide window at 2E below, and enumerate's elements of absolute value up
to a bound.  It brings in one generator at a time and stops as soon as its
set passes a cap, so no refused set is held.  A scan of n unknowns over a
window of W elements is refused when W^(n-1) exceeds SCAN_CAP.  Every
window is also refused once its distinct elements pass WINDOW_BITS bits in
total, since with few unknowns the count alone admits gigabytes, and every
scan of more than MAX_UNKNOWNS unknowns, past which the degeneracy test of
one hit would list too many sub-sums.  `mann enumerate` is refused past
WINDOW_BITS too; the divisor lists of _canonical are not capped.  A
homogeneous solve whose split search would visit more than SPLIT_CAP
candidates is refused at once: the count follows from the coefficients
alone.

Within those refusals a scan runs the kernel it shares with the sequence
solver, subsums._meet_in_the_middle, over the rows a_i * window, about
W^ceil(n/2) lookups, with one exception.  A three-term homogeneous equation
a x + b y + c z = 0 is scanned through its ratios, as the structure theorem
above reads it (_ratio_scan).  With L the product of the k generators to
the power E, signs kept, every ratio y / x of two window elements, times L,
is a product of the generators with exponents in [0, 2E], so it lies in the
wide window at bound 2E.  Solving b u + c v = -a L over that wide window
takes one lookup per u, about (2E + 1)^k where the direct scan makes W^2,
and each solution, a ratio pair (u, v), gives the hits (x, x u / L,
x v / L) for the x of the window with both coordinates in it: exactly the
direct scan's hits.  Where the generators are independent (their exponent
vectors over a coprime base of their absolute values have rank k), each
vector gives its own product and the x of a pair are the vectors of a box,
read from the wide window by index, with y and z at fixed index offsets;
else every x of the window is tried.  The wide window holds at most
(2E + 1)^k elements and at most W^2, one per ratio.  Within the three-term
cap W <= 2449, 11 independent generators at E = 1 make 3^11 = 177,147 of
them, from a 2,048-element window; a solve there peaks at about 33 MB
(tests/test_mann.py).  Once the wide window's bits pass WINDOW_BITS the
solve scans the window directly instead.

Base tuples are canonicalized by sorting the slots that share a coefficient
and dividing out the largest monoid element that leaves all coordinates in
the monoid; families are base x M.  That element divides the gcd g of the
coordinates.  A homogeneous solve settles most of its hits in one pass over
them as columns: where g and every coordinate over g lie in the scanned
window, g is that element.  Only the other hits go through _canonical, and
the monoid is enumerated for them alone, once, up to their largest gcd.
Over independent generators, at most one of them negative, two hits of one
pair whose x share a sign differ by a ratio of positive elements of M,
which moves no canonical form: one hit per pair and sign of x is
canonicalised.  Not so with two negative generators: over <-2, -3> the hits
(-2, -2, -2) and (-3, -3, -3) of x1 + x2 - 2 x3 = 0 share a pair and are
both canonical.  Those monoids, dependent ones such as <2, 12, 18> and
every direct scan canonicalise every hit.
"""

import bisect
import itertools
import math
import operator
from fractions import Fraction

from .certs import BoundedCheck
from .subsums import DOUBLING_TERMS, _degenerate, _meet_in_the_middle, \
    _proper_subsums_nonzero

DEFAULT_EXPONENT = 64
SCAN_CAP = 6_000_000
# Cap on the summed bit lengths of a window's distinct elements; {2, 3}
# passes it at exponent bound 235 (bound 234 gives 55,225 elements).
WINDOW_BITS = 1 << 24
# Most unknowns a scan accepts: the degeneracy test of a hit lists the
# 2^16 sub-sums of each half of its terms at most.
MAX_UNKNOWNS = 2 * DOUBLING_TERMS
# Most split candidates one homogeneous solve visits, memo hits included.
# n unknowns with distinct coefficients visit about 3^n: 449,966 at n = 12
# (1.3 s at exponent bound 0 over {2, 3}, Python 3.11, 2 CPUs) and
# 1,418,716 at n = 13.
SPLIT_CAP = 500_000


class MannMonoid:
    """The multiplicative closure of finitely many integer generators, each
    of absolute value at least 2 (signs allowed), together with 1."""

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        for g in gens:
            if abs(g) < 2:
                raise ValueError("generator %d has absolute value < 2" % g)
        self.generators = tuple(gens)
        self._member_memo = {1: True}

    def enumerate(self, bound, max_bits=math.inf):
        """Sorted elements with absolute value at most bound, from _products,
        refused once they pass max_bits bits: `mann enumerate` passes
        WINDOW_BITS, and the divisor lists of _canonical are not capped."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        elements, bits = _products(self.generators, bound=bound, max_bits=max_bits)
        if bits > max_bits:
            raise ValueError("monoid elements up to %d exceed %d bits" % (bound, max_bits))
        return sorted(elements)

    def elements_with_exponents(self, exp_bound):
        """Sorted products of generators with every exponent <= exp_bound:
        the one-unknown scan window, within the WINDOW_BITS budget."""
        return _scan_window(self, exp_bound, 1)

    def contains(self, value):
        """Membership by generator-division search (exact, unbounded)."""
        value = int(value)
        if value == 0:
            return False
        memo = self._member_memo
        if value in memo:
            return memo[value]
        stack = [value]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            pending = False
            result = False
            for g in self.generators:
                if v % g == 0:
                    w = v // g
                    if w in memo:
                        if memo[w]:
                            result = True
                            break
                    elif abs(w) >= 1:
                        stack.append(w)
                        pending = True
            if result:
                memo[v] = True
                stack.pop()
            elif not pending:
                memo[v] = False
                stack.pop()
        return memo[value]

    def to_json(self):
        return {"generators": list(self.generators)}


# ---------------------------------------------------------------------------
# Element sets, and the scan shared by unit and homogeneous equations
# ---------------------------------------------------------------------------

def _products(generators, exp_bound=None, bound=None, cap=math.inf, max_bits=WINDOW_BITS):
    """The distinct products of the generators with every exponent at most
    exp_bound, or else with absolute value at most bound, in order of
    construction (for independent generators under an exponent bound E,
    exponent vector e at index sum_i e_i (E + 1)^i), and their total bits.

    Each stage multiplies the products found before its generator g by the
    powers of g and keeps the products it lacks, counting the bits of each
    as it is added.  The build stops as soon as it holds more than cap
    products or more than max_bits bits; the caller tells a stopped build by
    its size and bits.  Under a magnitude bound the stages miss nothing:
    |g| >= 2 for every generator, so every prefix of a product lies within
    the product's absolute value; g^j multiplies only the stage's head up
    to bound // |g^j|, by absolute value, and no power past bound is made."""
    found = {1: None}   # a dict keeps the order of construction
    bits = 1
    for g in generators:
        stage = list(found) if bound is None else sorted(found, key=abs)
        power = 1
        for _ in range(exp_bound if bound is None else bound.bit_length()):
            power *= g
            if bound is not None:
                del stage[bisect.bisect_right(stage, bound // abs(power), key=abs):]
                if not stage:
                    break
            for v in map(power.__mul__, stage):
                if v not in found:
                    found[v] = None
                    bits += v.bit_length()
                    if bits > max_bits or len(found) > cap:
                        return list(found), bits
    return list(found), bits


def _largest_window(unknowns):
    """The most distinct elements a scan of this many unknowns accepts: the
    largest L with L ** (unknowns - 1) <= SCAN_CAP; None when unlimited."""
    k = unknowns - 1
    if k <= 0:
        return None
    lo, hi = 1, SCAN_CAP
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= SCAN_CAP:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _scan_window(monoid, exp_bound, unknowns):
    """The monoid's exponent window for a scan of this many unknowns, sorted:
    _products at exp_bound, refused as soon as it holds more elements than
    the scan budget admits, or more than WINDOW_BITS bits.  More than
    MAX_UNKNOWNS unknowns, or SCAN_CAP exponent vectors, are refused first."""
    if unknowns > MAX_UNKNOWNS:
        raise ValueError("equation has %d unknowns; at most %d are supported"
                         % (unknowns, MAX_UNKNOWNS))
    if exp_bound < 0:
        raise ValueError("exponent bound must be >= 0")
    count = (exp_bound + 1) ** len(monoid.generators)
    if count > SCAN_CAP:
        raise ValueError("exponent window of %d elements exceeds the scan budget" % count)
    limit = _largest_window(unknowns) or math.inf
    window, bits = _products(monoid.generators, exp_bound, cap=limit)
    if len(window) > limit:
        raise ValueError("monoid scan of %d unknowns exceeds the budget" % unknowns)
    if bits > WINDOW_BITS:
        raise ValueError("monoid window at exponent bound %d exceeds %d bits"
                         % (exp_bound, WINDOW_BITS))
    return sorted(window)


def _scan(coeffs, target, elements):
    """Non-degenerate solutions of a_1 x_1 + ... + a_n x_n = target (nonzero
    integer a_i) with every x_i in `elements`: the kernel's hits over the
    rows a_i * elements, sorted, which is product order for a sorted window
    without repeats.  The budget is the window's: see _scan_window.  The
    terms being nonzero, the sub-sum check runs only where
    _proper_subsums_nonzero does not settle it.  A three-term homogeneous
    solve finds the same hits through _ratio_scan, and comes here only when
    its wide window, _products at twice the exponent bound, passes
    WINDOW_BITS."""
    found = sorted(_meet_in_the_middle([[a * x for x in elements] for a in coeffs],
                                       target, [elements] * len(coeffs)))
    if _proper_subsums_nonzero(len(coeffs), target):
        return found
    return [tup for tup in found
            if not _degenerate([a * v for a, v in zip(coeffs, tup)])]


def _coprime_base(values):
    """Pairwise coprime integers > 1 of which every positive value is a
    product: an entry a sharing g = gcd(a, b) > 1 with an element b of the
    base is split into g, a / g and b / g, until none does (the quadratic
    form of Bernstein's refinement, J. Algorithms 54, 2005)."""
    base, todo = [], list(values)
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                todo += filter((1).__lt__, (g, a // g, b // g))
                break
        else:
            base.append(a)
    return base


def _independent(generators):
    """Whether the exponent vectors of the generators' absolute values over
    their coprime base have rank k: distinct vectors give distinct products."""
    def valuation(n, p):
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        return e
    base = _coprime_base(map(abs, generators))
    rows = [[valuation(abs(g), p) for p in base] for g in generators]
    rank = 0
    for col in range(len(base)):
        rest = rows[rank:]
        pivot = next((r for r in rest if r[col]), None)
        if pivot is not None:
            rest.remove(pivot)
            rows[rank:] = [pivot] + [[pivot[col] * x - r[col] * y for x, y in zip(r, pivot)]
                                     for r in rest]
            rank += 1
    return rank == len(generators)


def _ratio_scan(coeffs, monoid, exp_bound, window, reps=None):
    """_scan(coeffs, 0, window), hit for hit and in the same order, for three
    coefficients a, b, c and the monoid's window at exp_bound E, found through
    the ratios of each hit; None when the wide window passes WINDOW_BITS.

    With L the product of the generators to the power E, a hit (x, y, z)
    gives u = y L / x and v = z L / x in the wide window, with
    b u + c v = -a L, the kernel's two-row case: one lookup of -a L - b u
    per u, in a map from c v to the index of v.  Three nonzero terms summing
    to 0 have no vanishing proper sub-sum, so no hit is degenerate.  Over
    dependent generators the hits of (u, v) are (x, x u / L, x v / L) for
    each x of the window with x u and x v in L * window, through a map from
    L * w to w.  Over independent ones u has the exponent vector E + du, and
    the x of its hits are the vectors of the box prod_i [max(0, -du_i,
    -dv_i), E - max(0, du_i, dv_i)].  With at most one negative generator a
    list `reps` gets the hit of the box's lowest corner, and of the next
    vector along the negative generator if the box holds one: a hit of each
    sign of x."""
    gens = monoid.generators
    wide, bits = _products(gens, 2 * exp_bound)
    if bits > WINDOW_BITS:
        return None
    a, b, c = coeffs
    lead = math.prod(g ** exp_bound for g in gens)
    # one plus the indices of u and v; a miss is None, so `all` keeps the solutions
    where_v = dict(zip(map(c.__mul__, wide), itertools.count(1))).get
    ratios = filter(all, enumerate(map(where_v, map((-a * lead).__sub__,
                                                    map(b.__mul__, wide))), 1))
    found = []
    if _independent(gens):
        radix = 2 * exp_bound + 1
        places = [radix ** k for k in range(len(gens))]
        centre = 1 + exp_bound * sum(places)
        negative = [k for k, g in enumerate(gens) if g < 0]
        at = wide.__getitem__
        for i, j in ratios:
            dy, dz = i - centre, j - centre     # the index offsets of y and z from x
            box = []
            for p in places:
                du, dv = (i - 1) // p % radix - exp_bound, (j - 1) // p % radix - exp_bound
                lo, hi = max(0, -du, -dv), exp_bound - max(0, du, dv)
                if lo > hi:
                    break
                box.append(range(lo * p, (hi + 1) * p, p))
            else:
                xs = list(map(sum, itertools.product(*box)))
                found += zip(map(at, xs), map(at, map(dy.__add__, xs)),
                             map(at, map(dz.__add__, xs)))
                if reps is not None and len(negative) < 2:
                    starts = [xs[0]] + [xs[0] + places[k] for k in negative if len(box[k]) > 1]
                    reps += [(at(s), at(s + dy), at(s + dz)) for s in starts]
    else:
        unscale = dict(zip(map(lead.__mul__, window), window)).get
        for i, j in ratios:
            ys = list(map(unscale, map(wide[i - 1].__mul__, window)))
            xs = list(itertools.compress(window, ys))
            found += filter(all, zip(xs, filter(None, ys),
                                     map(unscale, map(wide[j - 1].__mul__, xs))))
    found.sort()
    return found


# ---------------------------------------------------------------------------
# Unit equations
# ---------------------------------------------------------------------------

def solve_unit(coefficients, monoid, exp_bound=DEFAULT_EXPONENT):
    """All non-degenerate solutions of q_1 x_1 + ... + q_n x_n = 1 with
    every x_i a monoid element built from exponents <= exp_bound.

    Returns (sorted solution tuples, BoundedCheck(exp_bound)): the Mann
    property guarantees finiteness but supplies no effective bound."""
    qs = [Fraction(q) for q in coefficients]
    if not qs or any(q == 0 for q in qs):
        raise ValueError("coefficients must be nonzero")
    # Scaling by the common denominator D gives sum (D q_i) x_i = D, with the
    # same solutions and the same vanishing sub-sums.
    den = math.lcm(*(q.denominator for q in qs))
    found = _scan([int(q * den) for q in qs], den,
                  _scan_window(monoid, exp_bound, len(qs)))
    return sorted(set(found)), BoundedCheck(exp_bound)


# ---------------------------------------------------------------------------
# Homogeneous equations
# ---------------------------------------------------------------------------

class MannSplit:
    """A degenerate regime: the sub-sum over `positions` vanishes on its
    own, so both sides solve their own homogeneous equations."""

    def __init__(self, positions, left, right):
        self.positions = tuple(positions)
        self.left = left
        self.right = right

    def to_json(self):
        return {"positions": [p + 1 for p in self.positions],
                "left": self.left.to_json(),
                "right": self.right.to_json()}


class MannSolutionSet:
    """base x M translate families covering the non-degenerate solutions of
    a homogeneous equation up to the scanned exponent level; degenerate
    solutions are described by the recursive splits."""

    def __init__(self, coefficients, monoid, base, splits, exp_bound,
                 certificate, scanned):
        self.coefficients = tuple(coefficients)
        self.monoid = monoid
        self.base = list(base)
        self.splits = list(splits)
        self.exp_bound = exp_bound
        self.certificate = certificate
        self.scanned = scanned   # raw non-degenerate scan hits at exp_bound

    def scale(self, base_tuple, m):
        return tuple(m * v for v in base_tuple)

    def canonical(self, tup):
        return _canonical(self.coefficients, self.monoid, tup)

    def covers(self, tup):
        """Whether the tuple belongs to some family, up to permuting slots
        that share a coefficient."""
        return self.canonical(tup) in set(self.base)

    def family_tuples(self, exp_bound=None):
        """All family instances (permutation closure included) whose
        coordinates stay within the element window."""
        window = set(self.monoid.elements_with_exponents(
            self.exp_bound if exp_bound is None else exp_bound))
        out = set()
        for b in self.base:
            for m in sorted(window):
                tup = self.scale(b, m)
                if all(v in window for v in tup):
                    for perm in _coef_permutations(self.coefficients, tup):
                        out.add(perm)
        return out

    def to_json(self):
        return {"coefficients": list(self.coefficients),
                "monoid": self.monoid.to_json(),
                "base": [list(b) for b in self.base],
                "families": "each base tuple times the monoid",
                "splits": [sp.to_json() for sp in self.splits],
                "exponent_bound": self.exp_bound,
                "certificate": self.certificate.to_json()}


def _slot_groups(coeffs):
    """The slot indices of each distinct coefficient, by coefficient."""
    groups = {}
    for i, a in enumerate(coeffs):
        groups.setdefault(a, []).append(i)
    return [idxs for _, idxs in sorted(groups.items())]


def _coef_permutations(coeffs, tup):
    """Images of the tuple under permutations of equal-coefficient slots."""
    slot_perms = [[dict(zip(idxs, p)) for p in itertools.permutations(idxs)]
                  for idxs in _slot_groups(coeffs)]
    for combo in itertools.product(*slot_perms):
        mapping = {}
        for d in combo:
            mapping.update(d)
        yield tuple(tup[mapping[i]] for i in range(len(tup)))


def _canonical(coeffs, monoid, tup, divisors=None, groups=None):
    """Sort equal-coefficient slots, then divide out the largest monoid
    element keeping all coordinates in the monoid: the one definition of the
    canonical form.  That element divides the gcd g of the coordinates, so
    the candidates are the entries of `divisors` (the sorted monoid elements
    up to at least g) in (1, g], tried from g downward; without the list the
    monoid is enumerated up to g.  `groups` is _slot_groups(coeffs),
    computed here when not given.  A homogeneous solve calls it only on the
    hits that _canonical_base cannot settle from the window, and enumerates
    the monoid for those hits alone."""
    out = list(tup)
    for idxs in _slot_groups(coeffs) if groups is None else groups:
        vals = sorted(out[i] for i in idxs)
        for i, v in zip(idxs, vals):
            out[i] = v
    best = tuple(out)
    g = math.gcd(*best)
    if g < 2:
        return best
    if divisors is None:
        divisors = monoid.enumerate(g)
    for k in range(bisect.bisect_right(divisors, g) - 1, -1, -1):
        m = divisors[k]
        if m < 2:
            break
        if g % m == 0 and all(monoid.contains(v // m) for v in best):
            return tuple(v // m for v in best)
    return best


def _canonical_base(coeffs, monoid, scanned, members, groups):
    """The sorted set {_canonical(coeffs, monoid, t, divisors, groups) for t
    in scanned}, for hits t of a scan over the window whose elements are the
    set `members`, in one pass over the hits as columns.

    The pass sorts the equal-coefficient slots of every hit, takes the gcd g
    of its coordinates and the quotients t_i / g, and settles the hit when g
    and every quotient lie in the window.  That is exact: every window
    element lies in M, so g is then the largest monoid element <= g, the
    first candidate _canonical tries, and it keeps every coordinate in M, so
    _canonical returns t / g.  For g = 1 the quotients are the slot-sorted
    hit, which _canonical returns at once, and 1 lies in every window.  The
    hits left go through _canonical; the monoid is enumerated up to their
    largest gcd only, and not at all when every hit is settled."""
    if not scanned:
        return []
    cols = list(zip(*scanned))
    for idxs in groups:
        if len(idxs) > 1:
            rows = map(sorted, zip(*(cols[i] for i in idxs)))
            for i, col in zip(idxs, zip(*rows)):
                cols[i] = col
    gcds = list(map(math.gcd, *cols))
    quotients = [list(map(operator.floordiv, col, gcds)) for col in cols]
    in_window = members.__contains__
    settled = list(map(all, zip(map(in_window, gcds),
                                *(map(in_window, q) for q in quotients))))
    base = set(itertools.compress(zip(*quotients), settled))
    left = list(itertools.compress(range(len(scanned)), map(operator.not_, settled)))
    if left:
        divisors = monoid.enumerate(max(gcds[k] for k in left))
        base.update(_canonical(coeffs, monoid, scanned[k], divisors, groups)
                    for k in left)
    return sorted(base)


def solve_homogeneous(coefficients, monoid, exp_bound=DEFAULT_EXPONENT):
    """Translate-family description of a_1 x_1 + ... + a_n x_n = 0 over the
    monoid: canonical base tuples (times M), plus recursive splits for the
    degenerate vanishing-sub-sum regimes."""
    coeffs = [int(a) for a in coefficients]
    if len(coeffs) < 2 or any(a == 0 for a in coeffs):
        raise ValueError("need >= 2 nonzero integer coefficients")
    return _solve_homogeneous(coeffs, monoid, exp_bound, {})


def _solve_homogeneous(coeffs, monoid, exp_bound, memo):
    """solve_homogeneous over checked coefficients.  Each side of a split has
    at least two and at most n - 2 unknowns, so the recursion ends; `memo`
    keeps the solution set of every coefficient tuple solved in this call,
    since the splits of different blocks meet the same sub-tuples, and under
    "splits" the split candidates the whole call visits, counted by the
    top-level call before anything is scanned and refused past SPLIT_CAP.
    Every later window is one of fewer unknowns, so none is refused."""
    key = tuple(coeffs)
    if key in memo:
        return memo[key]
    n = len(coeffs)
    window = _scan_window(monoid, exp_bound, n)
    if "splits" not in memo:
        memo["splits"] = _split_visits(coeffs)
        if memo["splits"] > SPLIT_CAP:
            raise ValueError("homogeneous solve visits more than %d split "
                             "candidates (mann.SPLIT_CAP)" % SPLIT_CAP)
    reps = []   # left empty, it leaves every hit to canonicalise
    scanned = _ratio_scan(coeffs, monoid, exp_bound, window, reps) if n == 3 else None
    if scanned is None:
        scanned = _scan(coeffs, 0, window)
    base = _canonical_base(coeffs, monoid, reps or scanned, set(window), _slot_groups(coeffs))
    splits = []
    for size in range(2, n - 1):
        for sub in itertools.combinations(range(n), size):
            rest = tuple(i for i in range(n) if i not in sub)
            left = _solve_homogeneous([coeffs[i] for i in sub], monoid, exp_bound, memo)
            right = _solve_homogeneous([coeffs[i] for i in rest], monoid, exp_bound, memo)
            if left.base and right.base:
                splits.append(MannSplit(sub, left, right))
    memo[key] = MannSolutionSet(coeffs, monoid, base, splits, exp_bound,
                                BoundedCheck(exp_bound), scanned)
    return memo[key]


def _split_visits(coeffs):
    """The split candidates a homogeneous solve of coeffs visits, memo hits
    included, without solving anything.

    A tuple of L coefficients, the first time it is met, loops over its
    2^L - 2 - 2L subsets of 2 to L - 2 positions.  The tuples met are coeffs
    itself and every distinct subsequence of 2 to n - 2 of its coefficients
    (the top-level loop meets each as a side, and a side's own loop meets
    only shorter subsequences), and only those of 4 or more loop at all.
    distinct[L] counts the distinct subsequences of length L, by the usual
    recurrence: reading a coefficient a extends every subsequence so far,
    less those that already ended at the previous a."""
    n = len(coeffs)
    distinct = [1] + [0] * n
    before = {}     # coefficient -> distinct, just before its last reading
    for a in coeffs:
        dup = before.get(a, [0] * (n + 1))
        before[a] = distinct
        distinct = [1] + [distinct[L] + distinct[L - 1] - dup[L - 1]
                          for L in range(1, n + 1)]

    def loop(L):
        return (1 << L) - 2 - 2 * L if L >= 4 else 0

    return loop(n) + sum(distinct[L] * loop(L) for L in range(4, n - 1))


# ---------------------------------------------------------------------------
# Induced-structure rendering
# ---------------------------------------------------------------------------

class InducedTrace:
    """The solution families re-expressed in the unary-function language:
    each family fixes ratios s_j with x_j = s_j * x_1 as x_1 ranges over the
    monoid.  evaluate() re-derives the tuples from this description alone,
    giving a round-trip check against the scan."""

    def __init__(self, solution_set):
        self.solution_set = solution_set
        self.clauses = [tuple(Fraction(b[j], b[0]) for j in range(len(b)))
                        for b in solution_set.base]

    def render(self):
        lines = []
        for factors in self.clauses:
            parts = ["x1 in M"]
            for j, s in enumerate(factors[1:], start=2):
                parts.append("x%d = (%s)*x1" % (j, s))
            lines.append(" & ".join(parts))
        return lines

    def evaluate(self, exp_bound=None):
        """Family instances regenerated from the s-atoms (with the same
        equal-coefficient permutation closure as the solution set)."""
        sols = self.solution_set
        bound = sols.exp_bound if exp_bound is None else exp_bound
        window = set(sols.monoid.elements_with_exponents(bound))
        out = set()
        for factors in self.clauses:
            for x1 in sorted(window):
                tup = []
                for s in factors:
                    v = s * x1
                    if v.denominator != 1 or v.numerator not in window:
                        break
                    tup.append(int(v))
                else:
                    for perm in _coef_permutations(sols.coefficients,
                                                   tuple(tup)):
                        out.add(perm)
        return out

    def to_json(self):
        return {"clauses": self.render(),
                "ratios": [[str(s) for s in factors]
                           for factors in self.clauses],
                "exponent_bound": self.solution_set.exp_bound,
                "certificate": self.solution_set.certificate.to_json()}


def induced_trace(coefficients, monoid, exp_bound=DEFAULT_EXPONENT):
    return InducedTrace(solve_homogeneous(coefficients, monoid, exp_bound))
