"""Solutions of f_1(n_1) + ... + f_s(n_s) = z as shift-pattern families.

Non-degenerate solutions (pairwise distinct indices, no vanishing proper
sub-sum) of a homogeneous equation over a certified sequence lie on finitely
many *shift patterns*: offset tuples m such that (l+m_1, ..., l+m_s) solves
the equation for every anchor l outside a finite exception set.
Inhomogeneous equations (z != 0) have finitely many non-degenerate solutions
altogether.

The quantitative skeleton used to certify completeness, whose two growth
facts come from the one route that proves them (_proved_growth: a geometric
sum, factorial's exact ratio, or a contracting recurrence):

* a ratio lower bound  r_{n+1} >= rho r_n  (rho > 1) past n0;
* a uniform value bound u with |g(l)| >= u * r_l past a cutoff k_dom, valid
  for every combined operator g arising from offsets in play that the
  sequence does not kill (integrality for geometric sums, top-term dominance
  for factorial growth, a norm bound over the conjugates for contracting
  recurrences);
* a gap bound G with u * rho^(G+1-d_max) > A + |z| (A = total coefficient
  mass): in a non-degenerate solution, a sorted-index gap above G whose top
  sits past the anchor bound L would let the block above the gap outweigh
  everything below it plus z, so all indices stay below the box bound
  L* = L + (s-1)(G+1);
* one non-degenerate scan, _box_scan (one entry of each row, pairwise
  distinct indices, no vanishing proper sub-sum), finds both kinds of
  solution.  Over the kill rows, one packed integer per (variable, offset)
  in [0, (s-1)G], with target 0, it finds the families: a sum of at most s
  kill vectors is 0 exactly when its block is killed (polynomial
  divisibility / vanishing at every base), so a non-degenerate zero is a
  killed block with no killed proper sub-block, and the hits shaped like a
  pattern (min 0, sorted gaps <= G) are kept.  Over the value rows of the
  box [0, L*]^s it finds everything else, a hit that lies on a family being
  dropped by one lookup of its offsets.  The rows are cut from one value
  table, one operators.values window per variable, whose tail out to
  L* + (s-1)G feeds only the exceptions of the families;
* the scan takes the positions in the order of their rows, so that equal
  rows form runs, and lists the first s // 2 of them once per orbit under
  permutations within the runs, the indices increasing within each run
  (_half_entries): a permuted hit has the same terms, so each orbit is
  tested once and then expanded (_orbit);
* for s >= 2 the scan leaves out an index whose term is 0 (a zero term is a
  vanishing singleton, and a zero kill vector a wholly killed variable), so
  every term of a hit is nonzero, and the sub-sum check (subsums._degenerate)
  runs only where it can fail: not for s = 2, nor for s = 3 with z = 0
  (_proper_subsums_nonzero).

A mirrored scan, z = 0 and rows that are each other's negations two by two
in any order (x + y = z + w, [f, -f]; kill rows are negations wherever value
rows are), has sorted rows whose second half is the first negated and
reversed, so the listed half is joined with itself (_self_join).  Any other
scan passes it as one hashed row to the package's one solution-scan kernel,
subsums._meet_in_the_middle (Horowitz and Sahni 1974), which streams the
other rows; the Mann-monoid solver shares it, and it is re-exported here
with _half_sums.  Half sums, lookups and orbit expansions run in C
iterators.

Everything but the split casework (completeness data, kill tester and
partial-kill check, families with their exceptions, box scan) is computed
once per canonical form of the problem, its operators sorted under the
global sign that gives the smaller key (_canonical_form), and mapped back to
the asked order of the unknowns: a permuted or negated problem is the same
problem.  The split recursion runs in the asked order, so the splits, the
certificates and the JSON are those of a solver without the sharing.

The resulting description instantiates to exactly the brute-force answer on
any window, which is the invariant the test-suite oracles check.

Degenerate solutions are organized by partition casework: equal indices are
collapsed through shift_combine at offset 0 (an identically-zero collapse
yields the explicit any-distinct-values family), and vanishing proper
sub-sums are split off recursively by their canonical (smallest) vanishing
subset.  Products arising from such splits are kept structured, since the
flat pattern/sporadic shape cannot express an infinite product faithfully.
"""

import itertools
import operator
from fractions import Fraction

from . import polyops
from . import sequences as sq
from . import operators as op_mod
from .certs import Proved, BoundedCheck, merge
from .jsonio import _json_int, _json_list
from .subsums import _degenerate, _half_sums, _meet_in_the_middle, \
    _proper_subsums_nonzero, _vanishing_subset

ORACLE_CEILING = 40
OFFSET_BUDGET = 64          # cap on the certified gap bound G
ANCHOR_SCAN_BUDGET = 512    # cap on the certified box bound L*
BOUNDED_BOX = 48            # box used when certification is unavailable


class TrivialOperatorPresent(ValueError):
    """solve_nondegenerate rejects cofinitely-vanishing operators; the
    caller must pre-reduce (solve_full's casework covers them)."""


class EquationProblem:
    # Largest number of unknowns s accepted.  The split recursion visits
    # every vanishing sub-block: x1 + ... + x6 = x7 on 2^n takes about 1 s
    # (whole `regseq solve` calls, Python 3.11, 2 CPUs); on Fibonacci six
    # unknowns x1 + x2 + x3 = x4 + x5 + x6 take about 1 s and
    # x1 + ... + x5 = x6 about 1.6 s.
    MAX_UNKNOWNS = 7

    def __init__(self, handle, operators, z):
        self.handle = handle
        self.operators = [op if isinstance(op, op_mod.Operator) else op_mod.Operator(op)
                          for op in operators]
        if not self.operators:
            raise ValueError("need at least one operator")
        if len(self.operators) > self.MAX_UNKNOWNS:
            raise ValueError("equation has %d unknowns; at most %d are supported"
                             % (len(self.operators), self.MAX_UNKNOWNS))
        self.z = int(z)

    @property
    def s(self):
        return len(self.operators)

    def value(self, var, n):
        return op_mod.apply(self.operators[var], self.handle, n)

    def to_json(self):
        return {"operators": [op.to_json() for op in self.operators],
                "target": str(self.z)}

    @staticmethod
    def from_json(handle, obj):
        if not isinstance(obj, dict):
            raise ValueError("problem must be a JSON object")
        return EquationProblem(handle,
                               [op_mod.Operator.from_json(o)
                                for o in _json_list(obj.get("operators"), "operators")],
                               _json_int(obj.get("target"), "target"))


# ---------------------------------------------------------------------------
# Patterns and solution containers
# ---------------------------------------------------------------------------

class ShiftPattern:
    """Offsets (m_1, ..., m_s) with min 0; the anchor is the variable at
    offset 0 (unique, offsets in a non-degenerate pattern being distinct).
    The validity is cofinite: every anchor l works except the listed
    exceptions.
    """

    COFINITE = "cofinite"
    validity = COFINITE

    def __init__(self, offsets, exceptions):
        self.offsets = tuple(int(m) for m in offsets)
        if min(self.offsets) != 0:
            raise ValueError("pattern offsets must be anchored at 0")
        self.exceptions = tuple(sorted(int(x) for x in exceptions))

    def instantiate(self, l):
        return tuple(l + m for m in self.offsets)

    def valid_anchor(self, l):
        return l >= 0 and l not in self.exceptions

    def tuples_up_to(self, n):
        top = n - max(self.offsets)
        return [self.instantiate(l) for l in range(top + 1) if self.valid_anchor(l)]

    def matches(self, tup):
        l = min(tup)
        return tuple(v - l for v in tup) == self.offsets and self.valid_anchor(l)

    def __repr__(self):
        return "ShiftPattern(%s, %s %s)" % (self.offsets, self.validity, self.exceptions)

    def to_json(self):
        return {"offsets": [str(m) for m in self.offsets], "validity": self.validity,
                "exceptions": [str(e) for e in self.exceptions]}


class Split:
    """Degenerate-but-distinct solutions whose canonical vanishing subset is
    ``subset`` (0-based positions): the subset solves its sub-equation with
    target 0, the complement carries the full target; cross-distinctness and
    canonical-subset membership are enforced on instantiation."""

    def __init__(self, subset, zero_side, target_side):
        self.subset = tuple(sorted(subset))
        self.zero_side = zero_side
        self.target_side = target_side

    def to_json(self):
        return {"subset": [str(i + 1) for i in self.subset],
                "zero_side": self.zero_side.to_json(),
                "target_side": self.target_side.to_json()}


class DistinctSolutions:
    """All solutions with pairwise distinct indices for one operator tuple:
    non-degenerate families (patterns) and finite tuples (sporadic), plus
    structured splits for the degenerate-but-distinct part."""

    def __init__(self, problem, patterns, sporadic, splits, certificate, bound):
        self.problem = problem
        self.patterns = list(patterns)
        self.sporadic = sorted(tuple(t) for t in sporadic)
        self.splits = list(splits)
        self.certificate = certificate
        self.bound = int(bound)

    def is_empty(self):
        return not self.patterns and not self.sporadic and not self.splits

    def tuples_up_to(self, n):
        """Every described tuple with all entries <= n, sorted."""
        out = set()
        for p in self.patterns:
            out.update(p.tuples_up_to(n))
        out.update(t for t in self.sporadic if all(v <= n for v in t))
        for sp in self.splits:
            out.update(self.split_tuples(sp, n))
        return sorted(out)

    def split_tuples(self, sp, n):
        comp = tuple(i for i in range(self.problem.s) if i not in sp.subset)
        out = []
        for a in sp.zero_side.tuples_up_to(n):
            sa = set(a)
            for b in sp.target_side.tuples_up_to(n):
                if sa & set(b):
                    continue
                tup = [None] * self.problem.s
                for pos, v in zip(sp.subset, a):
                    tup[pos] = v
                for pos, v in zip(comp, b):
                    tup[pos] = v
                tup = tuple(tup)
                terms = [self.problem.value(j, v) for j, v in enumerate(tup)]
                if _vanishing_subset(terms) == sp.subset:
                    out.append(tup)
        return out

    def to_json(self):
        return {"patterns": [p.to_json() for p in self.patterns],
                "sporadic": [[str(v) for v in t] for t in self.sporadic],
                "splits": [sp.to_json() for sp in self.splits],
                "certificate": self.certificate.to_json(),
                "bound": str(self.bound)}


class CaseSolution:
    """One partition case.  Classes are listed by minimum member; free
    positions are classes whose collapsed operator cancels identically (any
    distinct values solve); the remaining classes carry a DistinctSolutions
    over the collapsed operators."""

    def __init__(self, partition, free_positions, active_positions, distinct):
        self.partition = tuple(tuple(sorted(c)) for c in partition)
        self.free_positions = tuple(free_positions)
        self.active_positions = tuple(active_positions)
        self.distinct = distinct

    def to_json(self):
        out = {"partition": [[str(i + 1) for i in c] for c in self.partition],
               "free_classes": [str(i + 1) for i in self.free_positions]}
        if self.distinct is not None:
            out["solutions"] = self.distinct.to_json()
        return out


class SolutionDescription:
    def __init__(self, problem, cases, certificate):
        self.problem = problem
        self.cases = cases
        self.certificate = certificate

    def instantiate(self, n):
        """All solution tuples in [0, n]^s described here (the oracle-facing
        view, compared verbatim against brute force by the tests)."""
        out = set()
        for case in self.cases:
            for tup in _case_tuples(self.problem, case, n):
                if tup in out:
                    raise AssertionError("case overlap on %s" % (tup,))
                out.add(tup)
        return out

    def to_json(self):
        return {"problem": self.problem.to_json(),
                "cases": [c.to_json() for c in self.cases],
                "certificate": self.certificate.to_json()}


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------

def brute_force(problem, n):
    """All tuples in [0, n]^s summing to z, each tagged non-degenerate or
    with its witnessing index collision / canonical vanishing sub-sum."""
    if n > ORACLE_CEILING:
        raise ValueError("oracle window above the configured ceiling")
    vals = _value_table(problem, n)
    out = []
    for tup in itertools.product(range(n + 1), repeat=problem.s):
        if sum(vals[j][tup[j]] for j in range(problem.s)) != problem.z:
            continue
        out.append((tup, _tag(problem.s, vals, tup)))
    return out


def _value_table(problem, n):
    """Row j lists f_j(0), ..., f_j(n): one operators.values window each."""
    return [op_mod.values(op, problem.handle, n + 1) for op in problem.operators]


def _tag(s, vals, tup):
    for i in range(s):
        for j in range(i + 1, s):
            if tup[i] == tup[j]:
                return {"status": "collision", "pair": (i, j)}
    sub = _vanishing_subset([row[v] for row, v in zip(vals, tup)])
    if sub is not None:
        return {"status": "vanishing", "subset": sub}
    return {"status": "non-degenerate"}


# ---------------------------------------------------------------------------
# Completeness data
# ---------------------------------------------------------------------------

class _Completeness:
    def __init__(self, gap, box, cert):
        self.gap = gap      # G
        self.box = box      # L*
        self.cert = cert


def _bounded_completeness(s):
    gap = 8
    box = BOUNDED_BOX + (s - 1) * (gap + 1)
    return _Completeness(gap, box, BoundedCheck(box))


def _completeness_data(handle, ops, z, s):
    """Certified gap/box bounds for the given operators, or the bounded
    fallback where no route proves the sequence's growth or the sequence
    cannot be evaluated that far."""
    A = sum(op.mass() for op in ops)
    d_max = max(op.degree for op in ops)
    try:
        growth = _proved_growth(handle, A)
        if growth is None:
            return _bounded_completeness(s)
        rho, n0, u_star, cutoff = growth
        # gap bound: u* rho^(G+1-d_max) > A + |z|
        target = Fraction(A + abs(z)) / u_star
        G = d_max
        power = rho
        while power <= target:
            G += 1
            power *= rho
            if G > OFFSET_BUDGET:
                return _bounded_completeness(s)
        k_dom = cutoff((s - 1) * G + d_max)
    except ValueError:
        return _bounded_completeness(s)
    if k_dom is None:
        return _bounded_completeness(s)

    # u* r_L > A + |z| already holds: r_L >= rho^(L - n0) and L - n0 exceeds
    # G + 1 - d_max, so every term past the anchor bound outweighs the target.
    L = max(n0, k_dom) + G + d_max + 2
    box = L + (s - 1) * (G + 1)
    if box > ANCHOR_SCAN_BUDGET:
        return _Completeness(G, ANCHOR_SCAN_BUDGET, BoundedCheck(ANCHOR_SCAN_BUDGET))
    return _Completeness(G, box, Proved("dominance-bounds"))


def _proved_growth(handle, A):
    """(rho, n0, u, cutoff) from the one route that proves the sequence's
    growth, or None where no route applies:

    * r_{n+1} >= rho r_n for every n >= n0, with rho > 1;
    * |g(l)| >= u r_l for every l >= cutoff(degree) and every combined
      operator g of mass <= A, its offsets plus degree at most degree, that
      the sequence does not kill (nor, when geometric, partially kill);
      cutoff returns None where its walk ends unproved.

    Geometric sums r_n = sum c_j q_j^n read their bases: integrality of the
    coefficients gives u.  Factorial reads its exact ratio n + 3, above 2A
    from n = 2A - 2 on, so the top term of g is at least twice the rest.  A
    contracting recurrence of degree k walks its defect bound: every
    conjugate of theta lies strictly inside the unit circle, so the norm of
    the algebraic integer g(theta) is a nonzero rational integer while each
    conjugate factor is at most A, giving |g(theta)| >= 1 / A^(k-1); the
    classification slack halves it."""
    expansion = sq.power_base_expansion(handle.spec)
    if expansion is not None:
        theta = expansion[-1][0]
        # theta^k must outgrow the competing value mass 2 A theta^degree q2^k
        # of the next base q2; a single base has none
        q2, rival = (expansion[-2][0], 2 * A) if len(expansion) > 1 else (0, 0)
        u = Fraction(1, 2 * sum(c for _, c in expansion))
        return (Fraction(expansion[0][0]), 0, u,
                lambda degree: sq._geometric_cutoff(1, rival * theta ** degree, theta, q2))
    if handle.spec.kind == sq.KIND_FACTORIAL:
        return Fraction(3), 0, Fraction(1, 2), lambda degree: 2 * A - 2
    data = sq._contraction_data(handle)
    if data is None:
        return None
    lo, hi = data.theta_iv
    rho = 1 + (lo - 1) * Fraction(3, 4)  # margin lo - rho = (lo-1)/4 > 0
    n0 = data.first_index(handle, 1, lo - rho, sq.RATIO_SCAN_BUDGET)
    if n0 is None:
        return None
    u = Fraction(1, 2 * A ** data.step)
    return rho, n0, u, lambda degree: data.first_index(
        handle, degree * max(Fraction(1), hi) ** (degree - 1), u / A, sq.RATIO_SCAN_BUDGET)


# ---------------------------------------------------------------------------
# Exact kill tests for combined operators
# ---------------------------------------------------------------------------

class _KillTester:
    """One integer per (variable, offset) whose sums over a block of
    variables decide whether the combined operator sum_j S^{m_j} f_j is
    killed by the sequence (a family), partially killed (only the dominant
    summand dies: a certification gap), or clean.

    Each integer packs a vector of coordinates, all of which vanish exactly
    when the operator is killed:

    * geometric: f_j(q) q^m for each base q of the power-sum expansion;
    * algebraic: the coefficients of X^m f_j reduced modulo the minimal
      polynomial of theta;
    * marker: the coefficients of X^m f_j itself (width max_offset + d_max
      + 1), so only an identically cancelling combination is killed.

    The coordinates are balanced base-2^bits digits with 2^(bits-1) above s
    times the largest coordinate, so no sum of at most s vectors carries
    between digits and a packed sum is 0 exactly when every coordinate is.
    In geometric mode ``top_rows`` holds the dominant coordinate alone."""

    def __init__(self, handle, ops, max_offset):
        self.mode, vectors = _kill_vectors(handle, ops, max_offset)
        self.top_rows = ([[v[-1] for v in row] for row in vectors]
                         if self.mode == "geometric" else None)
        largest = max(abs(c) for row in vectors for v in row for c in v)
        bits = (len(ops) * largest).bit_length() + 1
        self.rows = [[sum(c << (bits * i) for i, c in enumerate(v)) for v in row]
                     for row in vectors]

    def partial(self, members, offsets):
        """Whether sum_j S^{m_j} f_j over members kills the dominant
        coordinate but not the whole operator (geometric mode only)."""
        terms = list(zip(members, offsets))
        return (sum(self.top_rows[j][m] for j, m in terms) == 0
                and sum(self.rows[j][m] for j, m in terms) != 0)


def _kill_vectors(handle, ops, max_offset):
    """The tester's mode and its coordinate vectors, indexed [variable][offset]."""
    offsets = range(max_offset + 1)
    expansion = sq.power_base_expansion(handle.spec)
    if expansion is not None:
        bases = [q for q, _ in expansion]
        return "geometric", [[[polyops.peval(op.poly(), q) * q ** m for q in bases]
                              for m in offsets]
                             for op in ops]
    kepler = sq._cached_kepler(handle)
    if (kepler.kind == sq.KeplerLimit.ALGEBRAIC
            and sq.certify(handle).recurrence_certified):
        P = kepler.minpoly.coeffs
        k = kepler.minpoly.degree
        # X^m mod P (monic, integer coefficients) for every offset+shift
        pows = []
        cur = [1] + [0] * (k - 1)
        for _ in range(max_offset + max(op.degree for op in ops) + 1):
            pows.append(list(cur))
            carry = cur[-1]
            cur = [0] + cur[:-1]
            for i in range(k):
                cur[i] -= carry * P[i]
        vectors = []
        for op in ops:
            per_offset = []
            for m in offsets:
                acc = [0] * k
                for i, a in enumerate(op.coeffs):
                    if a:
                        row = pows[m + i]
                        for t in range(k):
                            acc[t] += a * row[t]
                per_offset.append(acc)
            vectors.append(per_offset)
        return "algebraic", vectors
    width = max_offset + max(op.degree for op in ops) + 1
    return "marker", [[[0] * m + list(op.coeffs) + [0] * (width - m - len(op.coeffs))
                       for m in offsets]
                      for op in ops]


# ---------------------------------------------------------------------------
# Core solver over pairwise distinct indices
# ---------------------------------------------------------------------------

def _box_scan(vals, z, keep=None):
    """The non-degenerate index tuples over the rows `vals` (one entry of
    each row, pairwise distinct indices, no vanishing proper sub-sum) that
    sum to z and pass `keep`, sorted.  The solver's value rows cover the
    box [0, L*] alone; the value table's tail past L* feeds only the
    pattern exceptions.  The positions are taken in the order of their
    rows, so that equal rows form runs; the first s // 2 are listed once
    per orbit under permutations within the runs (_half_entries), a list
    that mirrored rows (_mirrored) join with itself (_self_join) and any
    others pass to the kernel as one hashed row.  Each hit is tested once,
    where _proper_subsums_nonzero does not settle it, then expanded
    (_orbit)."""
    s = len(vals)
    half = s // 2
    order = sorted(range(s), key=vals.__getitem__)
    rows = [vals[j] for j in order]
    runs = [len(list(run)) for _, run in itertools.groupby(rows[:half])]
    entries, sums = _half_entries(rows[:half], runs)
    if _mirrored(rows, z):
        joined = _self_join(entries, sums, rows[:half], runs)
    else:
        check = not _proper_subsums_nonzero(s, z)
        streamed = [[i for i, v in enumerate(row) if v or s == 1] for row in rows[half:]]
        values = [[row[i] for i in idx] for row, idx in zip(rows[half:], streamed)]
        grouped = {}
        for hit in _meet_in_the_middle([sums] + values, z, [entries] + streamed, half=1):
            full = hit[0] + hit[1:]
            if len(set(full)) == s and not (
                    check and _degenerate([row[v] for row, v in zip(rows, full)])):
                grouped.setdefault(hit[0], []).append(hit[1:])
        joined = grouped.items()
    # back from row order to position order
    restore = (None if order == sorted(order)
               else operator.itemgetter(*sorted(range(s), key=order.__getitem__)))
    out = []
    for entry, rights in joined:
        hits = itertools.starmap(operator.add, itertools.product(_orbit(entry, runs), rights))
        out.extend(hits if restore is None else map(restore, hits))
    if keep is not None:
        out = list(filter(keep, out))
    out.sort()
    return out


def _half_entries(rows, runs):
    """The hashed half of a box scan over `rows`, whose equal rows are
    adjacent in runs of the given lengths: one index tuple per orbit under
    permutations within the runs (its indices increasing within each run),
    none with a repeated index or a zero term, and the sum of each one's
    terms.  No rows give the one empty tuple, summing to 0."""
    combos, run_sums, start = [], [], 0
    for length in runs:
        row = rows[start]
        start += length
        nonzero = [i for i, v in enumerate(row) if v]
        combos.append(list(itertools.combinations(nonzero, length)))
        run_sums.append(list(map(sum, itertools.combinations([row[i] for i in nonzero],
                                                             length))))
    if len(runs) == 1:
        return combos[0], run_sums[0]
    entries = list(map(_flatten, itertools.product(*combos)))
    distinct = list(map(len(rows).__eq__, map(len, map(set, entries))))
    return (list(itertools.compress(entries, distinct)),
            list(itertools.compress(_half_sums(run_sums), distinct)))


def _orbit(entry, runs):
    """Every permutation of entry within runs of the given lengths."""
    if len(entry) == len(runs):
        return [entry]
    perms, start = [], 0
    for length in runs:
        perms.append(itertools.permutations(entry[start:start + length]))
        start += length
    return list(map(_flatten, itertools.product(*perms)))


def _on_pattern(by_offsets, tup):
    """Whether tup instantiates the pattern stored under its offsets."""
    l = min(tup)
    p = by_offsets.get(tuple(v - l for v in tup))
    return p is not None and p.matches(tup)


def _pattern_shaped(offsets, gap):
    """Whether offsets have min 0 and consecutive sorted gaps in [1, gap]."""
    ordered = sorted(offsets)
    return ordered[0] == 0 and all(1 <= b - a <= gap
                                   for a, b in zip(ordered, ordered[1:]))


def _mirrored(rows, z):
    """Whether z = 0 and the sorted `rows` are the negations of each other
    two by two (x + y = z + w, [f, -f], ...).  Negation reverses
    lexicographic order, so they are exactly when s is even and the second
    half is the first half negated and reversed."""
    s = len(rows)
    return z == 0 and s % 2 == 0 and all(
        right == list(map(operator.neg, left))
        for left, right in zip(rows[:s // 2], reversed(rows[s // 2:])))


def _self_join(entries, sums, rows, runs):
    """The hits of a mirrored scan (see _mirrored) over the listed half
    `entries` of the sorted `rows`, as (entry, right halves) pairs.  The
    sorted second half is the first negated and reversed, so a solution is
    two disjoint entries A != B of one sum, each permuted within its runs, B
    reversed on the right.  One sub-sum test per unordered pair settles
    every orbit and the mirror, the terms being those of (A, B) or of (B, A)
    negated.  Only sums that two or more entries share are hashed, found by
    sorting; a zero sum is a vanishing half."""
    ordered = sorted(sums)
    shared = set(itertools.compress(ordered, map(operator.eq, ordered,
                                                 itertools.islice(ordered, 1, None))))
    shared.discard(0)
    table = {}
    for entry, total in itertools.compress(zip(entries, sums), map(shared.__contains__, sums)):
        table.setdefault(total, []).append(entry)
    joined = []
    for bucket in table.values():
        if len(rows) == 1:
            # one index a side, its term nonzero: any two entries solve
            joined.extend((entry, bucket[:i] + bucket[i + 1:])
                          for i, entry in enumerate(bucket))
            continue
        partners = [[] for _ in bucket]
        terms = [[row[v] for row, v in zip(rows, entry)] for entry in bucket]
        for i, j in itertools.combinations(range(len(bucket)), 2):
            if set(bucket[i]).isdisjoint(bucket[j]) \
                    and not _degenerate(terms[i] + [-t for t in terms[j]]):
                partners[i].append(j)
                partners[j].append(i)
        # the partner relation is symmetric: an entry with partners is one
        flipped = [[m[::-1] for m in _orbit(entry, runs)] if js else None
                   for entry, js in zip(bucket, partners)]
        joined.extend((entry, [m for j in js for m in flipped[j]])
                      for entry, js in zip(bucket, partners) if js)
    return joined


def _flatten(parts):
    """One tuple from a tuple of tuples."""
    return tuple(itertools.chain.from_iterable(parts))


def _family_offsets(tester, s, gap):
    """Offset patterns (min 0, sorted gaps <= gap) whose combined operator
    the sequence kills and no proper sub-block of which it kills: the box
    scan of the kill rows over the span (s-1) gap + 1, target 0.  A sum of
    at most s packed kill vectors is 0 exactly when its block is killed, so
    a vanishing proper sub-sum is a killed proper sub-block (every instance
    would carry a vanishing sub-sum) and a zero term a wholly killed
    variable."""
    span = (s - 1) * gap + 1
    return _box_scan([row[:span] for row in tester.rows], 0,
                     lambda offsets: _pattern_shaped(offsets, gap))


def _partial_kill_present(tester, s, gap):
    """Whether some block of variables has an offset pattern that kills the
    dominant coordinate but not the whole combined operator.  Every
    pattern-shaped zero of the dominant coordinate counts, degenerate ones
    included.  A block of wholly killed variables can only be killed, so it
    is skipped."""
    for size in range(1, s + 1):
        span = (size - 1) * gap + 1
        for members in itertools.combinations(range(s), size):
            if all(tester.rows[j][0] == 0 for j in members):
                continue
            rows = [tester.top_rows[j][:span] for j in members]
            for offsets in _meet_in_the_middle(rows, 0):
                if _pattern_shaped(offsets, gap) and tester.partial(members, offsets):
                    return True
    return False


def _core(problem, memo):
    """(completeness, patterns, sporadic) of the problem, computed once per
    canonical form (see _canonical_form) and mapped back to the asked order
    of the unknowns.  Every part of it is equivariant: permuting the
    unknowns permutes offsets and tuples alike, and negating every operator
    and z changes none of it."""
    ckey, order = _canonical_form(problem)
    core = memo.get(("core", ckey))
    if core is None:
        core = memo[("core", ckey)] = _solve_core(EquationProblem(problem.handle, *ckey))
    if order is None:
        return core
    comp, patterns, sporadic = core
    back = operator.itemgetter(*order)
    patterns = sorted((ShiftPattern(back(p.offsets), p.exceptions) for p in patterns),
                      key=lambda p: p.offsets)
    return comp, patterns, list(map(back, sporadic))


def _canonical_form(problem):
    """(key, order): the key is (operator coefficients sorted, z) under the
    global sign, keeping or negating every operator and z, that gives the
    smaller key; asked unknown i is canonical unknown order[i], and order
    is None when they are the same unknown for every i."""
    coeffs = [op.coeffs for op in problem.operators]
    negated = [tuple(-c for c in cs) for cs in coeffs]
    candidates = []
    for signed, z in ((coeffs, problem.z), (negated, -problem.z)):
        rank = sorted(range(len(signed)), key=signed.__getitem__)
        candidates.append(((tuple(signed[i] for i in rank), z), rank))
    ckey, rank = min(candidates, key=lambda cand: cand[0])
    if rank == sorted(rank):
        return ckey, None
    return ckey, sorted(range(len(rank)), key=rank.__getitem__)


def _solve_core(problem):
    """Completeness data, families with their exceptions and the sporadic
    tuples of the problem: everything of _solve_distinct but the splits."""
    handle = problem.handle
    ops = problem.operators
    s, z = problem.s, problem.z

    comp = _completeness_data(handle, ops, z, s)
    max_offset = (s - 1) * comp.gap
    tester = _KillTester(handle, ops, max_offset)

    # A partial kill anywhere in the block landscape breaks the uniform
    # bound; fall back to an explicitly bounded description.
    if tester.mode == "geometric" and comp.cert.is_proved:
        if _partial_kill_present(tester, s, comp.gap):
            box = max(comp.box, BOUNDED_BOX)
            comp = _Completeness(comp.gap, box, BoundedCheck(box))

    family_offsets = _family_offsets(tester, s, comp.gap) if z == 0 else []
    vals = _value_table(problem, comp.box + max_offset)

    # Exceptions: anchors whose instance degenerates.  Beyond the box every
    # proper sub-sum of a family is certified nonzero (non-killed blocks obey
    # the uniform lower bound there), so the scan is exhaustive.  Only they
    # read the table past the box.
    patterns = []
    for offsets in sorted(family_offsets):
        exceptions = [l for l in range(comp.box + 1)
                      if _degenerate([row[l + m] for row, m in zip(vals, offsets)])]
        patterns.append(ShiftPattern(offsets, exceptions))

    # Sporadic: non-degenerate solutions in the box [0, L*]^s not riding a
    # family.
    keep = None
    if patterns:
        by_offsets = {p.offsets: p for p in patterns}
        keep = lambda tup: not _on_pattern(by_offsets, tup)
    return comp, patterns, _box_scan([row[:comp.box + 1] for row in vals], z, keep)


def _solve_distinct(problem, memo):
    """Patterns + sporadic + splits over pairwise distinct indices."""
    key = (tuple(op.coeffs for op in problem.operators), problem.z)
    if key in memo:
        return memo[key]
    handle = problem.handle
    ops = problem.operators
    s, z = problem.s, problem.z
    comp, patterns, sporadic = _core(problem, memo)

    # Degenerate-but-distinct: recurse on the canonical vanishing subset
    # (each side has fewer unknowns, so the recursion ends).
    # An empty side still vouches for the emptiness of its split, so its
    # certificate is merged before the split is skipped.
    splits = []
    certs = [comp.cert]
    for size in range(1, s):
        for sub in itertools.combinations(range(s), size):
            zero_side = _solve_distinct(
                EquationProblem(handle, [ops[i] for i in sub], 0), memo)
            certs.append(zero_side.certificate)
            if zero_side.is_empty():
                continue
            comp_vars = [i for i in range(s) if i not in sub]
            target_side = _solve_distinct(
                EquationProblem(handle, [ops[i] for i in comp_vars], z), memo)
            certs.append(target_side.certificate)
            if target_side.is_empty():
                continue
            splits.append(Split(sub, zero_side, target_side))

    if z != 0:
        assert not patterns, "inhomogeneous equation produced pattern families"

    result = DistinctSolutions(problem, patterns, sporadic, splits,
                               merge(certs, reason="dominance-bounds"), comp.box)
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def solve_nondegenerate(problem):
    """Non-degenerate solutions: shift-pattern families + sporadic tuples,
    certified by the problem's own completeness data (no split is solved).

    Raises TrivialOperatorPresent when an operator vanishes cofinitely:
    every tuple would carry a vanishing singleton sub-sum.  Pre-reduce, or
    use solve_full, whose casework covers such operators."""
    op = _trivial_operator(problem)
    if op is not None:
        raise TrivialOperatorPresent(
            "operator %s vanishes cofinitely; pre-reduce it" % (op,))
    comp, patterns, sporadic = _core(problem, {})
    return DistinctSolutions(problem, patterns, sporadic, [], comp.cert, comp.box)


def _trivial_operator(problem):
    """The first operator of the problem that vanishes cofinitely, or None."""
    return next((op for op in problem.operators if isinstance(
        op_mod.classify(op, problem.handle), op_mod.CofiniteZero)), None)


def solve_full(problem):
    """Complete solution description organized by partition casework."""
    memo = {}
    cases = []
    certs = []
    for classes in _set_partitions(problem.s):
        collapsed = [op_mod.shift_combine([problem.operators[i] for i in c],
                                          [0] * len(c))
                     for c in classes]
        free_pos = tuple(i for i, g in enumerate(collapsed) if g is op_mod.ZERO)
        active_pos = tuple(i for i, g in enumerate(collapsed) if g is not op_mod.ZERO)
        if not active_pos:
            if problem.z == 0:
                cases.append(CaseSolution(classes, free_pos, (), None))
            continue
        sub = EquationProblem(problem.handle, [collapsed[i] for i in active_pos], problem.z)
        dsol = _solve_distinct(sub, memo)
        certs.append(dsol.certificate)
        if dsol.is_empty():
            continue
        cases.append(CaseSolution(classes, free_pos, active_pos, dsol))
    return SolutionDescription(problem, cases, merge(certs, reason="dominance-bounds"))


def _set_partitions(s):
    """Partitions of {0..s-1} as sorted tuples of sorted tuples, classes
    ordered by minimum member; deterministic order."""
    def rec(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in rec(rest):
            yield [[first]] + [list(c) for c in part]
            for i in range(len(part)):
                yield ([list(c) for c in part[:i]] + [[first] + list(part[i])]
                       + [list(c) for c in part[i + 1:]])
    for part in rec(list(range(s))):
        yield tuple(sorted(tuple(sorted(c)) for c in part))


def _case_tuples(problem, case, n):
    """Original-variable tuples in [0, n]^s contributed by one case."""
    classes = case.partition
    if case.distinct is None:
        active_tuples = [()]
    else:
        active_tuples = case.distinct.tuples_up_to(n)
    out = []
    for act in active_tuples:
        used = set(act)
        pool = [v for v in range(n + 1) if v not in used]
        for free_vals in itertools.permutations(pool, len(case.free_positions)):
            assign = {}
            for pos, v in zip(case.active_positions, act):
                assign[pos] = v
            for pos, v in zip(case.free_positions, free_vals):
                assign[pos] = v
            tup = [None] * problem.s
            for ci, cls in enumerate(classes):
                for var in cls:
                    tup[var] = assign[ci]
            out.append(tuple(tup))
    return out
