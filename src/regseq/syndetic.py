"""Desk-scale gap statistics for integer sets.

A set is piecewise syndetic when it contains arbitrarily long runs of
elements at gaps bounded by a fixed d.  Nothing asymptotic can be proved by
enumeration, so everything here is labeled window evidence: gap_runs reports
the longest bounded-gap chain among the elements in the top half of the
window (the far-out region is what the definition cares about; the dense
initial segment of most image sets would otherwise drown the statistic),
cover_check hunts for a progression element missed by every image set, and
brown_decompose picks the partition part whose runs dominate.

Only operator-image sums need the operators layer, so it is imported where
they are built and evaluated; until then syndetic loads no other regseq
module.
"""

from fractions import Fraction

VALUE_PATIENCE = 8
INDEX_CEILING = 100000
# partial sums z + f_1(n_1) + ... + f_i(n_i) one image-sum enumeration may
# visit: k operators with w values each in the window make up to w^k of them
PARTIAL_SUM_CAP = 10 ** 6


class EnumerableSet:
    """A set of naturals enumerable up to a horizon.

    Sources: explicit lists, arithmetic progressions, operator-image sums
    z + f_1(n_1) + ... + f_k(n_k) over a sequence handle, monoid element
    streams, or any user callable mapping a horizon to an iterable."""

    def __init__(self, label, generator):
        self.label = label
        self._generator = generator
        self._cache_n = -1
        self._cache = []

    @staticmethod
    def from_list(values, label=None):
        vals = sorted(set(int(v) for v in values))
        return EnumerableSet(label or "list",
                             lambda n: [v for v in vals if 0 <= v <= n])

    @staticmethod
    def progression(a, d, label=None):
        if a < 0 or d <= 0:
            raise ValueError("progression needs a >= 0 and d >= 1")
        return EnumerableSet(label or "%d+%dN" % (a, d),
                             lambda n: range(a, n + 1, d))

    @staticmethod
    def image_sum(handle, ops, z=0, label=None):
        from .operators import Operator
        ops = [op if isinstance(op, Operator) else Operator(op) for op in ops]
        name = label or "image-sum"
        return EnumerableSet(name, lambda n: _image_sums(handle, ops, z, n))

    @staticmethod
    def monoid_stream(monoid, label=None):
        return EnumerableSet(label or "monoid",
                             lambda n: [v for v in monoid.enumerate(n) if v >= 0])

    @staticmethod
    def from_callable(fn, label):
        return EnumerableSet(label, fn)

    def up_to(self, n):
        """Sorted duplicate-free elements in [0, n]."""
        if n > self._cache_n:
            self._cache = sorted(set(int(v) for v in self._generator(n)
                                     if 0 <= v <= n))
            self._cache_n = n
        return [v for v in self._cache if v <= n]

    def to_json(self):
        return {"label": self.label}


def _image_sums(handle, ops, z, n):
    lists = [_op_values(handle, op, n + abs(z)) for op in ops]
    out = set()
    nonneg = all(all(v >= 0 for v in lst) for lst in lists)
    tails = []
    if nonneg:
        acc = 0
        for lst in reversed(lists):
            tails.append(acc)
            acc += min(lst) if lst else 0
        tails.reverse()

    visited = 0

    def rec(i, acc):
        nonlocal visited
        if i == len(lists):
            if 0 <= acc <= n:
                out.add(acc)
            return
        for v in lists[i]:
            if nonneg and acc + v + tails[i] > n:
                break
            visited += 1
            if visited > PARTIAL_SUM_CAP:
                raise ValueError("image sum visits more than %d partial sums "
                                 "(syndetic.PARTIAL_SUM_CAP); use fewer operators "
                                 "or a smaller horizon" % PARTIAL_SUM_CAP)
            rec(i + 1, acc + v)

    rec(0, z)
    return out


def _op_values(handle, op, bound):
    """Operator values with |value| <= bound, scanned until the image has
    clearly left the window (a patience run of consecutive misses)."""
    from .operators import apply
    vals = []
    misses = 0
    n = 0
    while misses < VALUE_PATIENCE and n < INDEX_CEILING:
        v = apply(op, handle, n)
        if abs(v) <= bound:
            vals.append(v)
            misses = 0
        else:
            misses += 1
        n += 1
    return sorted(vals)


class GapRunReport:
    """Longest run of elements at gaps <= d inside the top half-window
    (N/2, N], counted in bounded gaps (edges, not vertices); density is
    measured over the whole window."""

    def __init__(self, d, longest_run, run_location, density, horizon,
                 runs_by_gap=None):
        self.d = d
        self.longest_run = longest_run
        self.run_location = run_location   # (first, last) elements or None
        self.density = density
        self.horizon = horizon
        self.runs_by_gap = runs_by_gap

    def to_json(self):
        out = {"d": self.d,
               "longest_run": self.longest_run,
               "run_location": list(self.run_location)
               if self.run_location else None,
               "density": self.density,
               "horizon": self.horizon,
               "scope": "window-evidence-only"}
        if self.runs_by_gap is not None:
            out["runs_by_gap"] = {str(i): r for i, r in self.runs_by_gap.items()}
        return out


def gap_runs(enum_set, horizon, d, by_gap=False):
    """Exact longest d-bounded run among the set's elements in the top half
    of [0, horizon], plus the window density."""
    if d < 1:
        raise ValueError("gap bound d must be >= 1")
    elements = enum_set.up_to(horizon)
    density = Fraction(len(elements), horizon + 1)
    top = [v for v in elements if v > horizon // 2]
    longest, location = _longest_chain(top, d)
    runs_by_gap = None
    if by_gap:
        runs_by_gap = {i: _longest_chain(top, i)[0] for i in range(1, d + 1)}
    return GapRunReport(d, longest, location, density, horizon, runs_by_gap)


def _longest_chain(sorted_vals, d):
    best = 0
    best_loc = None
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] - sorted_vals[j] <= d:
            j += 1
        if j - i > best or best_loc is None and sorted_vals:
            best = j - i
            best_loc = (sorted_vals[i], sorted_vals[j])
        i = j + 1
    return best, best_loc


class CoverReport:
    def __init__(self, a, d, horizon, witness=None, covered=False):
        self.a, self.d, self.horizon = a, d, horizon
        self.witness = witness
        self.covered = covered

    def to_json(self):
        out = {"a": self.a, "d": self.d, "horizon": self.horizon}
        if self.covered:
            out["covered"] = True
            out["remark"] = ("window covered; a finite window never "
                             "contradicts the covering theorem")
        else:
            out["witness"] = self.witness
        return out


def cover_check(a, d, images, horizon):
    """Smallest element of a + d*N within [0, horizon] missed by every
    image set, or an exhaustion report when the window is covered."""
    if a < 0 or d <= 0:
        raise ValueError("progression needs a >= 0 and d >= 1")
    union = set()
    for image in images:
        union.update(image.up_to(horizon))
    for t in range(a, horizon + 1, d):
        if t not in union:
            return CoverReport(a, d, horizon, witness=t)
    return CoverReport(a, d, horizon, covered=True)


class BrownReport:
    def __init__(self, index, reports):
        self.index = index
        self.reports = reports

    def to_json(self):
        return {"index": self.index,
                "parts": [r.to_json() for r in self.reports]}


def brown_decompose(enum_set, parts, horizon, d):
    """The partition part whose longest d-bounded run dominates (ties to the
    lowest index); rejects part lists that fail to partition the set's
    window elements."""
    universe = enum_set.up_to(horizon)
    owner = {}
    for i, part in enumerate(parts):
        for v in part.up_to(horizon):
            if v in owner:
                raise ValueError("parts overlap at %d" % v)
            owner[v] = i
    missing = [v for v in universe if v not in owner]
    if missing:
        raise ValueError("parts miss element %d" % missing[0])
    members = set(universe)
    extra = [v for v in owner if v not in members]
    if extra:
        raise ValueError("part element %d outside the set" % min(extra))
    reports = [gap_runs(part, horizon, d) for part in parts]
    best = 0
    for i in range(1, len(reports)):
        if reports[i].longest_run > reports[best].longest_run:
            best = i
    return BrownReport(best, reports)
