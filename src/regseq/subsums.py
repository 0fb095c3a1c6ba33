"""The solution scan and the non-degeneracy test shared by the sequence
equation solver (equations) and the Mann-monoid solver (mann).

Both solvers find the solutions of a linear equation over finite rows of
values with one meet-in-the-middle kernel (Horowitz and Sahni 1974),
_meet_in_the_middle: equations for its family search, its box scan and
decide's exact stages, mann for every scan but a three-term homogeneous
one, which it reads through ratios (mann._ratio_scan).  A solution
of a linear equation is non-degenerate when no proper sub-sum of its terms
vanishes.  _degenerate answers whether one does, from the sub-sums built
by doubling one list until a batch holds 0, or past DOUBLING_TERMS terms
from the sub-sums of each half, met in the middle; the scans (the box
filter, the family search, the pattern exceptions and the Mann scans) need
only that.  _vanishing_subset names the canonical vanishing subset, for the
callers that read it (the split casework and the brute-force tags).  All of
it lives here, apart from both solvers, so that loading one solver does not
load the other.
"""

import itertools
import operator


def _half_sums(rows):
    """sum(terms) for each terms of itertools.product(*rows), in the same
    order and lazily, computed inside C iterators: every row but the last is
    folded into one list of prefix sums, which is paired with the last row."""
    if not rows:
        return iter((0,))
    prefix = [0]
    for row in rows[:-1]:
        prefix = list(itertools.starmap(operator.add, itertools.product(prefix, row)))
    return itertools.starmap(operator.add, itertools.product(prefix, rows[-1]))


def _meet_in_the_middle(rows, target, indices=None, half=None):
    """Every index tuple t with sum_j rows[j][t_j] == target, where
    indices[j] names the index of each entry of rows[j] (by default its
    position).  The first `half` rows (by default len(rows) // 2; fewer
    than all) are hashed by target minus their sum; the rest loop in Python
    over the sums of their middle rows and complete each base in C
    iterators, over the distinct values v of the last row (each standing
    for all its indices) with base + v a key.  With W entries a row, s rows
    make about W^ceil(s/2) lookups.  A caller that lists its hashed half
    itself passes it as one row, its entries as that row's indices, with
    half = 1.  Lazy, in no particular order."""
    if indices is None:
        indices = [range(len(row)) for row in rows]
    if half is None:
        half = len(rows) // 2
    table = {}
    for tup, key in zip(itertools.product(*indices[:half]),
                        map(target.__sub__, _half_sums(rows[:half]))):
        table.setdefault(key, []).append(tup)
    last = {}
    for i, v in zip(indices[-1], rows[-1]):
        last.setdefault(v, []).append((i,))
    values = list(last)
    for mid, base in zip(itertools.product(*indices[half:-1]),
                         _half_sums(rows[half:-1])):
        for key in filter(table.__contains__, map(base.__add__, values)):
            for tail in last[key - base]:
                right = mid + tail
                for left in table[key]:
                    yield left + right


def _vanishing_subset(terms):
    """The canonical vanishing proper sub-sum of the terms: the positions of
    the smallest one, the lexicographically first among equals; None when
    the terms are non-degenerate (no proper sub-sum vanishes)."""
    for size in range(1, len(terms)):
        for sub in itertools.combinations(range(len(terms)), size):
            if sum(terms[j] for j in sub) == 0:
                return sub
    return None


# Most terms _degenerate doubles one list for: 2^15 sub-sums at most.  Past
# it each half of the terms is doubled on its own, so callers keep to
# 2 * DOUBLING_TERMS terms: 2^16 sub-sums a half.
DOUBLING_TERMS = 16


def _degenerate(terms):
    """Whether some proper sub-sum of the terms vanishes, which is when
    _vanishing_subset is not None.  The sub-sums are built by doubling one
    list, term by term, and the search stops at the first batch that holds
    0.  The last term needs no batch: it lies in a vanishing proper sub-sum
    exactly when minus it is a sub-sum of the others, other than their full
    sum (which it matches only when the terms sum to 0, and then the
    complement of a vanishing proper sub-sum with the last term is one
    without it).  Past DOUBLING_TERMS terms that list would not fit in
    memory: each half lists its own sub-sums, and they meet in the middle.
    A proper non-empty subset is any pair of half subsets but (empty,
    empty) and (full, full)."""
    if len(terms) > DOUBLING_TERMS:
        half = len(terms) // 2
        left = list(_half_sums([(0, t) for t in terms[:half]]))
        right = list(_half_sums([(0, t) for t in terms[half:]]))
        # both lists run from the empty sub-sum to the full one
        return (0 in left[1:] or -right[-1] in left[:-1]
                or not set(map(operator.neg, right[1:-1])).isdisjoint(left))
    if not terms:
        return False
    sums = [0]
    for t in terms[:-1]:
        batch = [t + v for v in sums]
        if 0 in batch:
            return True
        sums += batch
    return sum(terms) != 0 and -terms[-1] in sums


def _proper_subsums_nonzero(size, target):
    """Whether no proper sub-sum of `size` nonzero terms summing to `target`
    can vanish, whatever the terms: with one or two terms every proper
    sub-sum is a single term, and with three terms summing to 0 a vanishing
    pair would leave the third term 0.  Callers whose terms are all nonzero
    skip _degenerate when this holds."""
    return size <= 2 or (size == 3 and target == 0)
