"""Vanishing sub-sums: the non-degeneracy test shared by the sequence
equation solver (equations) and the Mann-monoid solver (mann).

A solution of a linear equation is non-degenerate when no proper sub-sum of
its terms vanishes.  The test lives here, apart from both solvers, so that
loading one solver does not load the other.
"""

import itertools


def _vanishing_subset(terms):
    """The canonical vanishing proper sub-sum of the terms: the positions of
    the smallest one, the lexicographically first among equals; None when
    the terms are non-degenerate (no proper sub-sum vanishes)."""
    for size in range(1, len(terms)):
        for sub in itertools.combinations(range(len(terms)), size):
            if sum(terms[j] for j in sub) == 0:
                return sub
    return None


def _proper_subsums_nonzero(size, target):
    """Whether no proper sub-sum of `size` nonzero terms summing to `target`
    can vanish, whatever the terms: with one or two terms every proper
    sub-sum is a single term, and with three terms summing to 0 a vanishing
    pair would leave the third term 0.  Callers whose terms are all nonzero
    skip _vanishing_subset when this holds."""
    return size <= 2 or (size == 3 and target == 0)
