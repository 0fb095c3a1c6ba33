"""Seeded oracle fuzz of the equation solver.

About 150 problems with at most three variables over seven sequences: the
description must instantiate to exactly the brute-force tuples on a window
of 22-30 indices, and a description that is empty under a Proved
certificate must stay empty under brute force up to ORACLE_CEILING.
"""

import random

import pytest

from regseq.equations import (ORACLE_CEILING, EquationProblem, brute_force,
                              solve_full)
from regseq.sequences import SequenceSpec, make_handle

SPECS = {
    "fib": SequenceSpec.recurrence([1, 1], [1, 2]),
    "trib": SequenceSpec.recurrence([1, 1, 1], [1, 2, 4]),
    "pell": SequenceSpec.recurrence([1, 2], [1, 2]),
    "sum23": SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.power(3)]),
    "factorial": SequenceSpec.factorial(),
    "pow3": SequenceSpec.power(3),
    "table": SequenceSpec.table([], generator="2**n + n"),
}
PROBLEMS_PER_SEQUENCE = 22


def _problems(label, handle):
    """Seeded problems: random low-degree operators, and targets that are 0,
    small, or a signed sum of sequence terms (so that solutions exist)."""
    rng = random.Random("fuzz:" + label)
    out = []
    for _ in range(PROBLEMS_PER_SEQUENCE):
        s = rng.choice((1, 2, 2, 2, 3, 3))
        ops = []
        for _ in range(s):
            coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]
            if coeffs[-1] == 0:
                coeffs[-1] = rng.choice((-1, 1))
            ops.append(coeffs)
        kind = rng.randrange(3)
        if kind == 0:
            z = 0
        elif kind == 1:
            z = rng.randint(-9, 9)
        else:
            z = sum(rng.choice((-1, 1)) * handle.eval(rng.randint(0, 12))
                    for _ in range(s))
        out.append((EquationProblem(handle, ops, z), rng.randint(22, 30)))
    return out


@pytest.mark.parametrize("label", sorted(SPECS))
def test_descriptions_match_brute_force(label):
    handle = make_handle(SPECS[label])
    for problem, window in _problems(label, handle):
        description = solve_full(problem)
        want = {t for t, _tag in brute_force(problem, window)}
        assert description.instantiate(window) == want, problem.to_json()
        if not description.cases and description.certificate.is_proved:
            assert brute_force(problem, ORACLE_CEILING) == [], problem.to_json()
