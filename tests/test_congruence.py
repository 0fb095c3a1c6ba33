"""Eventual periodicity mod m: profiles versus direct residue computation."""

import random

import pytest

from regseq import formulas
from regseq.certs import BoundedCheck, Proved
from regseq.congruence import STREAM_BUDGET, BoundedProfileError, divisibility_set, profile
from regseq.decide import decide
from regseq.operators import Operator, apply
from regseq.sequences import SequenceSpec, make_handle

POW2 = make_handle(SequenceSpec.power(2))
FIB = make_handle(SequenceSpec.recurrence([1, 1], [1, 2]))
FACT = make_handle(SequenceSpec.factorial())
SUM23 = make_handle(SequenceSpec.sum_of([SequenceSpec.power(2),
                                         SequenceSpec.power(3)]))


def check_profile(handle, m, periods=5):
    """predict() must reproduce r_n mod m across several full periods."""
    prof = profile(handle, m)
    upto = prof.rho + max(1, prof.p) * periods
    for n in range(upto + 1):
        assert prof.predict(n) == handle.eval(n) % m
    return prof


def test_powers_of_two_mod_three():
    prof = check_profile(POW2, 3)
    assert (prof.rho, prof.p) == (0, 2)
    assert prof.residues == (1, 2)


def test_fibonacci_mod_two():
    prof = check_profile(FIB, 2)
    assert (prof.rho, prof.p) == (0, 3)
    assert prof.residues == (1, 0, 1)


def test_factorial_mod_four():
    prof = check_profile(FACT, 4)
    assert (prof.rho, prof.p) == (2, 1)
    assert prof.residues == (2, 2, 0)


def test_profile_minimality():
    # the reported period divides any other period of the residue tail
    prof = check_profile(FIB, 10)
    tail = [FIB.eval(n) % 10 for n in range(prof.rho, prof.rho + 4 * prof.p)]
    for candidate in range(1, prof.p):
        assert any(tail[i] != tail[i + candidate]
                   for i in range(len(tail) - candidate))


def test_random_profiles_match_scan():
    rng = random.Random(9001)
    handles = [POW2, FIB, FACT, SUM23]
    for _ in range(25):
        handle = rng.choice(handles)
        m = rng.randint(2, 24)
        check_profile(handle, m)


def test_divisibility_set_odd_exponents():
    # 3 | 2^n + 1 exactly when n is odd
    pis = divisibility_set(POW2, Operator([1]), 1, 3)
    for n in range(60):
        expected = (2 ** n + 1) % 3 == 0
        assert pis.contains(n) == expected
    assert pis.p == 2
    assert all(c % 2 == 1 for c in pis.classes)


def test_divisibility_set_random_agreement():
    rng = random.Random(4242)
    for _ in range(20):
        handle = rng.choice([POW2, FIB, SUM23])
        degree = rng.randint(0, 2)
        coeffs = [rng.randint(-4, 4) for _ in range(degree + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        op = Operator(coeffs)
        k = rng.randint(-6, 6)
        m = rng.randint(2, 12)
        pis = divisibility_set(handle, op, k, m)
        for n in range(80):
            expected = (apply(op, handle, n) + k) % m == 0
            assert pis.contains(n) == expected, (coeffs, k, m, n)


# ---------------------------------------------------------------------------
# Certificates: a state machine proves a profile, a stream only samples it
# ---------------------------------------------------------------------------

LATE_TABLE = SequenceSpec.table([], generator="2**n + n // 5000")
FIB_PLUS_TABLE = SequenceSpec.sum_of([SequenceSpec.recurrence([1, 1], [1, 2]),
                                      SequenceSpec.table([], generator="n*n + 1")])


def test_state_machine_profiles_are_proved():
    for handle in (POW2, FIB, FACT, SUM23):
        assert profile(handle, 6).cert == Proved("congruence-profile")
        assert divisibility_set(handle, Operator([1]), 1, 6).cert.is_proved


def test_streamed_profile_is_window_evidence():
    handle = make_handle(LATE_TABLE)
    prof = profile(handle, 3)
    assert prof.cert == BoundedCheck(STREAM_BUDGET)
    assert "certificate" not in prof.to_json()
    # the taps of S + 1 reach one index past the variable's own
    assert divisibility_set(handle, Operator([1, 1]), 0, 3).cert == \
        BoundedCheck(STREAM_BUDGET - 1)


def test_streamed_period_is_not_a_proof_of_emptiness():
    # The first 4096 terms are 2^n mod 6, where D2(x + 1) & D3(x) never
    # holds; r_5001 = 2^5001 + 1 is divisible by 3 and r_5001 + 1 is even.
    handle = make_handle(LATE_TABLE)
    witness = handle.eval(5001)
    assert witness % 3 == 0 and (witness + 1) % 2 == 0
    verdict = decide(formulas.parse("E x in R. D2(x + 1) & D3(x)"), handle)
    assert not (verdict.kind == "False" and verdict.certificate.is_proved)


def test_sum_with_a_table_part_is_streamed():
    handle = make_handle(FIB_PLUS_TABLE)
    prof = check_profile(handle, 3)
    assert prof.cert == BoundedCheck(STREAM_BUDGET)
    verdict = decide(formulas.parse("E x in R. D3(x + 1) & x > 2"), handle)
    assert verdict.kind == "True"


def test_sum_with_a_short_table_part_is_refused():
    spec = SequenceSpec.sum_of([SequenceSpec.power(2), SequenceSpec.table([1, 2, 3])])
    with pytest.raises(BoundedProfileError, match="no certified profile") as info:
        profile(make_handle(spec), 3)
    assert info.value.prefix == [(2 ** n + n + 1) % 3 for n in range(3)]
