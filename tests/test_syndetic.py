"""Gap-run statistics, covering checks, and partition diagnostics.

gap_runs counts edges of the longest chain with consecutive differences at
most d among the elements in the top half of the window; the reference
implementation here recomputes that chain definition from scratch.
"""

import random
import time

from regseq.mann import MannMonoid
from regseq.sequences import SequenceSpec, make_handle
from regseq.syndetic import (EnumerableSet, brown_decompose, cover_check,
                             gap_runs)

POW2 = make_handle(SequenceSpec.power(2))
FACT = make_handle(SequenceSpec.factorial())

TWO_POWER_SUMS = EnumerableSet.image_sum(POW2, [[1], [1]], label="2^a+2^b")


def reference_longest_run(values, horizon, d):
    top = [v for v in values if v > horizon // 2]
    best = cur = 0
    for prev, nxt in zip(top, top[1:]):
        if nxt - prev <= d:
            cur += 1
            best = max(best, cur)
        else:
            cur = 0
    return best


def test_two_power_sums_have_short_runs():
    report = gap_runs(TWO_POWER_SUMS, 2 ** 20, 16)
    assert report.longest_run == 5
    assert report.run_location == (2 ** 19 + 1, 2 ** 19 + 32)
    assert report.horizon == 2 ** 20
    assert report.density.denominator == 2 ** 20 + 1


def test_factorials_vanish_from_top_half():
    enum_set = EnumerableSet.image_sum(FACT, [[1]], label="n!")
    report = gap_runs(enum_set, 10 ** 6, 100)
    assert report.longest_run == 0


def test_progression_is_one_long_run():
    enum_set = EnumerableSet.progression(3, 5)
    report = gap_runs(enum_set, 1000, 5)
    # 503, 508, ..., 998: 100 elements, 99 bounded gaps
    assert report.longest_run == 99
    assert report.run_location == (503, 998)


def test_runs_by_gap_breakdown():
    report = gap_runs(TWO_POWER_SUMS, 2 ** 12, 8, by_gap=True)
    assert report.runs_by_gap is not None
    for gap, run in report.runs_by_gap.items():
        assert run <= report.longest_run


def test_gap_runs_match_reference_on_random_sets():
    rng = random.Random(31415)
    for _ in range(30):
        horizon = rng.randint(40, 400)
        count = rng.randint(0, 60)
        values = sorted(rng.sample(range(horizon + 1), min(count, horizon)))
        enum_set = EnumerableSet.from_list(values)
        d = rng.randint(1, 12)
        report = gap_runs(enum_set, horizon, d)
        assert report.longest_run == reference_longest_run(values, horizon, d)


def test_gap_runs_monotone_in_d():
    rng = random.Random(2718)
    for _ in range(10):
        horizon = rng.randint(100, 600)
        values = sorted(rng.sample(range(horizon + 1), horizon // 4))
        enum_set = EnumerableSet.from_list(values)
        runs = [gap_runs(enum_set, horizon, d).longest_run
                for d in (1, 2, 4, 8, 16)]
        assert all(a <= b for a, b in zip(runs, runs[1:]))


def test_cover_witness_for_powers_of_two():
    report = cover_check(3, 4, [EnumerableSet.image_sum(POW2, [[1]])], 10 ** 3)
    assert not report.covered
    assert report.witness == 3
    # witness validity: lies on the progression, missed by every image
    assert report.witness % 4 == 3
    assert report.witness not in set(
        EnumerableSet.image_sum(POW2, [[1]]).up_to(10 ** 3))


def test_cover_succeeds_on_self():
    prog = EnumerableSet.progression(3, 4)
    report = cover_check(3, 4, [prog], 500)
    assert report.covered
    assert report.witness is None


def test_cover_union_of_residues():
    evens = EnumerableSet.progression(0, 2)
    odds = EnumerableSet.progression(1, 2)
    report = cover_check(0, 1, [evens, odds], 300)
    assert report.covered


def test_brown_partition_prefers_low_index_on_tie():
    evens = EnumerableSet.progression(0, 2)
    odds = EnumerableSet.progression(1, 2)
    naturals = EnumerableSet.progression(0, 1)
    report = brown_decompose(naturals, [evens, odds], 500, 1)
    assert report.index == 0
    runs = [r.longest_run for r in report.reports]
    assert runs[0] == runs[1]


def test_brown_partition_by_exponent_parity():
    # split 2^a + 2^b by parity of the larger exponent
    def part(par):
        def gen(n):
            out = []
            a = 0
            while 2 ** a + 1 <= n:
                if a % 2 == par:
                    for b in range(a + 1):
                        v = 2 ** a + 2 ** b
                        if v <= n:
                            out.append(v)
                a += 1
            return out
        return EnumerableSet.from_callable(gen, "parity-%d" % par)

    report = brown_decompose(TWO_POWER_SUMS, [part(0), part(1)], 2 ** 16, 16)
    assert report.index in (0, 1)
    assert max(r.longest_run for r in report.reports) <= 5


def test_brown_rejects_non_partitions():
    naturals = EnumerableSet.progression(0, 1)
    evens = EnumerableSet.progression(0, 2)
    try:
        brown_decompose(naturals, [evens, naturals], 200, 1)
        raised = False
    except ValueError:
        raised = True
    assert raised
    try:
        brown_decompose(naturals, [evens, evens], 200, 1)
        raised = False
    except ValueError:
        raised = True
    assert raised


def test_monoid_stream_as_enumerable_set():
    monoid = MannMonoid([2, 3])
    enum_set = EnumerableSet.monoid_stream(monoid)
    assert enum_set.up_to(12) == [1, 2, 3, 4, 6, 8, 9, 12]


def test_brown_partition_check_is_linear():
    # the partition check builds the set's members once, not once per part
    # element: all naturals split into evens and odds at horizon 2^15
    start = time.perf_counter()
    report = brown_decompose(EnumerableSet.progression(0, 1),
                             [EnumerableSet.progression(0, 2),
                              EnumerableSet.progression(1, 2)], 2 ** 15, 3)
    assert time.perf_counter() - start < 5
    assert report.index == 0
    assert [r.longest_run for r in report.reports] == [2 ** 13 - 1] * 2
