import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlecorr.cf import ContinuedFraction, cf_expand, fibonacci
from circlecorr.numutil import _exact_threshold_numerator, circle_dist_raw
from circlecorr.sequences import (FixedBatch, RotationBatch, SequenceSpec, generate,
                                  golden_raw, kronecker_orbit)
from circlecorr.threegap import (expected_large_gaps, gap_census, gap_classes,
                                 gap_decomposition, lemma9_bounds_check,
                                 predict_gaps)

M64 = 1 << 64


def total_length(census):
    return sum(length * mult for length, mult in census.entries)


def test_census_equispaced():
    pts = FixedBatch(64, np.arange(8, dtype=np.uint64) * np.uint64(M64 // 8))
    census = gap_census(pts)
    assert census.entries == [(M64 // 8, 8)]
    assert total_length(census) == M64


def test_census_duplicates_flagged():
    pts = FixedBatch(64, np.array([3, 3, 9], dtype=np.uint64))
    census = gap_census(pts)
    assert census.has_duplicates
    assert census.entries[0] == (0, 1)


def test_census_golden_five_points():
    # {n phi}, n=1..5 has gaps ||2 phi|| (x2) and ||phi + 2 phi|| groupings:
    # two lengths, multiplicities 2 and 3, summing to the full circle
    census = gap_census(kronecker_orbit("golden", 5))
    assert len(census.entries) == 2
    assert [m for _, m in census.entries] == [2, 3]
    assert total_length(census) == M64


def test_smallest_census_length_is_the_min_pair_distance():
    batch = generate(SequenceSpec("vdc", base=2), 8)
    assert Fraction(gap_census(batch).lengths[0], batch.modulus) == Fraction(1, 8)
    dup = FixedBatch(64, np.array([5, 5], dtype=np.uint64))
    assert gap_census(dup).lengths[0] == 0
    wrap = FixedBatch(64, np.array([1, M64 - 3], dtype=np.uint64))
    assert gap_census(wrap).lengths[0] == 4


@given(st.lists(st.integers(min_value=0, max_value=M64 - 1), min_size=2, max_size=40))
def test_smallest_census_length_matches_all_pairs(vals):
    pairs = min(circle_dist_raw(x, y, M64) for i, x in enumerate(vals) for y in vals[:i])
    assert gap_census(FixedBatch(64, vals)).lengths[0] == pairs


def _census_by_loop(points):
    vals = sorted(int(v) for v in points.raw)
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    gaps.append((vals[0] - vals[-1]) % points.modulus)
    return sorted((g, gaps.count(g)) for g in set(gaps))


@pytest.mark.parametrize("precision", [64, 128])
def test_census_matches_loop_reference(precision):
    m = 1 << precision
    # the wrap-around gap and an inner gap both exceed 2^63 (at P = 64)
    wide = FixedBatch(precision, [5, 5, m // 2 + 7, m - 3])
    for batch in (wide, kronecker_orbit("7/19", 100, precision=precision),
                  kronecker_orbit("golden", 1000, precision=precision)):
        census = gap_census(batch)
        assert census.entries == _census_by_loop(batch)
        assert all(type(g) is int and type(c) is int for g, c in census.entries)
        assert total_length(census) == m


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_gap_decomposition_reconstructs(n):
    quots = [0] + [1] * 40
    cf = ContinuedFraction(quots)
    k, m, r = gap_decomposition(n, cf.q)
    q = [0] + cf.q
    assert n == m * q[k + 1] + q[k] + r
    assert 0 <= r < q[k + 1]
    assert m >= 1


def test_predict_golden_matches_census_exactly():
    for n in (5, 13, 55, 233, 987, 100, 777):
        pred = predict_gaps("golden", n)
        census = gap_census(kronecker_orbit("golden", n))
        assert pred.l3 == pred.l1 + pred.l2
        for length in census.lengths:
            assert length in pred.lengths
        assert len(census.lengths) <= 3


def test_predict_small_orbit_edge():
    pred = predict_gaps("golden", 2)
    assert pred.l1 > 0 and pred.l2 > 0


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=3000))
def test_predict_random_rotations(rng, n):
    quotients = [0]
    while True:
        quotients.append(rng.randint(1, 6))
        cf = ContinuedFraction(quotients)
        if len(quotients) > 2 and cf.q[-1] > 10 * n:
            break
    z = cf.value()
    pred = predict_gaps(z, n)
    census = gap_census(kronecker_orbit(z, n))
    assert len(census.lengths) <= 3
    for length in census.lengths:
        assert length in pred.lengths


@pytest.mark.parametrize("precision", [64, 128])
def test_predict_rational_z_matches_census_exactly(precision):
    pred = predict_gaps(Fraction(7, 19), 100, precision=precision)
    census = gap_census(kronecker_orbit(Fraction(7, 19), 100, precision=precision))
    assert set(census.lengths) <= set(pred.lengths)
    assert pred.l3 == pred.l1 + pred.l2


def test_grid_golden_ladder_is_fibonacci_past_the_point_cap():
    # the ladder of the grid step golden_raw(64) / 2^64 is the true phi's up to
    # q = 2^33, past every N the 2^27 point cap admits, so no golden gap
    # prediction differs from one over the Fibonacci ladder
    q = cf_expand(Fraction(golden_raw(64), M64)).q
    low = [x for x in q if x <= 1 << 33]
    assert low == [fibonacci(h) for h in range(1, len(low) + 1)]
    assert fibonacci(len(low) + 1) > 1 << 33


def test_gap_classes_partition():
    classes, census = gap_classes(kronecker_orbit("golden", 55))
    assert len(classes) == 55
    assert sorted(set(classes)) in ([0], [0, 1], [0, 1, 2])


def test_expected_large_gaps_pure_windows():
    # a window of q_m gaps holds about q_{m-1} large ones
    for m in range(3, 12):
        g = expected_large_gaps(fibonacci(m))
        assert g in (fibonacci(m - 1) - 1, fibonacci(m - 1))


def test_lemma9_check_bounds():
    chk = lemma9_bounds_check(10, fibonacci(20), Fraction(1), Fraction(1, 2))
    assert chk.passed
    assert 0.5 < chk.normalized < 4
    with pytest.raises(ValueError):
        lemma9_bounds_check(0, 10, 1, Fraction(1, 2))


def lemma9_cases():
    rng = random.Random(9)
    for precision in (64, 128):
        for n in (2, 3, 144, 377):
            # s/N^alpha of 1/2 and above is degenerate: every other point counts
            for s, alpha in ((Fraction(1), Fraction(1, 2)), (Fraction(3, 7), Fraction(9, 10)),
                             (Fraction(1, 2), Fraction(0)), (Fraction(5), Fraction(1, 4))):
                for l in sorted({1, n, rng.randint(1, n)}):
                    yield precision, n, l, s, alpha
    # x = s 2^P = D -+ 1/4 for the lag-1 distance D = ||phi|| on the grid: x
    # rounds to D either way, but the pair lies past s at D - 1/4 and within it at D + 1/4
    for precision in (64, 128):
        d = circle_dist_raw(golden_raw(precision), 0, 1 << precision)
        for x4 in (4 * d - 1, 4 * d + 1):
            yield precision, 2, 1, Fraction(x4, 1 << (precision + 2)), Fraction(0)


@pytest.mark.parametrize("precision, n, l, s, alpha", list(lemma9_cases()))
def test_lemma9_count_matches_all_pairs(precision, n, l, s, alpha):
    raw = [int(x) for x in kronecker_orbit("golden", n, precision=precision).raw]
    modulus = 1 << precision
    t = _exact_threshold_numerator(s, n, alpha, modulus)
    expect = sum(circle_dist_raw(raw[l - 1], raw[m], modulus) <= t
                 for m in range(n) if m != l - 1)
    chk = lemma9_bounds_check(l, n, s, alpha, precision=precision)
    assert chk.count == expect
    assert 2 * t < modulus or expect == n - 1


@pytest.mark.parametrize("precision", [64, 128])
def test_lemma9_builds_no_orbit(precision):
    with mock.patch.object(RotationBatch, "_build", side_effect=AssertionError("built")):
        for l in (1, 5000, fibonacci(25)):
            chk = lemma9_bounds_check(l, fibonacci(25), Fraction(1), Fraction(1, 2),
                                      precision=precision)
            assert chk.passed
