import contextlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from circlecorr import numutil, paircorr
from circlecorr.numutil import circle_dist_raw
from circlecorr.paircorr import (PairCountResult, f_stat, f_stat_profile,
                                 pair_count_fast, pair_count_naive,
                                 per_point_counts, rotation_count, sorted_raw, vdc_count)
from circlecorr.sequences import (Batch, FixedBatch, SequenceSpec, generate, iid_uniform,
                                  kronecker_orbit)

M64 = 1 << 64

raw_lists = st.lists(st.integers(min_value=0, max_value=M64 - 1),
                     min_size=2, max_size=60)


def reference_count(vals, t, modulus):
    """Definition-level oracle, independent of both counting paths."""
    return sum(1 for i in range(len(vals)) for j in range(len(vals))
               if i != j and circle_dist_raw(vals[i], vals[j], modulus) <= t)


@given(raw_lists, st.integers(min_value=0, max_value=M64 // 2))
def test_fast_equals_naive_equals_reference(vals, t):
    batch = FixedBatch(64, np.array(vals, dtype=np.uint64))
    ref = reference_count(vals, t, M64)
    assert pair_count_naive(batch, t) == ref
    assert pair_count_fast(batch, t) == ref


MODULI = [7, 1000, 3 ** 40, 2 ** 63 + 12345, 2 ** 64 - 1, 2 ** 64, 2 ** 128]


@st.composite
def modulus_cases(draw):
    # uint64 moduli on both sides of 2^63, the full 2^64 grid and an
    # object-array modulus; repeated values, and thresholds at both ends,
    # up to the degenerate t = modulus // 2 where every ordered pair counts
    modulus = draw(st.sampled_from(MODULI))
    pool = draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=20))
    vals = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40))
    t = draw(st.one_of(st.just(0), st.just((modulus - 1) // 2),
                       st.just(modulus // 2), st.integers(0, modulus // 2)))
    return vals, t, modulus


@given(modulus_cases())
def test_counting_on_odd_modulus(case):
    # plain integer lists with an explicit modulus
    vals, t, modulus = case
    ref = reference_count(vals, t, modulus)
    assert pair_count_naive(vals, t, modulus=modulus) == ref
    assert pair_count_fast(vals, t, modulus=modulus) == ref


@st.composite
def strip_cases(draw):
    # up to 60 values from a small pool, strips of 1 to 4 offsets
    modulus = draw(st.sampled_from(MODULI + [2, 2 ** 63]))
    pool = draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=20))
    vals = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=60))
    t = draw(st.one_of(st.sampled_from([0, 1, (modulus - 1) // 2, modulus // 2]),
                       st.integers(0, modulus // 2)))
    return vals, t, modulus, draw(st.integers(1, 4))


def naive_itemsize(modulus):
    """Bytes per cell of pair_count_naive: uint64 on the 2^64 grid, else the narrowest dtype."""
    return np.dtype(np.uint64 if modulus == M64 else np.min_scalar_type(modulus)).itemsize


def naive_with_strips(vals, t, modulus, offsets):
    """pair_count_naive with strips of the given number of offsets (rows of N + 1 cells)."""
    strip = offsets * (len(vals) + 1) * naive_itemsize(modulus)
    with mock.patch.object(paircorr, "_STRIP_BYTES", strip):
        return pair_count_naive(vals, t, modulus=modulus)


@given(strip_cases())
def test_naive_strip_boundaries(case):
    vals, t, modulus, rows = case
    assert naive_with_strips(vals, t, modulus, rows) == reference_count(vals, t, modulus)


def test_naive_strips_at_the_real_size():
    # full strips of offsets, then a last strip of one offset, at an even and an odd N
    cells = paircorr._STRIP_BYTES // 8
    for parity in (0, 1):
        n = next(n for n in itertools.count(2 + parity, 2)
                 if n // 2 // (cells // (n + 1)) >= 3 and n // 2 % (cells // (n + 1)) == 1)
        core = iid_uniform(n - n // 2, seed=8).raw  # its first n // 2 points appear twice
        batch = FixedBatch(64, np.concatenate([core, core[:n // 2]]))
        assert len(batch) == n
        for t in (0, 1, M64 // n, M64 // 20, M64 // 2 - 1):
            assert pair_count_naive(batch, t) == pair_count_fast(batch, t)


@pytest.mark.parametrize("modulus", [2, 7, 2 ** 64, 3 ** 81])
def test_naive_two_and_three_points(modulus):
    for vals in itertools.product(sorted({0, 1, modulus // 2, modulus - 1}), repeat=3):
        for t in sorted({0, 1, (modulus - 1) // 2, modulus // 2}):
            for n in (2, 3):
                assert pair_count_naive(list(vals[:n]), t, modulus=modulus) \
                    == reference_count(vals[:n], t, modulus)


def test_naive_close_pairs_only_at_the_half_offset():
    # a[i] and a[i + N/2] differ by 1, every other pair by at least M64 / 16 - 1
    half = 8
    spread = [i * (M64 // half) for i in range(half)]
    vals = spread + [v + 1 for v in spread]
    for offsets in (1, 2, 3, half):
        assert naive_with_strips(vals, 1, M64, offsets) == 2 * half
        assert naive_with_strips(vals, 0, M64, offsets) == 0
    assert pair_count_naive(vals, 1, modulus=M64) == reference_count(vals, 1, M64) == 2 * half


@pytest.mark.parametrize("modulus", [3 ** 81, 2 ** 128])
def test_naive_object_modulus_over_several_strips(modulus):
    rng = random.Random(modulus)
    pool = [rng.randrange(modulus) for _ in range(12)]
    for n in (40, 41):
        vals = [rng.choice(pool) for _ in range(n)]
        for t in (0, modulus // 50, modulus // 5, (modulus - 1) // 2):
            ref = reference_count(vals, t, modulus)
            for offsets in (1, 3, 7):
                assert naive_with_strips(vals, t, modulus, offsets) == ref


def test_naive_oracle_stays_independent():
    # no sort, no search and no window helper, in pair_count_naive or any code nested in it
    codes, names = [pair_count_naive.__code__], set()
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_names"))
    banned = ("sort", "argsort", "searchsorted", "_window", "_blocks", "_counts",
              "window_counts")
    assert {name for name in names if any(word in name for word in banned)} == set()
    assert "count_nonzero" in names


def test_naive_memory_is_bounded_by_the_strips():
    batch = iid_uniform(4000, seed=12)
    tracemalloc.start()
    try:
        pair_count_naive(batch, M64 // 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20  # one N x N uint64 matrix is 128 MB


@pytest.mark.parametrize("modulus", [2, 255, 256, 2 ** 16, 2 ** 16 + 1, 2 ** 32 + 1,
                                     2 ** 63, M64])
def test_naive_at_the_dtype_edges(modulus):
    # the ends of the narrowest dtype that holds the modulus (uint8 up to 256,
    # then uint16, uint32, uint64), and of the wrapped subtraction at 2^64:
    # values 0, 1, M - 1 and 2^63, repeated, at thresholds on both sides of M/2
    vals = sorted({v for v in (0, 1, modulus - 1, 2 ** 63) if v < modulus})
    vals += vals[::-1] + vals[:1]
    for t in sorted({0, 1, modulus // 2 - 1, modulus // 2}):
        for n in range(2, len(vals) + 1):
            ref = reference_count(vals[:n], t, modulus)
            assert pair_count_naive(vals[:n], t, modulus=modulus) == ref
            assert pair_count_fast(vals[:n], t, modulus=modulus) == ref
            for offsets in (1, 2):
                assert naive_with_strips(vals[:n], t, modulus, offsets) == ref


@given(raw_lists, st.integers(min_value=0, max_value=M64 // 2 - 1))
def test_count_monotone_and_even(vals, t):
    batch = FixedBatch(64, np.array(vals, dtype=np.uint64))
    c1 = pair_count_fast(batch, t)
    c2 = pair_count_fast(batch, t + 1)
    n = len(vals)
    assert c1 % 2 == 0
    assert c1 <= c2 <= n * (n - 1)


@given(raw_lists, st.integers(min_value=0, max_value=M64 // 2),
       st.integers(min_value=0, max_value=M64 - 1), st.randoms())
def test_count_invariant_under_rotation_and_permutation(vals, t, shift, rng):
    batch = FixedBatch(64, np.array(vals, dtype=np.uint64))
    base = pair_count_fast(batch, t)
    shuffled = list(vals)
    rng.shuffle(shuffled)
    rotated = [(v + shift) % M64 for v in shuffled]
    assert pair_count_fast(FixedBatch(64, np.array(rotated, dtype=np.uint64)), t) == base


def test_degenerate_threshold_counts_everything():
    batch = iid_uniform(50, seed=1)
    assert pair_count_fast(batch, M64 // 2) == 50 * 49
    assert pair_count_naive(batch, M64 // 2) == 50 * 49


def test_precision_128_paths_agree():
    batch = generate(SequenceSpec("kronecker", precision=128), 200)
    t = (1 << 128) // 1000
    assert pair_count_fast(batch, t) == pair_count_naive(batch, t)


def test_per_point_counts_sum_to_total():
    batch = iid_uniform(2000, seed=3)
    a, modulus = sorted_raw(batch)
    t = M64 // 500
    pp = per_point_counts(a, t, modulus)
    assert int(pp.sum()) == pair_count_fast(batch, t)
    # equal-valued points are neighbours once each, not twice
    dup = FixedBatch(64, np.array([5, 5, 100], dtype=np.uint64))
    a, modulus = sorted_raw(dup)
    pp = per_point_counts(a, 10, modulus)
    assert list(pp) == [1, 1, 0]
    assert int(pp.sum()) == pair_count_naive(dup, 10)


def brute_per_point(a, t, modulus):
    """Neighbours of each point of a within t, by all pairs, 512 rows at a time."""
    x = np.asarray(a, dtype=np.uint64)
    out = []
    for i in range(0, len(x), 512):
        d = x[None, :] - x[i:i + 512, None]  # wraps mod 2^64
        out.append(np.count_nonzero(np.minimum(d, np.uint64(0) - d) <= np.uint64(t), axis=1) - 1)
    return np.concatenate(out)


def test_per_point_counts_on_0_1_and_block_plus_1_points():
    empty = per_point_counts(np.empty(0, dtype=np.uint64), M64 // 4, M64)
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert list(per_point_counts(np.array([7], dtype=np.uint64), M64 // 4, M64)) == [0]
    block = paircorr._BLOCK
    n = block + 1
    # the last point of the first block and the one point of the second
    # repeat the point before them, so equal values straddle the block edge
    a = np.sort(iid_uniform(n, seed=21).raw)
    a[block - 1:] = a[block - 2]
    t = M64 // n
    pp = per_point_counts(a, t, M64)
    assert pp.dtype == np.int64 and len(pp) == n
    assert np.array_equal(pp, brute_per_point(a, t, M64))
    batch = FixedBatch(64, a)
    assert int(pp.sum()) == pair_count_fast(batch, t) == pair_count_naive(batch, t)


# --- the kernel at both ends of the guard band -------------------------------


def naive_at(vals, u, modulus):
    """The naive count at any integer threshold u: 0 below 0."""
    return pair_count_naive(vals, u, modulus=modulus) if u >= 0 else 0


def assert_guarded_counts(vals, t, g, modulus):
    """The kernel at t - g, t and t + g, and f_stat's bracket, against the naive oracle.

    On the 2^P grid a batch whose points carry an error of g ulps has
    (count, ambiguous) = (count(t), count(t + g) - count(t - g)) for
    s = (2t + 1)/(2M) at alpha = 0, where floor(s M) = t.
    """
    batch = Batch(vals, modulus)
    keys = paircorr._sorted_keys(batch)
    low, count, top = expect = [naive_at(vals, u, modulus) for u in (t - g, t, t + g)]
    assert [paircorr._ordered_count(keys, u, modulus) for u in (t - g, t, t + g)] == expect
    assert pair_count_fast(vals, t, modulus=modulus) == count
    assert int(per_point_counts(batch.sorted(), t, modulus).sum()) == count
    if modulus in (M64, 1 << 128) and 2 * t < modulus:
        fixed = FixedBatch(modulus.bit_length() - 1, vals)
        fixed.error = g
        res = f_stat(fixed, Fraction(2 * t + 1, 2 * modulus), 0)
        assert (res.ordered_pair_count, res.ambiguous_pairs) == (count, top - low)


def near_distances(draw, vals, modulus, offsets):
    """A threshold at a pair distance that occurs, moved by one of the offsets."""
    d = draw(st.sampled_from([circle_dist_raw(x, y, modulus) for x in vals for y in vals]))
    return min(max(d + draw(st.sampled_from(offsets)), 0), modulus // 2)


@st.composite
def limb_band_cases(draw):
    # P = 128 with colliding high limbs: a few distinct X, each moved by up to
    # +-3, and low limbs at both ends and inside; thresholds within
    # +-2 * 2^64 +-2 of a pair distance, band ends on both sides of a
    # multiple of 2^64, and thresholds below 2^65 (t >> 64 < 2)
    modulus = 1 << 128
    xs = draw(st.lists(st.integers(0, M64 - 1), min_size=1, max_size=4))
    lows = st.one_of(st.sampled_from([0, 1, M64 - 1, M64 // 2]), st.integers(0, M64 - 1))
    pool = [(draw(st.sampled_from(xs)) + draw(st.integers(-3, 3))) % M64 << 64 | draw(lows)
            for _ in range(draw(st.integers(1, 12)))]
    vals = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=30))
    g = draw(st.one_of(st.sampled_from([0, 1, 4]), st.integers(0, 2 * M64)))
    kind = draw(st.sampled_from(["distance", "straddle", "low"]))
    if kind == "distance":
        t = near_distances(draw, vals, modulus,
                           [k * M64 + j for k in range(-2, 3) for j in range(-2, 3)])
    elif kind == "straddle":  # t - g <= m 2^64 <= t + g, m next to a distance's high limb
        m = (near_distances(draw, vals, modulus, [0]) >> 64) + draw(st.integers(-1, 1))
        t = m * M64 + draw(st.integers(-g, g))
    else:
        t = draw(st.integers(0, 2 * M64 - 1))
    return vals, min(max(t, 0), modulus // 2), g, modulus


@settings(max_examples=200, deadline=None)
@given(limb_band_cases())
def test_guarded_counts_on_colliding_high_limbs(case):
    assert_guarded_counts(*case)


@st.composite
def guard_cases_64(draw):
    # P = 64 with repeated values: thresholds d +- g +- 1 and d +- 1 for the
    # distances d that occur, with t <= g among them, and the half circle
    modulus = M64
    centre = draw(st.integers(0, M64 - 1))
    spread = draw(st.sampled_from([8, 1 << 20, M64]))
    pool = [(centre + draw(st.integers(0, spread - 1))) % M64
            for _ in range(draw(st.integers(1, 12)))]
    vals = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=30))
    g = draw(st.one_of(st.sampled_from([0, 1, 4]), st.integers(0, 1 << 20)))
    t = draw(st.one_of(
        st.just(near_distances(draw, vals, modulus, [s * g + k for s in (-1, 0, 1)
                                                     for k in (-1, 0, 1)])),
        st.integers(0, g), st.sampled_from([modulus // 2, modulus // 2 - 1])))
    return vals, t, g, modulus


@settings(max_examples=200, deadline=None)
@given(guard_cases_64())
def test_guarded_counts_at_p64(case):
    assert_guarded_counts(*case)


def test_guarded_counts_across_blocks():
    # queries in blocks of 3, so that block edges fall between equal values
    vals = [int(v) for v in iid_uniform(40, seed=4, precision=128).raw]
    vals += vals[:7] + [(v + (1 << 64)) % (1 << 128) for v in vals[:5]]
    with mock.patch.object(paircorr, "_BLOCK", 3):
        for t in (0, 1 << 64, (1 << 128) // 50, (1 << 128) // 7):
            for g in (0, 4, 1 << 64, 1 << 70):
                assert_guarded_counts(vals, t, g, 1 << 128)
                assert_guarded_counts([v >> 64 for v in vals], t >> 64, g >> 64, M64)


def edge_values(precision):
    """Runs of equal points at 0, next to 2^63 and at M - 1.

    At P = 128 the high limbs 0, 2^63 and 2^64 - 1 each carry several low limbs.
    """
    if precision == 64:
        return [0, 0, 0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63, 2 ** 63, 2 ** 63 + 1,
                M64 - 2, M64 - 1, M64 - 1, M64 - 1]
    return [h << 64 | low for h in (0, 2 ** 63, M64 - 1)
            for low in (0, 0, 1, 2 ** 63, M64 - 1, M64 - 1)]


@pytest.mark.parametrize("precision", [64, 128])
@pytest.mark.parametrize("block", [2, 3, 4, 8192])
def test_kernel_ties_across_blocks_and_wraps(precision, block):
    # block edges of 2 to 4 queries fall inside the runs; windows wrap past 0
    # and past M - 1; at P = 128 thresholds step across multiples of 2^64
    vals, modulus = edge_values(precision), 1 << precision
    thresholds = {0, 1, 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, M64 - 2, M64 - 1, modulus // 4,
                  modulus // 2 - 1, modulus // 2}
    if precision == 128:
        thresholds |= {k * M64 + j for k in (1, 2 ** 63, 2 ** 63 + 1) for j in (-1, 0, 1)}
    with mock.patch.object(paircorr, "_BLOCK", block):
        for t in sorted(t for t in thresholds if t <= modulus // 2):
            expect = reference_count(vals, t, modulus)
            assert pair_count_fast(vals, t, modulus=modulus) == expect
            assert int(per_point_counts(Batch(vals, modulus).sorted(), t, modulus).sum()) == expect
            for g in (0, 1, 2 ** 63):
                assert_guarded_counts(vals, t, g, modulus)


@pytest.mark.parametrize("precision", [64, 128])
def test_guarded_counts_where_a_band_end_leaves_the_kernel(precision):
    # t <= g (the lower end t - g is at or below distance 0) and 2(t + g) >= M
    # (the upper end reaches the half circle, where every pair counts); repeated
    # points, and pairs exactly half a circle apart
    modulus = 1 << precision
    vals = [int(v) for v in iid_uniform(30, seed=6, precision=precision).raw]
    vals += vals[:4] + [v ^ modulus // 2 for v in vals[:3]]
    dists = sorted({circle_dist_raw(x, y, modulus) for x in vals for y in vals})
    for t, g in [(0, 0), (1, 4), (dists[5], dists[5]), (dists[5], dists[9]),
                 (modulus // 2, 0), (modulus // 2 - 1, 1), (modulus // 4, modulus // 4),
                 (dists[-1], modulus // 2 - dists[-1]), (modulus // 3, modulus // 4)]:
        assert 2 * (t + g) >= modulus or t <= g
        assert_guarded_counts(vals, t, g, modulus)


def searched_keys(fn, *args):
    """(fn(*args), the number of keys _search looked up)."""
    real, keys = paircorr._search, []

    def counting(a, key, side):
        keys.append(len(key[0]))
        return real(a, key, side)

    with mock.patch.object(paircorr, "_search", counting):
        return fn(*args), sum(keys)


@pytest.mark.parametrize("precision", [64, 128])
def test_one_search_per_point(precision):
    # pair_count_fast searches each point once, and so does f_stat on a batch
    # with no point error: one pass at the floor t of s/N^alpha, with no
    # recount of the queries that have a point at distance t
    n = 20000
    modulus = 1 << precision
    t = numutil._exact_threshold_numerator(Fraction(1), n, Fraction(1, 2), modulus)
    raw = [int(v) for v in iid_uniform(n - 1, seed=13, precision=precision).raw]
    batch = FixedBatch(precision, raw + [(raw[0] + t) % modulus])
    count, keys = searched_keys(pair_count_fast, batch, t)
    assert keys == n
    result, keys = searched_keys(f_stat, batch, 1, 0.5)
    assert result.ordered_pair_count == count and keys == n


def test_kernel_memory_stays_in_blocks():
    # presorted 10^6-point batches: the count holds block-sized temporaries only
    n = 10 ** 6
    golden, iid = kronecker_orbit("golden", n), iid_uniform(n, seed=14)
    golden.sorted(), iid.sorted()
    t = numutil.threshold_from(1, n, 0.5).distance.value
    for call in (lambda: pair_count_fast(golden, t), lambda: pair_count_fast(iid, t),
                 lambda: f_stat(golden, 1, 0.5), lambda: f_stat(iid, 1, 0.5)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, f"{peak / 2 ** 20:.2f} MB"


def test_iid_p128_cells_never_search_python_ints():
    # every search of a non-rotation 2^128 cell runs on uint64 limbs, with the
    # window end settled on the low limb; no sorted array of Python ints is made
    real = paircorr._search

    def uint64_only(a, key, side):
        assert a[0].dtype == np.uint64 and key[0].dtype == np.uint64
        return real(a, key, side)

    batch = iid_uniform(1000, seed=11, precision=128)
    tiny = Fraction(1, 2 ** 60)
    with mock.patch.object(paircorr, "_search", uint64_only), \
            mock.patch.object(Batch, "sorted", side_effect=AssertionError):
        cells = [(f_stat(batch, s, alpha), s, alpha)
                 for s, alpha in ((1, 0.5), (1, 1), (tiny, 1))]
    floors = [numutil._exact_threshold_numerator(Fraction(s), 1000, Fraction(alpha), 1 << 128)
              for _, s, alpha in cells]
    assert floors[0] >> 64 >= 2 and floors[1] >> 64 >= 2 and floors[2] >> 64 < 2
    for (res, _, _), t in zip(cells, floors):
        assert (res.ordered_pair_count, res.ambiguous_pairs) == \
            (pair_count_naive(batch.raw, t, modulus=1 << 128), 0)


# --- the band from the batch's own point error -------------------------------


def test_golden_p64_bracket_is_wide_at_n_1e12_and_p128_is_one_point():
    # a lag-d pair of the P = 64 orbit drifts by up to d/2 ulps from the true
    # golden rotation, so at N = 10^12 the count at the floor of s/N^alpha is
    # certain only to within a wide bracket; at P = 128 the bracket is one point
    expect = {(64, Fraction(1, 2)): (2000001875405907514, 108419687261999996),
              (64, 1): (1612281509056, 54210111149958698),
              (128, Fraction(1, 2)): (1999998554946376234, 0),
              (128, 1): (903982488160, 0)}
    for (precision, alpha), cell in expect.items():
        res = f_stat(kronecker_orbit("golden", 10 ** 12, precision=precision), 1, alpha)
        assert (res.ordered_pair_count, res.ambiguous_pairs) == cell


def test_a_rounded_point_error_makes_a_pair_at_t_plus_1_ambiguous():
    # 0, 1/3 and 2/3 rounded to the 2^64 grid lie t, t + 1 and t apart, for
    # t = floor(2^64/3); alpha = 0 puts the threshold at s 2^64 = t exactly
    t = M64 // 3
    s = Fraction(t, M64)
    rounded = generate(SequenceSpec("vdc", base=3), 3).to_fixed(64)
    assert rounded.error == 1
    res = f_stat(rounded, s, 0)
    assert (res.ordered_pair_count, res.ambiguous_pairs) == (4, 6)
    assert f_stat(FixedBatch(64, rounded.raw), s, 0).ambiguous_pairs == 0
    # {sqrt n} points are floored, so they carry the same 1-ulp error
    roots = generate(SequenceSpec("sqrt_frac"), 3)
    d = circle_dist_raw(int(roots.raw[1]), int(roots.raw[2]), M64)
    s = Fraction(d - 1, M64)
    res = f_stat(roots, s, 0)
    assert (roots.error, res.threshold.distance.value) == (1, d - 1)
    assert res.ambiguous_pairs >= 2
    assert f_stat(FixedBatch(64, roots.raw), s, 0).ambiguous_pairs == 0


def test_a_pair_past_the_exact_threshold_is_not_counted_where_it_rounds_in():
    # x = s 2^64 = t + 3/4 rounds to t + 1, the one pair's distance, but the
    # pair lies past x: exact points count 0 with nothing ambiguous, and a
    # 1-ulp point error makes both ordered pairs ambiguous
    t = 3 << 60
    s = Fraction(4 * t + 3, 1 << 66)
    points = FixedBatch(64, [0, t + 1])
    res = f_stat(points, s, 0)
    assert res.threshold.distance.value == t + 1
    assert (res.ordered_pair_count, res.ambiguous_pairs) == (0, 0)
    points.error = 1
    res = f_stat(points, s, 0)
    assert (res.ordered_pair_count, res.ambiguous_pairs) == (0, 2)


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6, 3 * 10 ** 6])
@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(9, 10)], ids=["1/2", "9/10"])
def test_rotation_sweep_cells_stay_unambiguous(n, alpha):
    # the benchmark's golden cells (P = 64, s = 1): the derived band, about N/2
    # ulps wide, must keep every one of them a single certain count
    orbit = kronecker_orbit("golden", n)
    assert math.ceil(orbit.error) == (n + 1) // 2
    assert f_stat(orbit, 1, alpha).ambiguous_pairs == 0


# --- the F statistic --------------------------------------------------------


def test_f_stat_exact_mode_matches_fraction_oracle():
    batch = generate(SequenceSpec("vdc", base=3), 81)
    s, alpha = Fraction(1), Fraction(1, 2)
    res = f_stat(batch, s, alpha)
    # independent oracle: exact rational distances against s/N^alpha = 1/9
    pts = [Fraction(int(n), batch.modulus) for n in batch.raw]
    thr = Fraction(1, 9)
    ref = sum(1 for i in range(81) for j in range(81) if i != j
              and min((d := abs(pts[i] - pts[j])), 1 - d) <= thr)
    assert res.ordered_pair_count == ref
    assert res.ambiguous_pairs == 0


def test_f_stat_known_zero():
    from circlecorr.sequences import kronecker_orbit
    res = f_stat(kronecker_orbit("golden", 987), Fraction(1, 2), 1)
    assert res.ordered_pair_count == 0
    assert res.f_value == 0


def test_f_stat_iid_near_two():
    res = f_stat(iid_uniform(10 ** 5, seed=0), 1, 1)
    assert abs(res.f_value - 2) < 0.1


def test_f_value_never_raises():
    def f(count, n, alpha):
        return PairCountResult(n, alpha, 1.0, None, count, 0).f_value
    assert f(6, 4, 0.5) == 6 / 4 ** 1.5
    assert f(999000, 1000, -400.0) == 0.0  # N^(2 - alpha) overflows
    assert f(0, 1000, 400.0) == 0.0  # N^(2 - alpha) underflows, with no pair
    assert f(10, 1000, 400.0) == math.inf


def test_f_value_of_operands_past_the_float_range():
    # N^1.5 overflows for N = 10^300, and the golden count at N = 10^250 is past
    # the float range, while each ratio is not: both against a 50-digit reference
    vdc = f_stat(generate(SequenceSpec("vdc", base=10), 10 ** 300), 1, Fraction(1, 2))
    assert vdc.ordered_pair_count == 2 * 10 ** 450  # N min(2 floor(tN), N - 1) on {j/N}
    golden = f_stat(kronecker_orbit("golden", 10 ** 250), 1, 1)
    assert golden.ordered_pair_count > 10 ** 309
    for res in (vdc, golden):
        with mpmath.workdps(50):
            reference = res.ordered_pair_count / mpmath.mpf(res.n) ** (2 - mpmath.mpf(res.alpha))
        assert math.isfinite(res.f_value)
        assert abs(res.f_value - reference) <= 1e-12 * reference


def test_f_stat_rejects_tiny_batches():
    with pytest.raises(ValueError):
        f_stat(iid_uniform(1, seed=0), 1, 1)


def test_f_stat_profile_matches_single_cells():
    spec = SequenceSpec("vdc", base=2)
    table = f_stat_profile(generate(spec, 256), [64, 256], [0.5, 1.0], [1])
    assert len(table) == 4
    for row in table:
        single = f_stat(generate(spec, row.n), row.s, row.alpha)
        assert row.ordered_pair_count == single.ordered_pair_count
    with pytest.raises(ValueError):
        f_stat_profile(generate(spec, 256), [256, 64], [1], [1])


@pytest.mark.parametrize("n_list", [[50, 1000], [101], [-5, 50], [1, 50], [0], [50, 100, 101]])
def test_f_stat_profile_refuses_n_outside_the_batch(n_list):
    # raw[:n] would silently count 95 points for N = -5, or 100 for N = 1000
    batch = iid_uniform(100, seed=2)
    with mock.patch.object(paircorr, "f_stat", side_effect=AssertionError("counted")), \
            pytest.raises(ValueError, match="outside"):
        f_stat_profile(batch, n_list, [1], [1])
    assert [r.n for r in f_stat_profile(batch, [2, 100], [1], [1])] == [2, 100]


def assert_rescaling_identity(batch, s, a1, a2):
    # at N = r^4 and alphas in quarters, s N^(a1 - a2) is an exact Fraction and
    # s N^(a1 - a2) / N^a1 is the same number as s / N^a2, so both cells agree
    r = math.isqrt(math.isqrt(len(batch)))
    assert r ** 4 == len(batch)
    direct = f_stat(batch, s, a2)
    via = f_stat(batch, s * Fraction(r) ** int(4 * (a1 - a2)), a1)
    assert via.threshold == direct.threshold
    assert via.ordered_pair_count == direct.ordered_pair_count


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=2, max_value=5))
def test_rescaling_identity_fixed(seed, r):
    rng = random.Random(seed)
    batch = iid_uniform(r ** 4, seed)
    s = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    a2 = Fraction(rng.randint(1, 4), 4)
    a1 = a2 + Fraction(rng.randint(0, 4), 4)
    assert_rescaling_identity(batch, s, a1, a2)


def test_rescaling_identity_exact_mode():
    for base, r in ((5, 5), (2, 4), (3, 3)):
        batch = generate(SequenceSpec("vdc", base=base), r ** 4)
        for s, a1, a2 in ((Fraction(3, 2), Fraction(3, 4), Fraction(1, 4)),
                          (Fraction(1), Fraction(1), Fraction(1, 2)),
                          (Fraction(1, 3), Fraction(5, 4), Fraction(1, 4))):
            assert_rescaling_identity(batch, s, a1, a2)


# --- the exact rational threshold ------------------------------------------


def bisect_threshold_numerator(s, N, alpha, denominator):
    """Oracle: bisection on d^q N^p sd^q <= sn^q den^q for alpha = p/q >= 0.

    The exact-threshold routine f_stat used before the interval bracket; its
    cost grows with q, so it serves only small alpha denominators here.
    """
    p, q = alpha.numerator, alpha.denominator
    rhs = s.numerator ** q * denominator ** q
    lhs = N ** p * s.denominator ** q
    lo, hi = 0, denominator
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** q * lhs <= rhs:
            lo = mid
        else:
            hi = mid - 1
    return lo


def reference_numerator(s, N, alpha, denominator):
    """bisect_threshold_numerator where q is small; for large q, N = 1 or a 600-bit floor.

    At N = 1, x = s * den exactly.  Otherwise N^alpha with a large q is
    irrational, and x sits farther than 2^-400 from an integer on every
    drawn cell (the test assumes it), so a 600-bit mpmath value floors it.
    """
    if alpha.denominator <= 12:
        return bisect_threshold_numerator(s, N, alpha, denominator)
    if N == 1:
        return min(denominator, s.numerator * denominator // s.denominator)
    with mpmath.workprec(600):
        x = (mpmath.mpf(s.numerator) * denominator / s.denominator
             / mpmath.power(N, mpmath.mpf(alpha.numerator) / alpha.denominator))
        assume(abs(x - mpmath.nint(x)) > mpmath.ldexp(1, -400))
        return min(denominator, max(0, int(mpmath.floor(x))))


@contextlib.contextmanager
def threshold_route(route):
    """Force the integer-root route ("root", the default budget) or the bracket ("bracket").

    Yields (roots, brackets): what each _root_floor call returned, and the
    argument tuples of each _floor_bracket call.
    """
    roots, brackets = [], []
    real_root, real_bracket = numutil._root_floor, numutil._floor_bracket

    def root_spy(*args):
        roots.append(real_root(*args))
        return roots[-1]

    def bracket_spy(*args):
        brackets.append(args)
        return real_bracket(*args)

    budget = numutil._ROOT_BITS if route == "root" else 0
    with mock.patch.object(numutil, "_ROOT_BITS", budget), \
            mock.patch.object(numutil, "_root_floor", root_spy), \
            mock.patch.object(numutil, "_floor_bracket", bracket_spy):
        yield roots, brackets


@st.composite
def threshold_cases(draw):
    # moduli b^k, alpha denominators up to 12, N both perfect powers of the
    # base (where ties s * den / N^alpha in Z occur) and arbitrary, and s
    # large enough that x = s * den / N^alpha passes the denominator.  Large
    # alpha denominators too, past the integer root: float alphas (q = 2^k)
    # and 0.33333 (q = 10^5) take the bracket, and at N = 1 (N^alpha = 1 for
    # every q) the exact-root fraction
    base = draw(st.sampled_from([2, 3, 10]))
    denominator = base ** draw(st.integers(1, 14))
    N = draw(st.one_of(st.integers(1, 10 ** 6),
                       st.builds(pow, st.just(base), st.integers(0, 14)), st.just(1)))
    q = draw(st.integers(1, 12))
    alpha = draw(st.one_of(st.builds(Fraction, st.integers(0, q), st.just(q)),
                           st.builds(Fraction, st.floats(1e-3, 1)),
                           st.just(Fraction("0.33333"))))
    s = Fraction(draw(st.integers(1, 10 ** 7)), draw(st.integers(1, 1000)))
    return s, N, alpha, denominator


@settings(max_examples=400, deadline=None)
@given(threshold_cases())
def test_exact_threshold_matches_bisection(case):
    s, N, alpha, denominator = case
    expect = reference_numerator(*case)
    for route in ("root", "bracket"):
        with threshold_route(route) as (roots, brackets):
            assert numutil._exact_threshold_numerator(*case) == expect
        if route == "root" and alpha.denominator <= 12:
            assert None not in roots and brackets == []
        else:
            assert set(roots) <= {None}
            if roots and numutil._exact_root(N, alpha.denominator) is None:
                assert brackets


@pytest.mark.parametrize("base", [2, 3, 5, 10])
def test_exact_threshold_on_thm6_ties(base):
    # N = b^k with alpha in {1/4, 1/2, 3/4}: whenever 4 | k, N^(1 - alpha) is
    # an integer, so at den = N the threshold s N^(1 - alpha) is rational and,
    # for s in {1, 2}, a tie d/den = s/N^alpha
    for route in ("root", "bracket"):
        with threshold_route(route) as (roots, brackets):
            for k in range(1, 13):
                N = base ** k
                for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
                        d = numutil._exact_threshold_numerator(s, N, alpha, N)
                        assert d == bisect_threshold_numerator(s, N, alpha, N)
                        if k % 4 == 0:
                            x = s * base ** int(k * (1 - alpha))
                            assert d == min(N, x.numerator // x.denominator)
        if route == "root":
            assert roots and None not in roots and brackets == []
        else:
            assert set(roots) == {None} and brackets


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1)])
def test_exact_threshold_at_alpha_zero_and_one(alpha):
    for N in (1, 2, 7, 1000, 3 ** 10):
        for den in (2, 3 ** 7, 10 ** 9):
            for s in (Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(10 ** 12)):
                expect = min(den, int(s * den / N ** alpha))
                assert numutil._exact_threshold_numerator(s, N, alpha, den) == expect
                assert bisect_threshold_numerator(s, N, alpha, den) == expect


def test_exact_threshold_refines_near_an_integer():
    # 1000^(1 - alpha) is 100 at alpha = 1/3; 10^-30 away from 1/3 it lies
    # about 7e-28 from 100, inside the first interval (74 bits at den = 1000),
    # so the precision must double once before the floor is settled
    third, tiny = Fraction(1, 3), Fraction(1, 10 ** 30)
    for alpha, expect in ((third - tiny, 100), (third + tiny, 99)):
        with mock.patch.object(numutil, "_floor_bracket",
                               wraps=numutil._floor_bracket) as spy:
            assert numutil._exact_threshold_numerator(Fraction(1), 1000, alpha, 1000) == expect
        assert spy.call_count == 2


def test_exact_threshold_decided_by_exact_powers():
    # when no interval settles floor x, exact powers decide inside the last
    # bracket: here each bracket is widened by 5 on both sides, and one
    # precision is tried, or none (then the range is all of [0, den])
    real = numutil._floor_bracket

    def wide(*args):
        lo, hi = real(*args)
        return lo - 5, hi + 5

    rng = random.Random(11)
    cases = []
    for _ in range(200):
        q = rng.randint(1, 9)
        cases.append((Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 50)),
                      rng.randint(1, 10 ** 5), Fraction(rng.randint(0, q), q),
                      rng.choice([2, 3, 10]) ** rng.randint(1, 12)))
    cases.append((Fraction(142, 100), 2, Fraction(1, 2), 1000))  # x = 1004.1 > den
    # negative alpha: N^|p| moves to the other side of the comparison; with
    # x = 3^40 sqrt(2) / 10 near 1.7e18, a float there would miss the floor
    neg = (Fraction(1, 10), 2, Fraction(-1, 2), 3 ** 40)
    neg_floor = math.isqrt(2 * 3 ** 80 // 100)
    assert numutil._exact_threshold_numerator(*neg) == neg_floor
    expect = [bisect_threshold_numerator(*case) for case in cases] + [neg_floor]
    cases.append(neg)
    for doublings in (0, 1):
        # the bit budget forces the bracket, which the integer root would bypass
        with threshold_route("bracket") as (roots, _), \
                mock.patch.object(numutil, "_BRACKET_DOUBLINGS", doublings), \
                mock.patch.object(numutil, "_floor_bracket", wraps=wide) as widened:
            bracketed = 0
            for case, d in zip(cases, expect):
                reached = len(roots)
                assert numutil._exact_threshold_numerator(*case) == d
                # past the early outs, all but the perfect powers take one bracket
                bracketed += len(roots) > reached and \
                    numutil._exact_root(case[1], case[2].denominator) is None
        assert widened.call_count == bracketed * doublings
        assert bracketed >= 50


def test_exact_threshold_at_extreme_alpha():
    # far past either end of [0, den] the floor needs no power of N, which at
    # alpha = 10^9 would have 10^10 bits
    third = Fraction(1, 3)
    for alpha, expect in ((Fraction(10 ** 9), 0), (Fraction(-10 ** 9), 1000),
                          (Fraction(10 ** 9, 7), 0), (Fraction(400), 0)):
        start = time.perf_counter()
        assert numutil._exact_threshold_numerator(third, 1000, alpha, 1000) == expect
        assert time.perf_counter() - start < 1.0
    assert bisect_threshold_numerator(third, 1000, Fraction(400), 1000) == 0


def test_exact_threshold_rejects_nonpositive_s():
    for s in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            numutil._exact_threshold_numerator(s, 10, Fraction(1, 2), 100)


def test_exact_root():
    for k in range(1, 70):
        for r in (1, 2, 3, 10, 12345):
            n = r ** k
            assert numutil._exact_root(n, k) == r
            if k > 1:
                assert numutil._exact_root(n + 1, k) is None
                if r > 1:
                    assert numutil._exact_root(n - 1, k) is None
    assert numutil._exact_root(10 ** 4, 10 ** 16) is None
    assert numutil._exact_root(1, 10 ** 16) == 1


def test_iroot_is_the_floor_root():
    # Newton starts just above 2^(log2(n)/k); it must land on the floor from
    # any n, also one below, at and above a perfect power with a large root
    rng = random.Random(5)
    cases = [(0, 1), (0, 3), (1, 1), (1, 7), (2, 1), (7, 2)]
    for _ in range(1000):
        k = rng.randint(1, 80)
        cases.append((rng.getrandbits(rng.randint(1, 5000)), k))
        r = rng.getrandbits(rng.randint(1, 400)) + 2
        cases += [(r ** k - 1, k), (r ** k, k), (r ** k + 1, k)]
    for n, k in cases:
        r = numutil._iroot(n, k)
        assert r ** k <= n < (r + 1) ** k


def test_f_stat_float_alpha_on_vdc_is_fast():
    # 1/3 as a float is 6004799503160661/2^54: the alpha denominator is 2^54
    batch = generate(SequenceSpec("vdc", base=10), 10 ** 4)
    start = time.perf_counter()
    res = f_stat(batch, 1, 1 / 3)
    assert time.perf_counter() - start < 1.0
    # x = 10^(4 (1 - alpha)) lies 7.9e-14 from its value at alpha = 1/3,
    # 464.159..., far from any integer, so both alphas share its floor
    d = bisect_threshold_numerator(Fraction(1), 10 ** 4, Fraction(1, 3), 10 ** 4)
    assert d == 464
    assert res.ordered_pair_count == pair_count_fast(batch, d)


# --- rotation batches: the floor sum against the window kernel -------------


def _without_step(batch):
    """The same points and error as a plain fixed-point batch, counted by the window kernel."""
    plain = FixedBatch(batch.precision, batch.raw)
    plain.error = batch.error
    return plain


def _same_as_window_path(batch, s, alpha):
    """f_stat on a rotation batch: the same as on its points without the step.

    Both equal the kernel's (count(t), count(t + g) - count(t - g)) at the
    floor t of s/N^alpha and the batch's own band g = ceil(error).
    """
    assert batch.step is not None
    fast = f_stat(batch, s, alpha)
    assert batch._sorted is None and batch._limbs is None  # the floor sum never sorts
    plain = _without_step(batch)
    slow = f_stat(plain, s, alpha)
    n, g, modulus = len(batch), math.ceil(batch.error), batch.modulus
    t = numutil._exact_threshold_numerator(Fraction(s), n, Fraction(alpha), modulus)
    keys = paircorr._sorted_keys(plain)
    def count(u):
        return paircorr._ordered_count(keys, u, modulus)
    expect = (n * (n - 1), 0) if fast.threshold.degenerate else \
        (count(t), count(t + g) - count(t - g))
    assert (fast.ordered_pair_count, fast.ambiguous_pairs) == \
        (slow.ordered_pair_count, slow.ambiguous_pairs) == expect
    return fast


@pytest.mark.parametrize("z", ["golden", Fraction(16, 113), Fraction(1, 2),
                               0xd1b54a32d192ed03, 0, 1])
@pytest.mark.parametrize("precision", [64, 128])
def test_f_stat_rotation_matches_window_path(z, precision):
    # a raw-integer step has band 0; any other z has (N - 1)/2 ulps or a
    # little more: 1 at N = 2, 4 at N = 8, wide at N = 987 and 1500
    bands = set()
    for n, start in ((2, 0), (8, 0), (987, 0), (1500, 37)):
        for alpha in (0.5, 0.9, 1):
            for s in (Fraction(1, 2), 1, 3):
                batch = generate(SequenceSpec("kronecker", z_spec=z, precision=precision),
                                 n, start=start)
                _same_as_window_path(batch, s, alpha)
                bands.add(math.ceil(batch.error))
    assert bands == {0} if isinstance(z, int) else {1, 4} <= bands


def test_f_stat_rotation_edge_thresholds():
    def orbit():
        return kronecker_orbit("golden", 2000)
    # s/N^alpha >= 1/2: the degenerate branch counts every ordered pair
    assert _same_as_window_path(orbit(), 1, 0).ordered_pair_count == 2000 * 1999
    # t <= g, the band of about N/2 ulps: no lower recount; then a band of 10^15 ulps
    res = _same_as_window_path(orbit(), Fraction(1, 2 ** 62), 0)
    assert res.threshold.distance.value <= 4 < math.ceil(orbit().error)
    wide = orbit()
    wide.step_error = Fraction(10 ** 15, 1999)
    assert wide.error == 10 ** 15
    _same_as_window_path(wide, 1, 0.5)
    # all points equal: every pair is within any threshold
    same = kronecker_orbit(0, 500)
    assert _same_as_window_path(same, 1, 1).ordered_pair_count == 500 * 499


@pytest.mark.parametrize("precision", [64, 128])
def test_f_stat_rotation_band_edges(precision):
    # steps of 1, 3 and -3 ulps put pair distances on every threshold near t,
    # and at alpha = 0 the raw threshold is s 2^P = t + 1/4 rounded; a step
    # error of g/39 ulps gives the 40 points the band g
    for z in (1, 3, -3):
        orbit = kronecker_orbit(z, 40, precision=precision)
        raw = [int(v) for v in orbit.raw]
        def count(t):
            return reference_count(raw, t, orbit.modulus) if t >= 0 else 0
        for t in range(0, 3 * 40, 7):
            for g in (0, 1, 4):
                orbit.step_error = Fraction(g, 39)
                s = Fraction(4 * t + 1, 4 * orbit.modulus)
                res = _same_as_window_path(orbit, s, 0)
                assert res.threshold.distance.value == t
                assert res.ordered_pair_count == count(t)
                assert res.ambiguous_pairs == count(t + g) - count(t - g)


def test_f_stat_rotation_prefixes_and_profile():
    for n in (2, 100, 2999):
        _same_as_window_path(kronecker_orbit(0x9e3779b97f4a7c15, 3000).prefix(n), 1, 0.5)
    orbit = kronecker_orbit(0x9e3779b97f4a7c15, 3000)
    table = f_stat_profile(orbit, [100, 3000], [0.5, 0.9], [1])
    plain = f_stat_profile(_without_step(orbit), [100, 3000], [0.5, 0.9], [1])
    assert [(r.ordered_pair_count, r.ambiguous_pairs) for r in table] == \
        [(r.ordered_pair_count, r.ambiguous_pairs) for r in plain]


def test_f_stat_profile_never_builds_a_rotation_orbit():
    orbit = kronecker_orbit("golden", 3 * 10 ** 6)
    table = f_stat_profile(orbit, [10 ** 5, 10 ** 6, 3 * 10 ** 6], [0.5, 0.9], [1])
    assert orbit._raw is None
    assert [r.n for r in table] == [10 ** 5] * 2 + [10 ** 6] * 2 + [3 * 10 ** 6] * 2
    assert all(r.ambiguous_pairs == 0 and r.ordered_pair_count > 0 for r in table)


@st.composite
def progression_cases(draw):
    # arithmetic progressions raw[i] = r0 + i z on the two fixed-point
    # moduli; thresholds sit on, just below and just above the distances
    # that occur, and past modulus // 2
    modulus = draw(st.sampled_from([2 ** 64, 2 ** 128]))
    r0, z = draw(st.integers(0, modulus - 1)), draw(st.integers(0, modulus - 1))
    raw = [(r0 + i * z) % modulus for i in range(draw(st.integers(1, 40)))]
    near = [circle_dist_raw(v, raw[0], modulus) + k for v in raw for k in (-1, 0, 1)]
    ts = draw(st.lists(st.one_of(st.sampled_from([t for t in near if t >= 0]),
                                 st.just(modulus // 2), st.integers(0, 2 * modulus)),
                       min_size=1, max_size=3))
    return raw, ts, modulus, z


@given(progression_cases(), st.integers(-3, 3))
def test_rotation_counts_on_fixed_point_moduli(case, wraps):
    raw, ts, modulus, z = case
    # the step is reduced mod the modulus on entry, and a threshold below 0 counts nothing
    for t in ts:
        assert rotation_count(z + wraps * modulus, len(raw), t, modulus) == \
            reference_count(raw, t, modulus)
    assert rotation_count(z, len(raw), -1, modulus) == 0


def test_rotation_counts_spans_several_blocks():
    orbit = kronecker_orbit("golden", 200_000)
    for t in (M64 // 10 ** 5, 0, 1, M64 // 2 - 1):
        assert rotation_count(orbit.step, 200_000, t, orbit.modulus) == \
            pair_count_fast(orbit, t)


def test_floor_sums_on_small_cases():
    rng = random.Random(11)
    for _ in range(3000):
        a, b = rng.randint(-120, 120), rng.randint(-120, 120)
        c, n = rng.randint(1, 50), rng.randint(0, 40)
        floors = [(a * i + b) // c for i in range(n + 1)]
        assert paircorr._floor_sums(a, b, c, n) == (
            sum(floors), sum(i * f for i, f in enumerate(floors)), sum(f * f for f in floors))


def test_golden_zero_counts_reach_q90_without_an_orbit():
    # F_{q_h}^1(1/2) = 0 at P = 128 for every h <= 90 (q_90 ~ 2.9e18), with
    # t widened by N ulps; only the step is used, no point is built
    from circlecorr.cf import fibonacci
    from circlecorr.numutil import threshold_from
    from circlecorr.sequences import golden_raw
    z, modulus = golden_raw(128), 1 << 128
    for h in range(3, 91):
        n = fibonacci(h)
        t = threshold_from(Fraction(1, 2), n, 1, precision=128).distance.value
        assert rotation_count(z, n, t, modulus) == 0
        assert rotation_count(z, n, t + n, modulus) == 0


def test_which_batches_carry_a_step():
    for precision in (64, 128):
        spec = SequenceSpec("kronecker", z_spec=Fraction(3, 7), precision=precision)
        for batch in (generate(spec, 2), generate(spec, 50, start=9),
                      kronecker_orbit(Fraction(3, 7), 50, precision=precision),
                      generate(spec, 50).prefix(10), kronecker_orbit(0, 50)):
            assert batch.step is not None
            raw = [int(v) for v in batch.raw]
            assert all((raw[i] - raw[0]) % batch.modulus == i * batch.step % batch.modulus
                       for i in range(len(raw)))
    for spec in (SequenceSpec("vdc", base=3), SequenceSpec("iid", seed=1),
                 SequenceSpec("sqrt_frac")):
        assert generate(spec, 50).step is None
    assert generate(SequenceSpec("vdc", base=3), 50).to_fixed().step is None


def test_file_read_rotation_orbits_are_progressions():
    import io
    from circlecorr.cli import read_points_binary, read_points_csv, write_points_csv
    orbit = kronecker_orbit(0x9e3779b97f4a7c15, 20)
    buf = io.StringIO()
    write_points_csv(orbit, buf)
    buf.seek(0)
    from_csv = read_points_csv(buf, 64)
    data = b"".join(int(v).to_bytes(8, "little") for v in orbit.raw)
    from_bin = read_points_binary(io.BytesIO(data), 64)
    for batch in (from_csv, from_bin):
        assert list(batch.raw) == list(orbit.raw)
        # a file holds no step: the window kernel counts the points read back,
        # and gets the floor sum's counts on the generated orbit
        assert batch.step is None
        for s, alpha in ((1, 0.5), (Fraction(1, 2), 1), (3, 0.9)):
            read, made = f_stat(batch, s, alpha), f_stat(orbit, s, alpha)
            assert (read.ordered_pair_count, read.ambiguous_pairs) == \
                (made.ordered_pair_count, made.ambiguous_pairs)


# --- van der Corput batches: the digit count against built points ----------


@pytest.mark.parametrize("base", [2, 3, 7, 10])
def test_vdc_count_equals_the_window_kernel_off_the_lattice(base):
    # one build per base; a prefix keeps the modulus b^K of the whole batch.
    # Without the point 0, the unique minimum, a count loses the pairs of 0
    # and its w - 1 other neighbours within t, read off the built points
    batch = generate(SequenceSpec("vdc", base=base), 2012345)
    modulus = batch.modulus
    for n in (100001, 999999, 2012345):
        a = batch.prefix(n).sorted()
        for t in (modulus // n, modulus // math.isqrt(n)):
            count = pair_count_fast(a, t, modulus, presorted=a)
            assert vdc_count(base, 0, n, t, modulus) == count
            w = np.count_nonzero((a <= t) | (a >= modulus - t))
            assert vdc_count(base, 1, n - 1, t, modulus) == count - 2 * (w - 1)


def test_vdc_count_equals_the_naive_count_on_prefixes():
    rng = random.Random(24)
    for base in (2, 3, 5, 10, 16, 1000):
        for include_zero in (True, False):
            batch = generate(SequenceSpec("vdc", base=base, include_zero=include_zero),
                             rng.randint(2, 300))
            modulus = batch.modulus
            for n in (2, rng.randint(2, batch.size), batch.size):
                prefix = batch.prefix(n)
                for t in (0, 1, modulus // 2 - 1, modulus // 2):
                    assert vdc_count(base, batch.first, n, t, modulus) == \
                        pair_count_naive(prefix, t)
                assert f_stat(prefix, 1, 0.5).ordered_pair_count == pair_count_naive(
                    prefix, numutil._exact_threshold_numerator(1, n, Fraction(1, 2), modulus))


@pytest.mark.parametrize("include_zero", [True, False])
def test_f_stat_counts_vdc_above_2_120_exactly(include_zero):
    # b^K = 2^130: the exact points n/2^130 carry no error, so the count has no
    # bracket, at thresholds of 16 and 136 ulps and where every pair is close
    spec = SequenceSpec("vdc", base=2 ** 130, include_zero=include_zero)
    for n in (2, 100, 300):
        batch = generate(spec, n)
        for s, alpha in ((Fraction(1, 2 ** 126), 0), (Fraction(1, 10 ** 37), 0), (1, 1)):
            res = f_stat(batch, s, alpha)
            assert res.ambiguous_pairs == 0 and batch._raw is None
            t = numutil._exact_threshold_numerator(s, n, Fraction(alpha), batch.modulus)
            assert res.ordered_pair_count == pair_count_naive(generate(spec, n), t)


def test_vdc_count_at_base_2_60_builds_no_points():
    # below 2^60 every index is one digit: the points are i / 2^60, and pairs
    # within t = 1000 are those at lags d <= 1000, (N - d) of each in both orders
    n = 2 ** 27
    batch = generate(SequenceSpec("vdc", base=2 ** 60), n)
    start = time.perf_counter()
    assert f_stat(batch, 1, 1).ordered_pair_count == n * (n - 1)
    assert vdc_count(2 ** 60, 0, n, 1000, batch.modulus) == 2 * sum(n - d for d in range(1, 1001))
    assert time.perf_counter() - start < 0.1
    assert batch._raw is None
