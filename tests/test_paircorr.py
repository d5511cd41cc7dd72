import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlecorr.numutil import circle_dist_raw
from circlecorr.paircorr import (f_stat, f_stat_profile, min_pair_distance,
                                 pair_count_fast, pair_count_naive,
                                 per_point_counts, rescaling_identity_check,
                                 sorted_raw)
from circlecorr.sequences import (FixedBatch, SequenceSpec, generate,
                                  iid_uniform)

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


@st.composite
def modulus_cases(draw):
    # uint64 moduli on both sides of 2^63, the full 2^64 grid and an
    # object-array modulus; repeated values, and thresholds at both ends,
    # up to the degenerate t = modulus // 2 where every ordered pair counts
    modulus = draw(st.sampled_from(
        [7, 1000, 3 ** 40, 2 ** 63 + 12345, 2 ** 64 - 1, 2 ** 64, 2 ** 128]))
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


def test_min_pair_distance_examples():
    batch = generate(SequenceSpec("vdc", base=2), 8)
    assert Fraction(min_pair_distance(batch), batch.modulus) == Fraction(1, 8)
    dup = FixedBatch(64, np.array([5, 5], dtype=np.uint64))
    assert min_pair_distance(dup) == 0
    wrap = FixedBatch(64, np.array([1, M64 - 3], dtype=np.uint64))
    assert min_pair_distance(wrap) == 4


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


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=10, max_value=400))
def test_rescaling_identity_fixed(seed, n):
    rng = random.Random(seed)
    batch = iid_uniform(n, seed)
    s = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    a2 = Fraction(rng.randint(1, 4), 4)
    a1 = a2 + Fraction(rng.randint(0, 4), 4)
    assert rescaling_identity_check(batch, s, a1, a2)


def test_rescaling_identity_exact_mode():
    batch = generate(SequenceSpec("vdc", base=5), 625)
    assert rescaling_identity_check(batch, Fraction(3, 2), Fraction(3, 4), Fraction(1, 4))
