import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlecorr import sequences
from circlecorr.sequences import (Batch, FixedBatch, RationalBatch, RotationBatch, SequenceSpec,
                                  VdcBatch, generate, golden_raw, iid_uniform, join_limbs,
                                  kronecker_orbit, resolve_z, split_limbs)

M64 = 1 << 64


def vdc(n: int, base: int = 2) -> Fraction:
    """Reference radical inverse of n: reverse the base-b digits across the point."""
    digits = rev = 0
    while n:
        rev = rev * base + n % base
        n //= base
        digits += 1
    return Fraction(rev, base ** digits)


def vdc_points(base, N, include_zero=True):
    batch = generate(SequenceSpec("vdc", base=base, include_zero=include_zero), N)
    return [Fraction(int(v), batch.modulus) for v in batch.raw]


def test_vdc_base2_first_points():
    expected = [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]
    assert vdc_points(2, 8) == expected
    assert [vdc(n, 2) for n in range(8)] == expected


def test_vdc_base10_digit_reversal():
    points = vdc_points(10, 191)
    assert points[123] == vdc(123, 10) == Fraction(321, 1000)
    assert points[190] == vdc(190, 10) == Fraction(91, 1000)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 10, 3 ** 40, 2 ** 70]), st.integers(1, 300), st.booleans())
def test_vdc_batch_matches_digit_reversal(base, N, include_zero):
    start = 0 if include_zero else 1
    assert vdc_points(base, N, include_zero) == [vdc(n, base) for n in range(start, start + N)]


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=4))
def test_vdc_block_is_grid_permutation(base, n_exp):
    # the first b^n points hit every multiple of b^-n exactly once
    n = base ** n_exp
    batch = generate(SequenceSpec("vdc", base=base), n)
    assert isinstance(batch, RationalBatch)
    scale = batch.modulus // n
    assert sorted(int(v) for v in batch.raw) == [i * scale for i in range(n)]


def test_golden_raw_matches_mpmath():
    with mpmath.workdps(50):
        frac_phi = (mpmath.sqrt(5) - 1) / 2
        expected = int(mpmath.nint(frac_phi * M64))
    assert golden_raw(64) == expected


@pytest.mark.parametrize("precision", [64, 128])
def test_each_family_carries_its_point_error(precision):
    # error bounds how far a pair's grid distance lies from the true one, in ulps
    half, spec = Fraction(1, 2), SequenceSpec("vdc", base=3, precision=precision)
    assert generate(spec, 10).error == 0  # exact rationals
    assert generate(spec, 10).to_fixed(precision).error == 1  # each point within 1/2 ulp
    assert generate(SequenceSpec("vdc", base=10 ** 40, precision=precision), 10).error == 0
    assert generate(SequenceSpec("sqrt_frac", precision=precision), 10).error == 1  # floored
    assert generate(SequenceSpec("iid", precision=precision), 10).error == 0
    assert FixedBatch(precision, [1, 2]).error == 0
    # a rotation pair at lag d < N is off by d times the step's error
    assert kronecker_orbit(5, 10, precision).error == 0
    assert kronecker_orbit(Fraction(1, 3), 10, precision).error == 9 * half
    assert kronecker_orbit("0." + "3" * 45, 10, precision).error == 9 * half
    golden = kronecker_orbit("golden", 10, precision)
    with mpmath.workdps(100):
        drift = abs(golden.step - (mpmath.sqrt(5) - 1) / 2 * 2 ** precision)
        assert drift <= mpmath.mpf(golden.step_error.numerator) / golden.step_error.denominator
    assert golden.step_error == half + Fraction(1, 2 ** (192 - precision))
    assert (golden.error, golden.prefix(4).error) == (9 * golden.step_error,
                                                      3 * golden.step_error)


@pytest.mark.parametrize("kind", ["vdc", "iid"])
def test_generate_refuses_a_start_it_would_ignore(kind):
    # these families have no index offset: start=5 gave the points of 0 .. 3
    with pytest.raises(ValueError, match="start"):
        generate(SequenceSpec(kind), 4, start=5)
    assert len(generate(SequenceSpec(kind), 4, start=0)) == 4


def test_resolve_z_forms_agree():
    dec = "0." + "6180339887498948482045868343656381177203091798057628621354486227"
    assert abs(resolve_z(dec) - resolve_z("golden")) <= 1
    assert resolve_z(Fraction(1, 4)) == 1 << 62
    assert resolve_z("1/4") == 1 << 62
    assert resolve_z(5) == 5


def test_resolve_z_short_decimal_rejected():
    with pytest.raises(ValueError):
        resolve_z("0.618")


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_kronecker_is_homomorphism(m, n):
    def point(k):
        return int(generate(SequenceSpec("kronecker"), 1, start=k).raw[0])
    assert (point(m) + point(n)) % M64 == point(m + n)


def test_kronecker_batch_matches_scalar():
    batch = generate(SequenceSpec("kronecker"), 500)
    z = resolve_z("golden")
    for n in (0, 1, 7, 499):
        assert int(batch.raw[n]) == (n * z) % M64


def test_resolve_z_counts_digits_before_the_exponent():
    # 24 characters follow the point, but only one digit before the exponent
    with pytest.raises(ValueError, match="got 1"):
        resolve_z("0.5e-0000000000000000000000")
    digits = "0.6180339887498948482045868"
    assert resolve_z(digits + "e0") == resolve_z(digits)
    assert resolve_z("0.1234567890123456789012e-1") == resolve_z("0.01234567890123456789012")


@pytest.mark.parametrize("precision", [64, 128])
def test_lazy_rotation_points_are_the_eager_formula(precision):
    modulus = 1 << precision
    z = golden_raw(precision)
    for first in (0, 1, 5):
        spec = SequenceSpec("kronecker", precision=precision)
        for batch in (kronecker_orbit("golden", 300, precision=precision, first=first),
                      generate(spec, 300, start=first)):
            assert batch._raw is None and len(batch) == 300
            assert batch.raw.dtype == (np.uint64 if precision == 64 else object)
            assert [int(v) for v in batch.raw] == [(first + i) * z % modulus
                                                   for i in range(300)]


@pytest.mark.parametrize("precision", [64, 128])
def test_rotation_prefix_before_and_after_the_points_are_built(precision):
    orbit = kronecker_orbit("golden", 100, precision=precision)
    lazy = orbit.prefix(30)
    assert orbit._raw is None and lazy._raw is None  # a prefix builds nothing
    assert (len(lazy), lazy.step, lazy.first) == (30, orbit.step, 1)
    assert len(orbit.prefix(100)) == 100 and len(orbit.prefix(0)) == 0
    full = list(orbit.raw)
    assert list(lazy.raw) == full[:30]
    orbit.split()
    built = orbit.prefix(30)
    assert built.step == orbit.step and np.shares_memory(built.raw, orbit.raw)
    assert all(np.shares_memory(a, b) for a, b in zip(built.split(), orbit.split()))
    assert list(built.raw) == full[:30] and list(built.sorted()) == sorted(full[:30])


def test_lazy_rotation_limbs_at_p128():
    # split() and limbs() build the points of a batch nothing has read yet
    z = resolve_z(Fraction(3, 7), 128)
    vals = [n * z % (1 << 128) for n in range(1, 51)]
    high, low = kronecker_orbit(Fraction(3, 7), 50, precision=128).split()
    assert [int(h) << 64 | int(l) for h, l in zip(high, low)] == vals
    high, low = kronecker_orbit(Fraction(3, 7), 50, precision=128).prefix(20).limbs()
    assert [int(h) << 64 | int(l) for h, l in zip(high, low)] == sorted(vals[:20])


def test_limb_batch_joins_its_points_only_when_read():
    rng = np.random.default_rng(2)
    limbs = rng.integers(0, 2 ** 64, size=(300, 2), dtype=np.uint64)  # low limb first
    batch = FixedBatch.from_limbs(128, limbs)
    assert batch._raw is None and len(batch) == 300
    assert list(batch.raw) == list(join_limbs(*batch.split()))
    assert list(batch.raw) == [int(h) << 64 | int(l) for l, h in limbs]


def _lazy_batch(kind):
    if kind == "limbs":
        return iid_uniform(100, seed=4, precision=128)
    return kronecker_orbit("golden", 100, precision=128)


@pytest.mark.parametrize("kind", ["limbs", "rotation"])
@pytest.mark.parametrize("built", [False, True])
def test_prefix_before_and_after_raw_is_built(kind, built):
    full = [int(v) for v in _lazy_batch(kind).raw]
    batch = _lazy_batch(kind)
    if built:
        batch.raw
    head = batch.prefix(30)
    assert (head._raw is None) is not built
    assert len(head) == 30 and len(batch.prefix(100)) == 100 and len(batch.prefix(0)) == 0
    assert [int(v) for v in head.raw] == full[:30]
    assert [int(h) << 64 | int(l) for h, l in zip(*head.limbs())] == sorted(full[:30])
    assert len(batch) == 100 and [int(v) for v in batch.raw] == full


@pytest.mark.parametrize("make", [lambda: iid_uniform(300, 1),
                                  lambda: kronecker_orbit("golden", 300)])
@pytest.mark.parametrize("n", [-5, -1, 301, 1000])
def test_prefix_refuses_n_outside_the_batch(make, n):
    # raw[:n] would hold 295 or 300 points: a prefix never changes N silently
    with pytest.raises(ValueError):
        make().prefix(n)


def test_rotation_batch_inherits_raw_len_and_prefix():
    assert not {"raw", "__len__", "prefix"} & set(vars(RotationBatch))


def test_kronecker_orbit_starts_at_one():
    orbit = kronecker_orbit("golden", 3)
    assert int(orbit.raw[0]) == resolve_z("golden")
    assert len(orbit) == 3


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_sqrt_frac_within_one_ulp(n):
    value = int(generate(SequenceSpec("sqrt_frac"), 1, start=n - 1).raw[0])
    r = math.isqrt(n)
    if r * r == n:
        assert value == 0
    else:
        with mpmath.workdps(50):
            exact = (mpmath.sqrt(n) % 1) * M64
            assert 0 <= exact - value <= 1  # floor of the true value


def test_sqrt_frac_precision_128():
    value = int(generate(SequenceSpec("sqrt_frac", precision=128), 1, start=1).raw[0])
    # floor(sqrt(2) * 2^128) mod 2^128
    assert value == math.isqrt(2 << 256) - (1 << 128)


def test_iid_deterministic():
    a = iid_uniform(100, seed=7)
    b = iid_uniform(100, seed=7)
    assert np.array_equal(a.raw, b.raw)
    c = iid_uniform(100, seed=8)
    assert not np.array_equal(a.raw, c.raw)


@pytest.mark.parametrize("precision", [64, 128])
def test_iid_draws_are_getrandbits_in_turn(precision):
    # the definition-level reference: one getrandbits(P) per point
    for count, seed in ((0, 1), (1, 2), (1000, 3)):
        rng = random.Random(seed)
        expect = [rng.getrandbits(precision) for _ in range(count)]
        batch = iid_uniform(count, seed, precision=precision)
        assert [int(v) for v in batch.raw] == expect
        assert batch.raw.dtype == (np.uint64 if precision == 64 else object)


@pytest.mark.parametrize("precision", [64, 128])
def test_iid_draws_in_blocks_are_one_randbytes_draw(precision):
    # 12-byte blocks split some values across two blocks; joined, they are one draw
    width = precision // 8
    for count, seed in ((1, 4), (3, 5), (100, 6)):
        data = random.Random(seed).randbytes(count * width)
        expect = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
        with mock.patch.object(sequences, "_RANDBYTES_BLOCK", 12):
            batch = iid_uniform(count, seed, precision=precision)
        assert [int(v) for v in batch.raw] == expect


@given(st.lists(st.integers(0, (1 << 128) - 1), max_size=40), st.integers(0, 45))
def test_limbs_split_join_and_sort(vals, n):
    high, low = split_limbs(vals)
    assert [int(h) << 64 | int(l) for h, l in zip(high, low)] == vals
    assert list(join_limbs(high, low)) == vals
    batch = Batch(vals, 1 << 128)
    given_limbs = FixedBatch.from_limbs(128, np.column_stack([low, high]))
    n = min(n, len(vals))  # a prefix is at most the whole batch
    for b in (batch, batch.prefix(n), given_limbs, given_limbs.prefix(n)):
        head = vals[:len(b)]
        high, low = b.limbs()
        assert [int(h) << 64 | int(l) for h, l in zip(high, low)] == sorted(head)
        assert list(b.sorted()) == sorted(head)


def test_generate_prefix_consistency():
    spec = SequenceSpec("kronecker")
    long = generate(spec, 50)
    short = generate(spec, 20)
    assert [int(v) for v in long.raw[:20]] == [int(v) for v in short.raw]


def test_generate_vdc_stays_exact():
    # the common denominator b^k tracks N, in every base
    small = generate(SequenceSpec("vdc", base=2), 1 << 10)
    assert isinstance(small, RationalBatch)
    assert small.modulus == 1 << 10
    odd = generate(SequenceSpec("vdc", base=2), (1 << 10) + 1)
    assert isinstance(odd, RationalBatch)
    assert odd.modulus == 1 << 11
    for base in (2 ** 130, 10 ** 39 + 1):
        huge = generate(SequenceSpec("vdc", base=base), 10)
        assert isinstance(huge, VdcBatch) and huge.error == 0 and huge.modulus == base


@pytest.mark.parametrize("base", [3, 2 ** 32, 2 ** 64])
@pytest.mark.parametrize("include_zero", [True, False])
def test_a_vdc_prefix_builds_the_digit_reversal_of_its_parent(base, include_zero):
    # a prefix keeps the parent's modulus b^K: its points are the radical
    # inverses of its indices over K digits, built only when raw is read
    parent = generate(SequenceSpec("vdc", base=base, include_zero=include_zero), 100)
    assert isinstance(parent, VdcBatch) and parent._raw is None
    head = parent.prefix(30)
    assert head._raw is None and head.modulus == parent.modulus
    start = 0 if include_zero else 1
    assert [Fraction(int(v), head.modulus) for v in head.raw] == \
        [vdc(n, base) for n in range(start, start + 30)]
    assert parent._raw is None
    assert head.raw.dtype == parent.raw.dtype and list(head.raw) == list(parent.raw[:30])


def test_generate_vdc_skip_zero():
    batch = generate(SequenceSpec("vdc", base=2, include_zero=False), 3)
    fracs = [Fraction(int(v), batch.modulus) for v in batch.raw]
    assert fracs == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]


def test_rational_to_fixed_rounds():
    batch = RationalBatch(3, 1, [0, 1, 2])
    fixed = batch.to_fixed()
    assert int(fixed.raw[1]) == 6148914691236517205  # nearest to 2^64/3


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec("nope")
    with pytest.raises(ValueError):
        SequenceSpec("vdc", base=1)
    with pytest.raises(ValueError):
        SequenceSpec("iid", precision=96)
