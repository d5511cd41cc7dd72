import math
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from circlecorr import numutil
from circlecorr.numutil import CircleDistance, circle_dist_raw, threshold_from
from circlecorr.paircorr import f_stat, pair_count_fast
from circlecorr.sequences import Batch, SequenceSpec, generate, iid_uniform, resolve_z

M64 = 1 << 64

raw64 = st.integers(min_value=0, max_value=M64 - 1)


def reference_threshold(s, N, alpha, precision=64):
    """(raw, degenerate) of s/N^alpha by the 80-digit mpmath rounding.

    The rounding threshold_from used before it was decided exactly: nint of
    s N^-alpha 2^P at 80 decimal digits, which rounds a tie to even.
    """
    def mpf(x):
        return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) \
            else mpmath.mpf(x)

    half = 1 << (precision - 1)
    with mpmath.workdps(80):
        thr = mpf(s) * mpmath.power(N, -mpf(alpha))
        if thr >= mpmath.mpf(1) / 2:
            return half, True
        return min(int(mpmath.nint(thr * (1 << precision))), half), False


def test_bad_precision_rejected():
    with pytest.raises(ValueError):
        CircleDistance(0, precision=32)
    with pytest.raises(ValueError):
        threshold_from(1, 10, 1, precision=32)


def test_from_fraction_rounds_to_nearest():
    # 1/3 * 2^64 = 6148914691236517205.33.., rounds down
    assert resolve_z(Fraction(1, 3)) == 6148914691236517205
    # 2/3 rounds up
    assert resolve_z(Fraction(2, 3)) == 12297829382473034411
    assert resolve_z(Fraction(1, 2)) == 1 << 63
    assert resolve_z(Fraction(5, 4)) == 1 << 62
    assert resolve_z(Fraction(M64 - 1, M64) + Fraction(1, 2 * M64)) == 0  # rounds up past 1


@given(raw64, raw64)
def test_circle_dist_symmetric_and_bounded(a, b):
    d = circle_dist_raw(a, b, M64)
    assert d == circle_dist_raw(b, a, M64)
    assert 0 <= d <= M64 // 2
    assert (d == 0) == (a == b)


@given(raw64, raw64, raw64)
def test_circle_dist_triangle(a, b, c):
    ab = circle_dist_raw(a, b, M64)
    bc = circle_dist_raw(b, c, M64)
    ac = circle_dist_raw(a, c, M64)
    assert ac <= ab + bc


@given(raw64, raw64, raw64)
def test_circle_dist_translation_invariant(a, b, shift):
    d1 = circle_dist_raw(a, b, M64)
    d2 = circle_dist_raw((a + shift) % M64, (b + shift) % M64, M64)
    assert d1 == d2


def test_rational_distance():
    # points over a common denominator b^k lie circle_dist_raw of their numerators apart
    assert Fraction(circle_dist_raw(1, 9, 10), 10) == Fraction(1, 5)
    batch = Batch([1, 9], 10)
    assert [pair_count_fast(batch, t) for t in (1, 2)] == [0, 2]


def test_circle_distance_range_checked():
    with pytest.raises(ValueError):
        CircleDistance((1 << 63) + 1)


def test_threshold_known_value():
    # s/N^alpha = 1/10 at N=100, alpha=1/2; 2^64/10 rounds up (.6 remainder)
    thr = threshold_from(1, 100, Fraction(1, 2))
    assert thr.distance.value == M64 // 10 + 1
    assert not thr.degenerate


def test_threshold_degenerate():
    thr = threshold_from(2, 100, Fraction(1, 4))  # 2/100^0.25 = 0.632 >= 1/2
    assert thr.degenerate
    assert thr.distance.value == 1 << 63


def test_threshold_precision_128():
    thr = threshold_from(Fraction(1, 2), 2, 1, precision=128)
    assert thr.distance.value == 1 << 126  # exactly 1/4


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.fractions(min_value=Fraction(1, 100), max_value=4),
       st.fractions(min_value=Fraction(1, 10), max_value=1))
def test_threshold_within_half_ulp(n, s, alpha):
    import mpmath
    thr = threshold_from(s, n, alpha)
    if thr.degenerate:
        return
    with mpmath.workdps(60):
        exact = (mpmath.mpf(s.numerator) / s.denominator
                 * mpmath.power(n, -mpmath.mpf(alpha.numerator) / alpha.denominator))
        assert abs(thr.distance.value - exact * M64) <= mpmath.mpf(1) / 2 + 1e-12


def test_threshold_rejects_bad_input():
    with pytest.raises(ValueError):
        threshold_from(0, 10, 1)
    with pytest.raises(ValueError):
        threshold_from(1, 0, 1)


def test_threshold_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        for args in ((bad, 10, 1), (1, 10, bad)):
            with pytest.raises(ValueError):
                threshold_from(*args)
    for batch in (iid_uniform(20, 1), generate(SequenceSpec("vdc", base=3), 20)):
        for s, alpha in ((math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError):
                f_stat(batch, s, alpha)


def test_threshold_too_close_to_call_is_an_error_not_a_hang():
    # s/N^alpha lies within 10^-40000 of 1/2, past what the last bracket
    # settles, and exact powers would raise 2^65 to the 10^40000th power
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too close"):
        threshold_from(Fraction(1, 2), 2, Fraction(1, 10 ** 40000))
    assert time.perf_counter() - start < 5.0


# N that are perfect powers make N^alpha rational for some alpha.  The
# reference rounds at 80 digits, so it errs where s/N^alpha lies within
# about 10^-80 of a rounding boundary: at N = 2, s = 1/2 and a float alpha
# of 1e-125, s/N^alpha is that close to 1/2.  So float alphas start at 10^-3
sizes = st.one_of(st.integers(1, 10 ** 7),
                  st.builds(pow, st.integers(2, 30), st.integers(1, 6)))
exponents = st.one_of(st.fractions(min_value=0, max_value=2, max_denominator=12),
                      st.just(0.0), st.floats(min_value=1e-3, max_value=2))
scales = st.one_of(st.fractions(min_value=Fraction(1, 1000), max_value=8, max_denominator=1000),
                   st.floats(min_value=1e-3, max_value=8))


@settings(max_examples=300, deadline=None)
@given(scales, sizes, exponents, st.sampled_from([64, 128]))
def test_threshold_matches_80_digit_reference(s, N, alpha, precision):
    thr = threshold_from(s, N, alpha, precision=precision)
    assert (thr.distance.value, thr.degenerate) == reference_threshold(s, N, alpha, precision)


@pytest.mark.parametrize("precision", [64, 128])
@pytest.mark.parametrize("N, alpha, root", [
    (1, Fraction(1), 1), (4, Fraction(1, 2), 2), (4, 0.5, 2), (9, Fraction(1, 2), 3),
    (16, 0.75, 8), (27, Fraction(2, 3), 9), (1024, Fraction(3, 10), 8),
    (4096, Fraction(5, 6), 1024), (10 ** 6, Fraction(1, 3), 100)])
def test_threshold_ties_round_to_even(N, alpha, root, precision):
    # s = (2k + 1) N^alpha / 2^(P+1) puts s/N^alpha 2^P at k + 1/2.  The
    # 80-digit reference holds a dyadic alpha exactly and then rounds such a
    # tie right; at 27^(2/3), 4096^(5/6) or (10^6)^(1/3) its last-digit error
    # picks the side instead.  Among them: N = 4, alpha = 1/2, s = 3 2^-64
    # gives raw 2 (k = 1), and N = 1, alpha = 1, s = 5 2^-65 gives raw 2 (k = 2)
    # Each tie is decided twice: by the integer root, and with the bit budget
    # at 0 by the exact-root fraction that larger alpha denominators take
    dyadic = Fraction(alpha).denominator in (1, 2, 4)
    real, roots = numutil._root_floor, []

    def spy(*args):
        roots.append(real(*args))
        return roots[-1]

    for budget in (numutil._ROOT_BITS, 0):
        roots.clear()
        with mock.patch.object(numutil, "_ROOT_BITS", budget), \
                mock.patch.object(numutil, "_root_floor", spy):
            for k in range(8):
                s = Fraction((2 * k + 1) * root, 2 << precision)
                thr = threshold_from(s, N, alpha, precision=precision)
                assert (thr.distance.value, thr.degenerate) == (k + k % 2, False)
                if dyadic:
                    assert reference_threshold(s, N, alpha, precision) == (k + k % 2, False)
        assert len(roots) == 8 and (None not in roots if budget else set(roots) == {None})

