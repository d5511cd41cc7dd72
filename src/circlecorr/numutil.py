"""Circle distances and the exact close-pair threshold.

A point of [0,1) is a raw integer over a modulus: 2^P on the fixed-point
grid (P = 64 or 128), where addition modulo 2^P is addition modulo 1, or
b^k for exact van der Corput batches.  The threshold s/N^alpha is decided
exactly on every modulus: each count is taken at _exact_threshold_numerator's
floor against the modulus, an integer q-th root for alpha = p/q with a small
q, else an mpmath interval bracket (mpmath is imported only for those), and
threshold_from, report-only, rounds through it to the nearest 2^-P point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

DEFAULT_PRECISION = 64
SUPPORTED_PRECISIONS = (64, 128)
_BRACKET_DOUBLINGS = 8  # interval precisions tried before exact powers decide
_ROOT_BITS = 4096  # largest power, in bits, that _root_floor takes instead of the bracket
_POWER_BITS = 1 << 22  # largest power, in bits, that exact powers settle after the bracket
_MAX_DECIMAL_EXPONENT = 4300  # largest exponent of a decimal text read as a Fraction


def _check_precision(precision):
    if precision not in SUPPORTED_PRECISIONS:
        raise ValueError(f"precision must be one of {SUPPORTED_PRECISIONS}, got {precision}")


@dataclass(frozen=True)
class CircleDistance:
    """A distance in [0, 1/2] on the fixed-point grid."""

    value: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        _check_precision(self.precision)
        if not 0 <= self.value <= 1 << (self.precision - 1):
            raise ValueError("circle distance must lie in [0, 1/2]")

    def __float__(self):
        return self.value / (1 << self.precision)


def circle_dist_raw(a: int, b: int, modulus: int) -> int:
    """min(d, modulus - d) with d = (a - b) mod modulus."""
    d = (a - b) % modulus
    return min(d, modulus - d)


@dataclass(frozen=True)
class Threshold:
    """Fixed-point close-pair threshold s/N^alpha."""

    distance: CircleDistance
    degenerate: bool  # true when s/N^alpha >= 1/2: every pair counts


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1, by integer Newton from above the root."""
    if k > n.bit_length():  # any r >= 2 has r^k >= 2^k > n
        return min(n, 1)
    # 2^(log2(n)/k) raised by 2^-20, more than the float error while n < 2^(2^32)
    e = math.log2(n) / k
    shift = max(int(e) - 60, 0)
    r = (int(2 ** (e - shift) * (1 + 2 ** -20)) + 1) << shift
    while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = y
    return r


def _exact_root(n: int, k: int) -> Optional[int]:
    """The integer r with r^k == n (n >= 1, k >= 1), or None when there is none."""
    r = _iroot(n, k)
    return r if r ** k == n else None


def _power_bits(s: Fraction, N: int, alpha: Fraction, denominator: int) -> int:
    """About the bits of x^q written as A/B (see _root_floor), for alpha = p/q."""
    return (alpha.denominator * max(s.numerator * denominator, s.denominator).bit_length()
            + abs(alpha.numerator) * N.bit_length())


def _root_floor(s: Fraction, N: int, alpha: Fraction, denominator: int) -> Optional[int]:
    """floor(s * denominator / N^alpha) by one integer root, or None past _ROOT_BITS.

    With alpha = p/q, x^q = A/B for A = (s_n denominator)^q N^max(-p, 0) and
    B = s_d^q N^max(p, 0), and an integer k >= 0 has k <= x iff k^q <= floor(A/B).
    """
    if _power_bits(s, N, alpha, denominator) > _ROOT_BITS:
        return None
    p, q = alpha.numerator, alpha.denominator
    num = s.numerator * denominator
    return _iroot(num ** q * N ** max(-p, 0) // (s.denominator ** q * N ** max(p, 0)), q)


def _floor_bracket(s: Fraction, N: int, alpha: Fraction, denominator: int,
                   bits: int) -> tuple:
    """(floor lo, floor hi) of an interval [lo, hi] that holds s * denominator / N^alpha."""
    from mpmath import iv, ldexp  # interval arithmetic, needed only past _ROOT_BITS
    from mpmath.libmp import to_int
    saved, iv.prec = iv.prec, bits
    try:
        x = iv.mpf(s.numerator * denominator) / (
            iv.mpf(s.denominator) * iv.mpf(N) ** (iv.mpf(alpha.numerator) / alpha.denominator))
        # mpmath rounds the ends of exp and log from a few guard bits, so an
        # end may sit an ulp inside; widening by 2^8 ulps keeps x enclosed
        eps = ldexp(1, 8 - bits)
        x *= 1 + iv.mpf([-eps, eps])
    finally:
        iv.prec = saved
    return tuple(to_int(end, "f") for end in x._mpi_)


def _exact_threshold_numerator(s: Fraction, N: int, alpha: Fraction, denominator: int) -> int:
    """Largest d <= denominator with d/denominator <= s/N^alpha, decided exactly.

    That is min(denominator, floor x) for x = s * denominator / N^alpha, with
    alpha = p/q in lowest terms.  While x^q fits _ROOT_BITS, _root_floor takes
    floor x as one integer q-th root.  Past that, N^alpha is rational only for
    N = r^q, and then x = s * denominator / r^p is floored as a Fraction.
    Otherwise x is irrational, so never an integer, and an interval enclosure
    settles floor x once both ends share a floor: it starts at the bit length
    of the denominator plus 64 and doubles, so the cost grows with that, not
    with q.  Should the last doubling still straddle an integer, exact powers
    (d^q N^p against (s * denominator)^q, O(q) big-integer work) decide
    inside the bracket, so termination never rests on that distance; past
    _POWER_BITS, where that work would not end in time, it raises ValueError.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    # x below 1/2 or above twice the denominator needs no power of N: an
    # extreme alpha would otherwise raise N to a power of any size
    log_x = (math.log2(s.numerator) - math.log2(s.denominator) + math.log2(denominator)
             - float(alpha) * math.log2(N))
    if log_x < -1:
        return 0
    if log_x > math.log2(denominator) + 1:
        return denominator
    if (d := _root_floor(s, N, alpha, denominator)) is not None:
        return min(denominator, d)
    p, q = alpha.numerator, alpha.denominator
    r = _exact_root(N, q)
    if r is not None:
        x = s * denominator / Fraction(r) ** p
        return min(denominator, x.numerator // x.denominator)
    lo, hi, bits = 0, denominator, denominator.bit_length() + 64
    for _ in range(_BRACKET_DOUBLINGS):
        lo, hi = _floor_bracket(s, N, alpha, denominator, bits)
        if lo >= denominator:
            return denominator
        if lo == hi:
            return lo
        bits *= 2
    if _power_bits(s, N, alpha, denominator) > _POWER_BITS:
        raise ValueError(f"s/N^alpha at N = {N} lies too close to a grid point to round")
    # d^q N^p <= (s * denominator)^q, with N^|p| on the side that keeps it whole
    lhs = s.denominator ** q * N ** max(p, 0)
    rhs = (s.numerator * denominator) ** q * N ** max(-p, 0)
    lo, hi = max(lo, 0), min(hi, denominator)
    while lo < hi:  # max d in [lo, hi] with d/denominator <= s/N^alpha
        mid = (lo + hi + 1) // 2
        if mid ** q * lhs <= rhs:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _finite_fraction(x, name: str) -> Fraction:
    """x as an exact Fraction; a float means its binary value."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):  # an infinity or a NaN
        raise ValueError(f"{name} must be finite, got {x!r}") from None


def _decimal_fraction(text: str) -> Fraction:
    """The exact value of a decimal or p/q text, with its exponent within +-4300.

    Fraction builds the power of ten of an exponent in full, which for
    1e-100000000 takes minutes, so a larger exponent is a ValueError.
    """
    if abs(int(text.lower().partition("e")[2] or 0)) > _MAX_DECIMAL_EXPONENT:
        raise ValueError(f"{text!r}: a decimal exponent must lie within "
                         f"+-{_MAX_DECIMAL_EXPONENT}")
    return Fraction(text)


def threshold_from(s, N: int, alpha, precision=DEFAULT_PRECISION) -> Threshold:
    """Round s/N^alpha to the nearest point of the 2^P grid, decided exactly.

    A float s or alpha means its binary value.  Nearest rounding is a floor:
    for x = s 2^P / N^alpha the raw threshold is (floor(2x) + 1) // 2, and
    floor(2x) is _exact_threshold_numerator at the denominator 2^(P+1).  A
    tie (2x an odd integer, so N^alpha is rational) rounds to even.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    s, alpha = _finite_fraction(s, "s"), _finite_fraction(alpha, "alpha")
    if s <= 0:
        raise ValueError("s must be positive")
    _check_precision(precision)
    half = 1 << (precision - 1)
    twice = _exact_threshold_numerator(s, N, alpha, 2 << precision)
    if twice >= 2 * half:  # s/N^alpha >= 1/2
        return Threshold(CircleDistance(half, precision), True)
    raw = (twice + 1) // 2
    if twice & 1 and raw & 1:  # a tie would round to the odd raw; it rounds to even
        r = _exact_root(N, alpha.denominator)
        if r is not None and s * (2 << precision) == twice * Fraction(r) ** alpha.numerator:
            raw -= 1
    return Threshold(CircleDistance(raw, precision), False)
