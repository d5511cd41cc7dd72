"""Exact arithmetic on the unit circle.

Points of [0,1) are stored as unsigned fixed-point integers with P
fractional bits (P = 64 or 128), so addition and subtraction modulo 2^P
are addition and subtraction modulo 1.  Van der Corput points are kept
as exact rationals over a power denominator b^k instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

DEFAULT_PRECISION = 64
SUPPORTED_PRECISIONS = (64, 128)
DEFAULT_GUARD_ULPS = 4


class PrecisionMismatchError(ValueError):
    """Operands carry incompatible precision or denominators."""


def _check_precision(precision):
    if precision not in SUPPORTED_PRECISIONS:
        raise ValueError(f"precision must be one of {SUPPORTED_PRECISIONS}, got {precision}")


@dataclass(frozen=True)
class UnitPoint:
    """A point of [0,1) as value/2^precision."""

    value: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        _check_precision(self.precision)
        object.__setattr__(self, "value", self.value % (1 << self.precision))

    @property
    def modulus(self):
        return 1 << self.precision

    @classmethod
    def from_fraction(cls, frac, precision=DEFAULT_PRECISION):
        """Round-to-nearest embedding of an exact rational into the grid."""
        frac = Fraction(frac) % 1
        raw = (frac.numerator * (1 << precision) * 2 + frac.denominator) // (2 * frac.denominator)
        return cls(raw, precision)

    def to_fraction(self):
        return Fraction(self.value, self.modulus)

    def __float__(self):
        return self.value / self.modulus

    def __add__(self, other):
        if self.precision != other.precision:
            raise PrecisionMismatchError("cannot add points of different precision")
        return UnitPoint(self.value + other.value, self.precision)

    def __sub__(self, other):
        if self.precision != other.precision:
            raise PrecisionMismatchError("cannot subtract points of different precision")
        return UnitPoint(self.value - other.value, self.precision)


@dataclass(frozen=True)
class RationalPoint:
    """Exact point numerator/base**exponent of [0,1)."""

    numerator: int
    base: int
    exponent: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.exponent < 0:
            raise ValueError("exponent must be >= 0")
        if not 0 <= self.numerator < self.base ** self.exponent:
            raise ValueError("numerator out of range for denominator")

    @property
    def denominator(self):
        return self.base ** self.exponent

    def to_fraction(self):
        return Fraction(self.numerator, self.denominator)

    def to_unit_point(self, precision=DEFAULT_PRECISION):
        return UnitPoint.from_fraction(self.to_fraction(), precision)

    def rescale(self, exponent):
        """Lift to the common denominator base**exponent (exponent >= self.exponent)."""
        if exponent < self.exponent:
            raise ValueError("cannot reduce exponent")
        return RationalPoint(self.numerator * self.base ** (exponent - self.exponent),
                             self.base, exponent)


@dataclass(frozen=True)
class CircleDistance:
    """A distance in [0, 1/2] on the fixed-point grid."""

    value: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        _check_precision(self.precision)
        if not 0 <= self.value <= 1 << (self.precision - 1):
            raise ValueError("circle distance must lie in [0, 1/2]")

    def to_fraction(self):
        return Fraction(self.value, 1 << self.precision)

    def __float__(self):
        return self.value / (1 << self.precision)

    def __le__(self, other):
        return self.value <= other.value

    def __lt__(self, other):
        return self.value < other.value


def circle_dist_raw(a: int, b: int, modulus: int) -> int:
    """min(d, modulus - d) with d = (a - b) mod modulus."""
    d = (a - b) % modulus
    return min(d, modulus - d)


def circle_dist(a: UnitPoint, b: UnitPoint) -> CircleDistance:
    """Shorter-arc distance between two points of the same precision."""
    if a.precision != b.precision:
        raise PrecisionMismatchError("circle_dist requires equal precision")
    return CircleDistance(circle_dist_raw(a.value, b.value, a.modulus), a.precision)


def circle_dist_rational(a: RationalPoint, b: RationalPoint) -> Fraction:
    """Exact shorter-arc distance for points over the same power denominator."""
    if (a.base, a.exponent) != (b.base, b.exponent):
        raise PrecisionMismatchError("circle_dist_rational requires a common denominator")
    delta = abs(a.numerator - b.numerator)
    return Fraction(min(delta, a.denominator - delta), a.denominator)


@dataclass(frozen=True)
class Threshold:
    """Fixed-point close-pair threshold s/N^alpha with its guard band."""

    distance: CircleDistance
    guard_ulps: int
    degenerate: bool  # true when s/N^alpha >= 1/2: every pair counts


_MP_DPS = 80


def _as_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)


def threshold_from(s, N: int, alpha, precision=DEFAULT_PRECISION,
                   guard_ulps=DEFAULT_GUARD_ULPS) -> Threshold:
    """Round s/N^alpha to the nearest point of the 2^P grid.

    The guard band marks distance comparisons within +-guard_ulps of the
    rounded threshold as ambiguous so callers can demand zero ambiguity.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not _as_mpf(s) > 0:
        raise ValueError("s must be positive")
    _check_precision(precision)
    with mpmath.workdps(_MP_DPS):
        thr = _as_mpf(s) * mpmath.power(N, -_as_mpf(alpha))
        half = 1 << (precision - 1)
        if thr >= mpmath.mpf(1) / 2:
            return Threshold(CircleDistance(half, precision), guard_ulps, True)
        raw = int(mpmath.nint(thr * (1 << precision)))
    raw = min(raw, half)
    return Threshold(CircleDistance(raw, precision), guard_ulps, False)
