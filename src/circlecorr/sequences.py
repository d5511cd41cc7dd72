"""Point families on the unit circle.

Supported kinds: van der Corput in base b (exact rational batches),
Kronecker rotations {n z} (golden mean or user-supplied z), {sqrt(n)},
and seeded i.i.d. uniform points on the fixed-point grid.
"""

from __future__ import annotations

import copy
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import _lazy_module
from .numutil import DEFAULT_PRECISION, _check_precision, _decimal_fraction

np = _lazy_module("numpy")
# floor(frac(phi) * 2^192); frac(phi) = (sqrt(5) - 1) / 2
_GOLDEN_BITS = 192
_GOLDEN_FRAC_192 = (math.isqrt(5 << (2 * _GOLDEN_BITS)) - (1 << _GOLDEN_BITS)) // 2

_U64_LIMIT = 1 << 64
_MASK64 = _U64_LIMIT - 1
_LIMB_BLOCK = 1 << 12  # values split or joined at once, which bounds the temporaries
_RANDBYTES_BLOCK = 1 << 27  # bytes per randbytes call (whole 32-bit words, below its 2^28 limit)


def _nearest_raw(num, den: int, precision: int):
    """{num/den} rounded half up to the nearest point of the 2^P grid, as a raw value.

    num is an int, or an object array of ints rounded elementwise.
    """
    return (num * (2 << precision) + den) // (2 * den) % (1 << precision)


def golden_raw(precision=DEFAULT_PRECISION) -> int:
    """frac(phi) rounded to the nearest P-bit grid point."""
    return _nearest_raw(_GOLDEN_FRAC_192, 1 << _GOLDEN_BITS, precision)


def resolve_z(z_spec, precision=DEFAULT_PRECISION) -> int:
    """Turn a rotation spec into a P-bit raw value of {z}.

    Accepts "golden", an exact Fraction (or "p/q" string), a decimal
    literal string with enough digits to pin down P+8 bits, or a raw
    integer already on the grid.
    """
    if z_spec == "golden":
        return golden_raw(precision)
    if isinstance(z_spec, int):
        return z_spec % (1 << precision)
    if isinstance(z_spec, str):
        # p/q, or an integer with no point or exponent, is exact as typed
        exact = "/" in z_spec or re.fullmatch(r"[+-]?\d+", z_spec)
        # the digits after the point and before any exponent
        frac_digits = sum(ch.isdigit() for ch in z_spec.lower().partition("e")[0].partition(".")[2])
        if not exact and frac_digits * math.log2(10) < precision + 8:
            raise ValueError(
                f"decimal z needs >= {math.ceil((precision + 8) / math.log2(10))} "
                f"fractional digits for precision {precision}, got {frac_digits}")
        z_spec = _decimal_fraction(z_spec)
    if not isinstance(z_spec, Fraction):
        raise TypeError(f"unsupported z spec: {z_spec!r}")
    return _nearest_raw(z_spec.numerator, z_spec.denominator, precision)


@dataclass
class SequenceSpec:
    """Declarative description of a point family."""

    kind: str  # vdc | kronecker | sqrt_frac | iid
    base: int = 2
    include_zero: bool = True
    z_spec: Union[str, int, Fraction] = "golden"
    seed: int = 0
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.kind not in ("vdc", "kronecker", "sqrt_frac", "iid"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "vdc" and self.base < 2:
            raise ValueError("vdc base must be >= 2")
        _check_precision(self.precision)


def split_limbs(values) -> tuple:
    """(high, low) uint64 limbs of integers below 2^128: v = high * 2^64 + low."""
    values = np.asarray(values, dtype=object)
    high, low = np.empty(len(values), dtype=np.uint64), np.empty(len(values), dtype=np.uint64)
    for i in range(0, len(values), _LIMB_BLOCK):
        block = values[i:i + _LIMB_BLOCK]
        high[i:i + _LIMB_BLOCK], low[i:i + _LIMB_BLOCK] = block >> 64, block & _MASK64
    return high, low


def join_limbs(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The integers high * 2^64 + low of two uint64 limb arrays, as Python ints."""
    values = np.empty(len(high), dtype=object)
    for i in range(0, len(high), _LIMB_BLOCK):
        values[i:i + _LIMB_BLOCK] = (high[i:i + _LIMB_BLOCK].astype(object) << 64
                                     | low[i:i + _LIMB_BLOCK].astype(object))
    return values


class Batch:
    """Raw points raw[i] / modulus with a sorted view computed once.

    ``raw`` is one numpy array: uint64 when the modulus is at most 2^64,
    Python ints (dtype=object) above that.  Values lie in [0, modulus) and
    are not modified after construction, so the sorted views stay valid.
    A batch given in a compact form (the (high, low) limbs of ``split()``,
    or a rotation step) builds ``raw`` by ``_build`` only when it is read.
    Its sorted views sort a fresh build in place and keep only the sorted
    copy, so a sort never holds the unsorted points as well.
    ``size`` is the number of points; len() holds it only below 2^63.
    """

    step = None
    error = 0  # ulps by which a pair's grid distance may miss the true points' distance

    def __init__(self, raw, modulus: int):
        self.modulus = modulus
        self._raw = self._split = self._sorted = self._limbs = None
        if raw is not None:
            self._raw = np.asarray(raw, dtype=np.uint64 if modulus <= _U64_LIMIT else object)
            self.size = len(self._raw)

    def __len__(self):
        return self.size

    @property
    def raw(self) -> np.ndarray:
        if self._raw is None:
            self._raw = self._build()
        return self._raw

    def _build(self) -> np.ndarray:
        return join_limbs(*self._split)

    def sorted(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = self._build() if self._raw is None else self._raw.copy()
            self._sorted.sort()
        return self._sorted

    def split(self) -> tuple:
        """raw as (high, low) uint64 limbs, for values below 2^128; computed once."""
        if self._split is None:
            self._split = split_limbs(self.raw)
        return self._split

    def limbs(self) -> tuple:
        """The sorted values as (high, low) uint64 limbs, for values below 2^128.

        Sorted once per batch, by the high limb and then by the low limb
        only inside runs of equal high limbs, with no sort of Python ints.
        Limbs that are not yet split are split from a fresh copy and not kept.
        """
        if self._limbs is None:
            high, low = self._split or split_limbs(self._build() if self._raw is None
                                                   else self._raw)
            order = np.argsort(high)
            high, low = high[order], low[order]
            tied = np.zeros(len(high) + 1, dtype=bool)  # tied[i]: high[i - 1] == high[i]
            np.equal(high[1:], high[:-1], out=tied[1:-1])
            tied = np.flatnonzero(tied[1:] | tied[:-1])  # every position in a run of ties
            # the runs of equal high limbs keep their high limb, and sort by low
            low[tied] = low[tied[np.lexsort((low[tied], high[tied]))]]
            self._limbs = high, low
        return self._limbs

    def prefix(self, n: int):
        """The first n points, as a batch of the same kind; slices only what is built."""
        if not 0 <= n <= self.size:
            raise ValueError(f"a prefix of {n} points is outside [0, {self.size}], "
                             "the batch's size")
        head = copy.copy(self)
        head.size = n
        head._sorted = head._limbs = None
        if self._raw is not None:
            head._raw = self._raw[:n]
        if self._split is not None:
            head._split = tuple(limb[:n] for limb in self._split)
        return head


class FixedBatch(Batch):
    """Points on the 2^P grid."""

    def __init__(self, precision: int, raw):
        self.precision = precision
        super().__init__(raw, 1 << precision)

    @classmethod
    def from_limbs(cls, precision: int, limbs: np.ndarray):
        """Points given as an (N, P/64) array of uint64 limbs, low limb first."""
        if precision == 64:
            return cls(64, limbs[:, 0])
        low, high = limbs.T
        batch = cls(precision, None)
        batch.size, batch._split = len(limbs), (high, low)  # raw is joined only when read
        return batch


def iid_uniform(count: int, seed: int, precision=DEFAULT_PRECISION) -> FixedBatch:
    """Seeded uniform draws on the 2^P grid; deterministic for a fixed seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    # randbytes(k) is getrandbits(8 k) in little-endian bytes, so its uint64 limbs, low
    # limb first, are the values getrandbits(P) draws in turn; successive blocks are one draw
    rng, size, block = random.Random(seed), count * precision // 8, _RANDBYTES_BLOCK
    data = np.empty(size, dtype=np.uint8)  # a batch past memory fails here, before any draw
    for i in range(0, size, block):
        data[i:i + block] = np.frombuffer(rng.randbytes(min(block, size - i)), dtype=np.uint8)
    return FixedBatch.from_limbs(precision, data.view("<u8").reshape(count, precision // 64))


class RationalBatch(Batch):
    """van der Corput points phi_b(n), n = first .. first+N-1, exact over b^k (k digits in
    the last index), built only when read: paircorr.vdc_count counts them from N's digits."""

    def __init__(self, base: int, first: int, n: int, precision=DEFAULT_PRECISION):
        k, top = 0, first + n - 1
        while top:  # k = the number of base-b digits of the largest index
            k, top = k + 1, top // base
        super().__init__(None, base ** k)
        self.base, self.exponent, self.first, self.size = base, k, first, n
        self.precision = precision  # the grid f_stat reports its threshold on; it decides no count

    def _build(self) -> np.ndarray:
        # reverse the k base-b digits of every index at once, lowest digit first
        n = np.arange(self.first, self.first + self.size,
                      dtype=np.uint64 if self.modulus < _U64_LIMIT else object)
        nums = np.zeros_like(n)
        for _ in range(self.exponent):
            nums = nums * self.base + n % self.base
            n = n // self.base
        return np.asarray(nums, dtype=np.uint64 if self.modulus <= _U64_LIMIT else object)

    def to_fixed(self, precision=DEFAULT_PRECISION) -> FixedBatch:
        nums = self.raw.astype(object)  # the scaled numerators exceed 64 bits
        fixed = FixedBatch(precision, _nearest_raw(nums, self.modulus, precision))
        fixed.error = 1  # each point is rounded by up to 1/2 ulp
        return fixed


class RotationBatch(FixedBatch):
    """Points {n z} for n = first .. first+N-1 on the 2^P grid, built when first read.

    Holds only the start, the step z and N until something reads ``raw``,
    so a count from the step (paircorr.rotation_count) never builds them.
    ``prefix`` shortens N in O(1), and slices what is already built.
    """

    step_error = 0  # ulps between the step and the z 2^P it stands for

    def __init__(self, precision: int, step: int, first: int, n: int):
        super().__init__(precision, None)
        self.step, self.first, self.size = step, first, n

    @property
    def error(self):
        """A pair at lag d < N is off by at most d times the step's error."""
        return (self.size - 1) * self.step_error

    def _build(self) -> np.ndarray:
        first, n, z = self.first, self.size, self.step
        if self.precision == 64:  # uint64 products wrap mod 2^64
            points = np.arange(first, first + n, dtype=np.uint64)
            points *= np.uint64(z)
            return points
        return np.arange(first, first + n, dtype=object) * z % self.modulus


def generate(spec: SequenceSpec, N: int, start: int = 0) -> Batch:
    """First N points of the family described by spec.

    For vdc the batch is exact over the common denominator b^k (k = digits
    of the largest index) in every base, and built only when read.
    `start` offsets the index range: kronecker gives n = start .. start+N-1,
    sqrt_frac n = start+1 .. start+N; vdc and iid take none.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if start and spec.kind in ("vdc", "iid"):
        raise ValueError(f"{spec.kind} takes no start index, got {start}")
    if spec.kind == "vdc":
        return RationalBatch(spec.base, int(not spec.include_zero), N, spec.precision)
    if spec.kind == "kronecker":
        return kronecker_orbit(spec.z_spec, N, spec.precision, first=start)
    if spec.kind == "sqrt_frac":
        # floor(sqrt(n) 2^P) mod 2^P is floor({sqrt n} 2^P): 0 on perfect squares
        P = spec.precision
        batch = FixedBatch(P, [math.isqrt(n << 2 * P) & ((1 << P) - 1)
                               for n in range(start + 1, start + N + 1)])
        batch.error = 1  # each point is floored by less than 1 ulp
        return batch
    return iid_uniform(N, spec.seed, spec.precision)


def kronecker_orbit(z_spec, N: int, precision=DEFAULT_PRECISION,
                    first: int = 1) -> RotationBatch:
    """Points {n z} for n = first .. first+N-1 (default starts at n=1).

    The batch holds z, the start and N, and builds its points only when
    something reads them.
    """
    orbit = RotationBatch(precision, resolve_z(z_spec, precision), first, N)
    if z_spec == "golden":  # golden_raw rounds the floor of frac(phi) 2^192 to P bits
        orbit.step_error = Fraction(1, 2) + Fraction(1, 1 << (_GOLDEN_BITS - precision))
    elif not isinstance(z_spec, int):  # a raw integer is on the grid; any other z is rounded
        orbit.step_error = Fraction(1, 2)
    return orbit
