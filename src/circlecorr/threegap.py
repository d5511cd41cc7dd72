"""Gap structure of rotation orbits: census, prediction, window large-gap counts.

The census is purely empirical (exact raw gap lengths of a sorted batch),
and the one sorted-gap routine: its smallest length is the batch's minimal
pair distance, which `verify lemma12` reads.  The prediction side derives
the admissible gap lengths of {nz}, n = 1..N, from the Ostrowski digits
of N over the exact continued fraction of the grid step z_raw / 2^P, the
rotation the orbit really takes.  The two paths stay independent so one
can verify the other.
The lemma 9 check counts from the rotation step and builds no orbit, at the
exact floor f_stat counts at; the rounded threshold_from is report-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import _lazy_module, cf as cfmod
from .numutil import (DEFAULT_PRECISION, _check_precision, _exact_threshold_numerator,
                      _finite_fraction, circle_dist_raw)
from .paircorr import rotation_count, sorted_raw
from .sequences import golden_raw, resolve_z

np = _lazy_module("numpy")


@dataclass
class GapCensus:
    """Distinct circular gap lengths (raw units) with multiplicities, ascending.

    For N >= 2 points the smallest length is their minimal pair distance:
    every gap is at least that long, and so is the circle less any one gap.

    ``gaps`` keeps the N gaps themselves in sorted-rank order: gap i runs
    from the point of rank i to that of rank i + 1 (mod N).
    """

    entries: list  # (length_raw, multiplicity)
    gaps: np.ndarray = field(repr=False, compare=False)
    has_duplicates: bool = False

    @property
    def lengths(self):
        return [length for length, _ in self.entries]


def gap_census(points) -> GapCensus:
    """Sort a batch and tally its N circular gaps by exact raw length.

    Duplicate points surface as zero-length gaps and set a flag.
    """
    a, modulus = sorted_raw(points)
    if len(a) < 2:
        raise ValueError("census needs at least two points")
    # the wrap-around gap keeps a's dtype: a uint64 value >= 2^63 given as a
    # Python int would promote the array to float64
    wrap = np.array([(int(a[0]) - int(a[-1])) % modulus], dtype=a.dtype)
    gaps = np.concatenate([np.diff(a), wrap])
    ranked = np.sort(gaps)
    # each distinct length starts where the sorted gaps change
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    mults = np.diff(np.append(starts, len(ranked)))
    entries = [(int(g), int(c)) for g, c in zip(ranked[starts], mults)]
    return GapCensus(entries, gaps, has_duplicates=entries[0][0] == 0)


def gap_classes(points) -> tuple:
    """(class per sorted-rank gap, census) with 0 = small, 1 = large, 2 = other.

    Gap i sits between sorted points of rank i and i+1 (mod N).  Classes
    come from the two smallest distinct census lengths.
    """
    census = gap_census(points)
    # every gap is one of the census lengths, so its insertion point among
    # the two smallest is its class: 0, 1, or 2 past both
    smallest = np.array(census.lengths[:2], dtype=census.gaps.dtype)
    return np.searchsorted(smallest, census.gaps).tolist(), census


@dataclass
class GapPrediction:
    """Admissible gap lengths of {nz}, n = 1..N, in raw units.

    Derived from the unique decomposition N = m q_k + q_{k-1} + r
    (1 <= m <= a_{k+1}, 0 <= r < q_k) over the best-approximation
    denominators of the grid step z_raw / 2^P: with K_l = ||q_l z||, the
    short length is K_k, the middle one K_{k-1} - m K_k (absent when
    r = 0), and the long one is their sum.
    """

    l1: int  # K_{k-1} - m K_k
    l2: int  # K_k
    l3: int  # l1 + l2
    k: int
    m: int
    r: int

    @property
    def lengths(self):
        return (self.l1, self.l2, self.l3)


def gap_decomposition(N: int, denominators) -> tuple:
    """(k, m, r) with N = m q_k + q_{k-1} + r, 1 <= m, 0 <= r < q_k.

    ``denominators`` lists q_0, q_1, ... ascending (q_{-1} = 0 implied);
    k is the unique index with q_k + q_{k-1} <= N < q_{k+1} + q_k.
    """
    q = [0] + list(denominators)  # q[j] = q_{j-1}
    k = 0
    while k + 2 < len(q) and q[k + 2] + q[k + 1] <= N:
        k += 1
    if k + 2 >= len(q):
        raise ValueError("denominator ladder too short for N")
    m, r = divmod(N - q[k], q[k + 1])
    return k, m, r


def predict_gaps(z_spec, N: int, precision: int = DEFAULT_PRECISION) -> GapPrediction:
    """Gap lengths L1, L2, L3 = L1 + L2 for the orbit {nz}, n = 1..N.

    The ladder is the exact continued fraction of the grid step
    z_raw / 2^P, the rotation a grid orbit really takes, so for every z
    each census length of the same grid points is one of L1, L2, L3.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    z_raw = resolve_z(z_spec, precision)
    modulus = 1 << precision
    denominators = cfmod.cf_expand(Fraction(z_raw, modulus)).q
    k, m, r = gap_decomposition(N, denominators)
    while True:
        q_k = denominators[k]
        q_k1 = denominators[k - 1] if k >= 1 else 0
        kk = circle_dist_raw(q_k * z_raw, 0, modulus)
        kk1 = circle_dist_raw(q_k1 * z_raw, 0, modulus) if q_k1 else modulus
        l1 = kk1 - m * kk
        if l1 > 0 or k == 0:
            break
        # tied ladder entries (q_1 = q_0) can land the decomposition one
        # index too high, collapsing L1 to zero; step down once
        k -= 1
        m, r = divmod(N - (denominators[k - 1] if k >= 1 else 0), denominators[k])
    l2 = kk
    return GapPrediction(l1, l2, l1 + l2, k, m, r)


def expected_large_gaps(k: int) -> int:
    """Digit-sum prediction sum b_i q_{i-1} for a window of k gaps.

    The Fibonacci ladder carries two unit weights (q_1 = q_2 = 1), so a
    number has several admissible digit strings.  The window count
    realizes the representation terminated at index 1: expanding the
    lowest Zeckendorf term down the ladder lowers the digit sum by one
    exactly when that term sits at an even index.  Verified exhaustively
    against brute-force window censuses up to N = 987.
    """
    rep = cfmod.golden_ostrowski(k)
    g = sum(b * q for b, q in zip(rep.coeffs, rep.shifted))
    lowest = min(i for i, _ in rep.nonzero())
    if lowest % 2 == 0:
        g -= 1
    return g


@dataclass
class Lemma9Check:
    """Per-point normalized close-neighbor count against the (s/2, 4s) bounds."""

    l: int
    count: int
    normalized: float
    lower: float
    upper: float
    passed: bool


def lemma9_bounds_check(l: int, N: int, s, alpha,
                        precision: int = DEFAULT_PRECISION) -> Lemma9Check:
    """Count m != l with ||x_l - x_m|| <= s/N^alpha in the golden orbit x_n = {n phi}.

    There are C(l - 1) + C(N - l), for C(k) = #{1 <= d <= k : ||d phi|| <= t}
    = (R(k + 1) - R(k)) / 2 and R(n) = rotation_count of the first n points,
    at t = floor(s 2^P / N^alpha), the exact threshold that f_stat counts at.
    The count is normalized by N^(1-alpha): the full statistic's N^(2-alpha)
    normalization includes the factor N of choices of l.
    """
    if not 1 <= l <= N:
        raise ValueError("need 1 <= l <= N")
    _check_precision(precision)
    step, modulus = golden_raw(precision), 1 << precision
    s, alpha = _finite_fraction(s, "s"), _finite_fraction(alpha, "alpha")
    t = _exact_threshold_numerator(s, N, alpha, modulus)
    count = sum(rotation_count(step, k + 1, t, modulus) - rotation_count(step, k, t, modulus)
                for k in (l - 1, N - l)) // 2
    normalized = count / N ** (1 - float(alpha))
    lower, upper = float(s) / 2, 4 * float(s)
    return Lemma9Check(l, count, normalized, lower, upper, lower < normalized < upper)

