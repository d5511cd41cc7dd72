"""Close-pair counting under the circle norm and the F statistic.

All counts are ordered-pair counts (l != m counted in both directions),
exact integers.  Every fast count goes through one window kernel over a
batch's sorted values, driven by one block loop (_blocks), except rotation
batches that carry their step, which f_stat counts from the step alone by
a weighted floor sum.  On the 2^128 grid the kernel searches uint64 limbs:
the high limb places each window end, and the low limb settles it only
inside a run of equal high limbs.
f_stat counts any other fixed-point cell in one kernel pass and finds the
guard band from the points next to each window end.
The naive path tests every pair, in strips of cyclic offsets, as an
independent oracle.  Thresholds come from numutil, decided exactly: floored
against the denominator on rational batches, rounded to the nearest grid
point on fixed-point batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _lazy_module
from .numutil import (DEFAULT_GUARD_ULPS, Threshold, _exact_threshold_numerator,
                      _finite_fraction, threshold_from)
from .sequences import Batch, RationalBatch, split_limbs

np = _lazy_module("numpy")
_FULL64 = 1 << 64
_FULL128 = 1 << 128
_MASK64 = _FULL64 - 1
_BLOCK = 1 << 13  # queries per window-kernel step, which bounds its temporaries
# distance cells per pair_count_naive strip: below N = 4096 each buffer stays
# under glibc's 128 KB mmap threshold and comes from the heap, not from its own
# mapping; glibc may still trim the freed heap top between calls, so a later
# call can fault its buffers in again
_STRIP_CELLS = 3 << 12


# --- naive oracle ----------------------------------------------------------


def pair_count_naive(points, threshold_raw: int, modulus: Optional[int] = None) -> int:
    """O(N^2) ordered count of pairs with circle distance <= threshold.

    ``points`` is a batch or a plain sequence of raw integers in
    [0, modulus) (then ``modulus`` is required).  One formula serves every
    modulus: |x - y| = max(x, y) - min(x, y) never wraps, on uint64 up to
    2^64 and on object arrays above, and a pair is close iff |x - y| <= t,
    or t > 0 and |x - y| >= modulus - t.

    Pairs are enumerated by cyclic offset: with S_k the number of i with
    a[i] close to a[(i + k) mod N], and S_k = S_(N-k), the ordered count is
    2 (S_1 + ... + S_h) for h = N // 2, less S_h when N is even.  A strip of
    offsets lies in rows of N + 1 cells: a ++ [a[0]] tiled once per row
    against a contiguous slice of a tiled, so no operand is broadcast; the
    extra column repeats column 0 and is subtracted.  Buffers of about
    _STRIP_CELLS cells are allocated once per call, so memory stays O(N)
    beyond N = _STRIP_CELLS.  Kept deliberately independent of the window
    kernel: no sort and no search.
    """
    if modulus is None:
        raw, modulus = points.raw, points.modulus
    else:
        raw = points
    n = len(raw)
    if n < 2:
        return 0
    t = threshold_raw
    if 2 * t >= modulus:
        return n * (n - 1)
    a = np.asarray(raw, dtype=object if modulus > _FULL64 else np.uint64)
    half, width = n // 2, n + 1
    rows = max(1, min(half, _STRIP_CELLS // width))
    x = np.tile(np.concatenate([a, a[:1]]), rows)
    # row r of the strip at offset k is shifted[k + r (N + 1):][:N] = a rotated
    # by k + r; k + rows <= N, so rows + 1 copies hold every slice
    shifted = np.tile(a, rows + 1)
    dist, low = np.empty_like(x), np.empty_like(x)
    close, far = np.empty(len(x), bool), np.empty(len(x), bool)
    total = 0
    for k in range(1, half + 1, rows):
        cells = min(rows, half + 1 - k) * width
        y, d, c = shifted[k:k + cells], dist[:cells], close[:cells]
        np.maximum(x[:cells], y, out=d)
        d -= np.minimum(x[:cells], y, out=low[:cells])
        np.less_equal(d, t, out=c)
        if t:  # modulus - t fits in uint64 once t >= 1
            c |= np.greater_equal(d, modulus - t, out=far[:cells])
        total += np.count_nonzero(c) - np.count_nonzero(c[n::width])
    if n % 2 == 0:  # the last row, offset N/2, is its own mirror
        return 2 * total - np.count_nonzero(c[cells - width:cells - 1])
    return 2 * total


# --- the window kernel -----------------------------------------------------
#
# The kernel searches sorted keys.  A key is a pair (high, low): on every
# modulus but 2^128, high is the raw array (uint64 up to 2^64, Python ints
# above) and low is None; on the 2^128 grid, high and low are the uint64
# limbs of x = high * 2^64 + low, so that grid never needs Python ints.


def _keys(values, modulus: int) -> tuple:
    """Search keys of raw values in [0, modulus)."""
    return split_limbs(values) if modulus == _FULL128 else (values, None)


def _take(x: tuple, index) -> tuple:
    high, low = x
    return high[index], None if low is None else low[index]


def _shift(x: tuple, c: int, modulus: int) -> tuple:
    """x + c mod modulus, for keys x and an integer c with |c| < modulus / 2."""
    high, low = x
    if low is not None:  # the limbs wrap mod 2^128 on their own
        c %= modulus
        total = low + np.uint64(c & _MASK64)
        return high + np.uint64(c >> 64) + (total < low), total
    # a value that would pass 0 or the modulus is recomputed from the
    # complementary offset, which fits uint64 on every modulus up to 2^64
    d, top = abs(c), modulus - 1 - abs(c)
    if c > 0:
        wraps, y = high > top, high + d
        y[wraps] = high[wraps] - top - 1
    else:
        wraps, y = high < d, high - d
        y[wraps] = high[wraps] + top + 1
    return y, None


def _below(x: tuple, c: int) -> np.ndarray:
    """x < c elementwise, for keys x and an integer c >= 0."""
    high, low = x
    if low is None:
        return high < c
    return (high < c >> 64) | ((high == c >> 64) & (low < c & _MASK64))


def _search(a: tuple, key: tuple, side: str) -> np.ndarray:
    """Insertion points of the keys in the sorted keys a, comparing whole values."""
    high, low = a
    if low is None:
        return np.searchsorted(high, key[0], side)
    # the high limb places every key up to the run of equal high limbs, and
    # the low limb then decides inside that run, by bisection on all at once
    pos = np.searchsorted(high, key[0])
    run = np.flatnonzero(high[np.minimum(pos, len(high) - 1)] == key[0])
    start, stop = pos[run], np.searchsorted(high, key[0][run], "right")
    want = key[1][run]
    while (unsettled := start < stop).any():
        mid = (start + stop) // 2
        value = low[np.minimum(mid, len(low) - 1)]
        past = unsettled & ((value <= want) if side == "right" else (value < want))
        start = np.where(past, mid + 1, start)
        stop = np.where(unsettled & ~past, mid, stop)
    pos[run] = start
    return pos


def _window(a: tuple, queries: tuple, t: int, modulus: int) -> tuple:
    """(counts, left, right): the points of a within circle distance t of each query.

    The window [x - t, x + t] of a query x holds the sorted points left ..
    right - 1, read cyclically: it runs past the end of a when it wraps past
    0 or the modulus.  A query that is itself a point of a counts itself.
    left and right are None when 2t >= modulus and every point counts.
    """
    n = len(a[0])
    if n == 0 or 2 * t >= modulus:
        return np.full(len(queries[0]), n, dtype=np.int64), None, None
    left = _search(a, _shift(queries, -t, modulus), "left")
    right = _search(a, _shift(queries, t, modulus), "right")
    counts = right - left
    counts[_below(queries, t) | ~_below(queries, modulus - t)] += n
    return counts, left, right


def _blocks(a: tuple, t: int, modulus: int):
    """_window's (queries, counts, left, right) for each _BLOCK slice of a, queried against a."""
    for i in range(0, len(a[0]), _BLOCK):
        queries = _take(a, slice(i, i + _BLOCK))
        yield (queries, *_window(a, queries, t, modulus))


def _minus(y: tuple, x: tuple) -> tuple:
    """y - x on the 2^64 or 2^128 grid, where the keys wrap on their own."""
    if y[1] is None:
        return y[0] - x[0], None
    return y[0] - x[0] - (y[1] < x[1]), y[1] - x[1]


def _near_band(a: tuple, queries: tuple, left, right, t: int, g: int) -> np.ndarray:
    """Queries with a point at circle distance within [t - g, t + g], for t > g.

    Distance grows monotonically from a query to each end of its window at
    t, so the points just inside and just outside both ends tell.  For the
    2^64 and 2^128 grids.
    """
    n = len(a[0])
    inside, outside = _take(a, (right - 1) % n), _take(a, right % n)
    near = ~_below(_minus(inside, queries), t - g) | _below(_minus(outside, queries), t + g + 1)
    inside, outside = _take(a, left % n), _take(a, (left - 1) % n)
    near |= ~_below(_minus(queries, inside), t - g) | _below(_minus(queries, outside), t + g + 1)
    return near


def _guarded_counts(a: tuple, t: int, g: int, modulus: int) -> tuple:
    """(ordered count at t, ambiguous pairs) of the sorted keys a of a fixed-point batch.

    Ambiguous pairs lie within +-g of t: the ordered count at
    min(t + g, modulus // 2) less that at t - g - 1.  One kernel pass at t
    counts every query; only the queries _near_band finds are recounted at
    the two band ends.  With t <= g, or a window over the whole circle,
    every query is.
    """
    n = len(a[0])
    top, low = min(t + g, modulus // 2), t - g - 1
    count = ambiguous = 0
    for queries, counts, left, right in _blocks(a, t, modulus):
        count += int(counts.sum())
        if low >= 0 and left is not None:
            queries = _take(queries, _near_band(a, queries, left, right, t, g))
        ambiguous += int(_window(a, queries, top, modulus)[0].sum())
        # with t <= g the band reaches distance 0: only each query's self-count is below it
        ambiguous -= int(_window(a, queries, low, modulus)[0].sum()) if low >= 0 \
            else len(queries[0])
    return count - n, ambiguous


def _floor_sums(a: int, b: int, c: int, n: int) -> tuple:
    """(sum f, sum i f, sum f^2) over i = 0 .. n of f = floor((a i + b) / c).

    For any integers a and b, n >= 0 and c >= 1.  After taking the quotients
    of a and b by c out, the reduced f is below m = floor((a n + b) / c),
    and counting the j < m under it swaps the roles of a and c (the
    reciprocity of Concrete Mathematics, 3.5), so Euclid's steps bound the
    depth: O(log c) frames of Python-int arithmetic.
    """
    qa, a = divmod(a, c)
    qb, b = divmod(b, c)
    m = (a * n + b) // c
    f = g = h = 0
    if m:
        f1, g1, h1 = _floor_sums(c, c - b - 1, a, m - 1)
        f = n * m - f1
        g = (m * n * (n + 1) - h1 - f1) // 2
        h = n * m * (m + 1) - 2 * (g1 + f1) - f
    s1, s2 = n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
    return (f + qa * s1 + qb * (n + 1), g + qa * s2 + qb * s1,
            h + qa * qa * s2 + qb * qb * (n + 1) + 2 * (qa * qb * s1 + qb * f + qa * g))


def rotation_count(step: int, n: int, t: int, modulus: int) -> int:
    """Ordered count of pairs within circle distance t among x_i = x_0 + i step mod M.

    ||x_i - x_j|| = ||(i - j) z|| for z = step, and for 2t < M
    [||d z|| <= t] = floor((d z + t)/M) - floor((d z + M - t - 1)/M) + 1, so
    the count 2 sum_{d=1}^{n-1} (n - d) [||d z|| <= t] is two weighted floor
    sums plus n (n - 1): O(log M) steps, with no points.  The step may be any
    integer, since _floor_sums first reduces it mod M.  t < 0 counts 0,
    2t >= M every pair.
    """
    if t < 0 or n < 2:
        return 0
    if 2 * t >= modulus:
        return n * (n - 1)
    # over d = 0 .. n - 1, sum (n - d) floor(...) = n sum f - sum d f; d = 0 adds 0
    f, g, _ = _floor_sums(step, t, modulus, n - 1)
    f_far, g_far, _ = _floor_sums(step, modulus - t - 1, modulus, n - 1)
    return 2 * (n * (f - f_far) - (g - g_far)) + n * (n - 1)


def sorted_raw(points):
    """(sorted raw values, modulus) of a batch; the sort is done once per batch."""
    return points.sorted(), points.modulus


def _sorted_keys(batch) -> tuple:
    """The batch's sorted search keys: limbs on the 2^128 grid, else the sorted raw array."""
    return batch.limbs() if batch.modulus == _FULL128 else (batch.sorted(), None)


def pair_count_fast(points, threshold_raw: int, modulus: Optional[int] = None,
                    presorted=None) -> int:
    """Ordered close-pair count via the window kernel; equals the naive count.

    ``points`` is a batch, or raw values in [0, modulus) with an explicit
    ``modulus``; ``presorted`` passes their sorted array directly.
    """
    if presorted is not None:
        if modulus is None:
            raise ValueError("presorted input requires an explicit modulus")
        a = _keys(presorted, modulus)
    else:
        batch = points if modulus is None else Batch(points, modulus)
        a, modulus = _sorted_keys(batch), batch.modulus
    return sum(int(c.sum()) for _, c, _, _ in _blocks(a, threshold_raw, modulus)) - len(a[0])


def per_point_counts(a_sorted: np.ndarray, threshold_raw: int, modulus: int) -> np.ndarray:
    """Neighbors within the threshold of each sorted point (its ordered count share)."""
    shares = np.empty(len(a_sorted), dtype=np.int64)
    blocks = _blocks(_keys(a_sorted, modulus), threshold_raw, modulus)
    for i, (_, counts, _, _) in enumerate(blocks):
        shares[i * _BLOCK:(i + 1) * _BLOCK] = counts - 1  # each point counts itself
    return shares


# --- the F statistic -------------------------------------------------------


@dataclass
class PairCountResult:
    """Exact ordered close-pair count with its normalized statistic."""

    n: int
    alpha: float
    s: float
    threshold: Threshold
    ordered_pair_count: int
    ambiguous_pairs: int

    @property
    def f_value(self) -> float:
        """count / N^(2 - alpha): 0.0 where that underflows, inf where it overflows."""
        try:
            scale = self.n ** (2 - self.alpha)
        except OverflowError:  # N^(2 - alpha) is past the float range
            return 0.0
        if scale == 0:  # N^(2 - alpha) underflowed
            return math.inf if self.ordered_pair_count else 0.0
        return self.ordered_pair_count / scale


def f_stat(points, s, alpha, guard_ulps=DEFAULT_GUARD_ULPS) -> PairCountResult:
    """Ordered count of pairs with ||x_l - x_m|| <= s/N^alpha, and F = count/N^(2-alpha).

    s and alpha are read once as exact Fractions, the same on every batch: a
    float means its binary value (0.1 is 3602879701896397/2^55), not 1/10.
    Rational batches are counted with exact integer comparisons against the
    exact threshold (no guard band); fixed-point batches use the rounded
    threshold and tally pairs within +-guard_ulps of it as ambiguous.
    A rotation batch, which carries its step (every Kronecker batch built
    by sequences does), is counted from that step by rotation_count, with no
    pass over the points; every other fixed-point batch by one window-kernel
    pass whose window ends show the few queries that need recounting for
    the band.
    """
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    if guard_ulps < 0:
        raise ValueError("the guard band must be >= 0 ulps")
    s_f, alpha_f = _finite_fraction(s, "s"), _finite_fraction(alpha, "alpha")
    if isinstance(points, RationalBatch):
        d_max = _exact_threshold_numerator(s_f, n, alpha_f, points.modulus)
        count = pair_count_fast(points, min(d_max, points.modulus // 2))
        thr = threshold_from(s_f, n, alpha_f, precision=64)
        return PairCountResult(n, float(alpha), float(s), thr, count, 0)
    thr = threshold_from(s_f, n, alpha_f, precision=points.precision)
    t = thr.distance.value
    if thr.degenerate:
        return PairCountResult(n, float(alpha), float(s), thr, n * (n - 1), 0)
    g, modulus, step = guard_ulps, points.modulus, points.step
    if step is None:
        count, ambiguous = _guarded_counts(_sorted_keys(points), t, g, modulus)
    else:  # the count at t, then the guard band's ends t + g and t - g - 1
        count = rotation_count(step, n, t, modulus)
        ambiguous = (rotation_count(step, n, t + g, modulus)
                     - rotation_count(step, n, t - g - 1, modulus))
    return PairCountResult(n, float(alpha), float(s), thr, count, ambiguous)


def f_stat_profile(batch, n_list: Sequence[int], alpha_list, s_list,
                   guard_ulps=DEFAULT_GUARD_ULPS):
    """Evaluate f_stat on prefixes of one batch, cell by cell.

    Results come back in (N, alpha, s) lexicographic order; every N is in [2, len(batch)].
    """
    n_list = list(n_list)
    if any(b > a for a, b in zip(n_list[1:], n_list)):
        raise ValueError("n_list must be ascending")
    if n_list and not 2 <= n_list[0] <= n_list[-1] <= len(batch):
        raise ValueError(f"N in {n_list} outside [2, {len(batch)}], the batch's size")
    results = []
    for n in n_list:
        prefix = batch.prefix(n)
        for alpha in alpha_list:
            for s in s_list:
                results.append(f_stat(prefix, s, alpha, guard_ulps=guard_ulps))
    return results

