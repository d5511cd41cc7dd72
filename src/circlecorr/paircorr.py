"""Close-pair counting under the circle norm and the F statistic.

All counts are ordered-pair counts (l != m counted in both directions),
exact integers.  Every fast count goes through one window kernel over a
batch's sorted values, in blocks of queries (_blocks), except that f_stat
counts a rotation from its step and a van der Corput batch from N's digits,
by floor sums with no points.  A total count makes one search per point, for the
end of its forward window [x, x + t]; per-point counts search both ends.
On the 2^128 grid the kernel searches uint64 limbs: the high limb places
each window end, and the low limb settles it only inside a run of equal
high limbs.
f_stat decides every count against the exact s/N^alpha, floored to t on
the batch's own modulus by numutil; a batch whose points carry an error
of g ulps is also counted at t - g and t + g, to bracket the true count.
The threshold it reports is s/N^alpha rounded to the 2^-P grid.
The naive path tests every pair, in strips of cyclic offsets, as an
independent oracle: one wrapped subtraction per pair on the 2^64 grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _lazy_module
from .numutil import (DEFAULT_PRECISION, Threshold, _exact_threshold_numerator, _finite_fraction,
                      threshold_from)
from .sequences import Batch, VdcBatch, split_limbs

np = _lazy_module("numpy")
_FULL64 = 1 << 64
_FULL128 = 1 << 128
_MASK64 = _FULL64 - 1
_BLOCK = 1 << 13  # queries per window-kernel step, which bounds its temporaries
# bytes per pair_count_naive strip buffer (3 x 2^12 uint64 cells): below
# N = 4096 uint64 points (16384 uint16) each buffer stays under glibc's 128 KB
# mmap threshold and comes from the heap, not from its own mapping; glibc may
# still trim the freed heap top between calls, so a later call can fault its
# buffers in again, and an unused buffer makes that likelier
_STRIP_BYTES = 3 << 15


# --- naive oracle ----------------------------------------------------------


def pair_count_naive(points, threshold_raw: int, modulus: Optional[int] = None) -> int:
    """O(N^2) ordered count of pairs with circle distance <= threshold.

    ``points`` is a batch or a plain sequence of raw integers in
    [0, modulus) (then ``modulus`` is required).  On the 2^64 grid a pair
    is close iff (x + t - y) mod 2^64 <= 2t: one uint64 subtraction
    against x + t, which wraps on its own.  Every other modulus keeps one
    formula in the narrowest unsigned dtype that holds it (object arrays
    above 2^64): |x - y| = max(x, y) - min(x, y) never wraps, and a pair is
    close iff |x - y| <= t, or t > 0 and |x - y| >= modulus - t.

    Pairs are enumerated by cyclic offset: with S_k the number of i with
    a[i] close to a[(i + k) mod N], and S_k = S_(N-k), the ordered count is
    2 (S_1 + ... + S_h) for h = N // 2, less S_h when N is even.  A strip of
    offsets lies in rows of N + 1 cells: a ++ [a[0]] tiled once per row
    against a contiguous slice of a tiled, so no operand is broadcast.  The
    extra column repeats column 0, pairing a[0] with a[k] at offset k, so
    it is subtracted once per call.  Buffers of about _STRIP_BYTES bytes
    are allocated once per call, so memory stays O(N) beyond one offset
    per strip.  Kept deliberately independent of the window kernel: no
    sort and no search.
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
    wrapped = modulus == _FULL64
    a = np.asarray(raw, dtype=np.uint64 if wrapped else np.min_scalar_type(modulus))
    half, width = n // 2, n + 1
    rows = max(1, min(half, _STRIP_BYTES // (width * a.itemsize)))
    x = np.tile(np.concatenate([a, a[:1]]), rows)
    # row r of the strip at offset k is shifted[k + r (N + 1):][:N] = a rotated
    # by k + r; k + rows <= N, so rows + 1 copies hold every slice
    shifted = np.tile(a, rows + 1)
    dist, near = np.empty_like(x), np.empty(len(x), bool)
    if wrapped:
        x += np.uint64(t)
    else:  # only the |x - y| formula needs a second pair of buffers
        low, far = np.empty_like(x), np.empty(len(x), bool)

    def close(x, y) -> int:
        """The number of cells where x and y are close; on the 2^64 grid x holds x + t."""
        d, c = dist[:len(y)], near[:len(y)]
        if wrapped:
            return int(np.count_nonzero(np.less_equal(np.subtract(x, y, out=d), 2 * t, out=c)))
        np.maximum(x, y, out=d)
        d -= np.minimum(x, y, out=low[:len(y)])
        np.less_equal(d, t, out=c)
        if t:  # modulus - t fits the dtype once t >= 1
            c |= np.greater_equal(d, modulus - t, out=far[:len(y)])
        return int(np.count_nonzero(c))

    total = -close(x[n], a[1:half + 1])  # the extra column, once per call
    for k in range(1, half + 1, rows):
        cells = min(rows, half + 1 - k) * width
        total += close(x[:cells], shifted[k:k + cells])
    if n % 2 == 0:  # the offset N/2 is its own mirror
        return 2 * total - close(x[:n], shifted[half:half + n])
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


def _window(a: tuple, queries: tuple, t: int, modulus: int) -> np.ndarray:
    """The number of points of a within circle distance t of each query.

    The window [x - t, x + t] of a query x holds the sorted points left ..
    right - 1, read cyclically: it runs past the end of a when it wraps past
    0 or the modulus.  A query that is itself a point of a counts itself.
    Two searches per query, one per window end.
    """
    n = len(a[0])
    if n == 0 or 2 * t >= modulus:
        return np.full(len(queries[0]), n, dtype=np.int64)
    counts = _search(a, _shift(queries, t, modulus), "right")
    counts -= _search(a, _shift(queries, -t, modulus), "left")
    counts[_below(queries, t) | ~_below(queries, modulus - t)] += n
    return counts


def _blocks(a: tuple):
    """Each _BLOCK slice of the sorted keys a, to be queried against all of a."""
    for i in range(0, len(a[0]), _BLOCK):
        yield _take(a, slice(i, i + _BLOCK))


def _ordered_count(a: tuple, t: int, modulus: int) -> int:
    """Ordered count of pairs within circle distance t among the N sorted keys a.

    Let R_i be point i's forward window end, so that, read cyclically, the
    points i + 1 .. R_i - 1 lie within forward distance t past point i: one
    search for x_i + t, with N added when that window wraps past the
    modulus.  With 2t < modulus a close pair of distinct points lies within
    forward distance t in one direction only, and of two equal points only
    the later lies past the earlier, so each close unordered pair is counted
    once and the ordered count is 2 sum (R_i - i - 1) = 2 sum R_i - N (N + 1):
    runs of equal keys need no term of their own.
    """
    n = len(a[0])
    if t < 0:
        return 0
    if 2 * t >= modulus:
        return n * (n - 1)
    total = 0
    for queries in _blocks(a):
        total += int(_search(a, _shift(queries, t, modulus), "right").sum())
        total += n * int(np.count_nonzero(~_below(queries, modulus - t)))
    return 2 * total - n * (n + 1)


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


def _window_sums(a: int, y: int, h: int, n: int, t: int) -> tuple:
    """(sum W, sum i W) over i = 0 .. n of W(y + a i), for the number
    W(x) = floor((x + t)/h) - floor((x - t - 1)/h) of multiples of h within t of x."""
    f, g, _ = _floor_sums(a, y + t, h, n)
    f_far, g_far, _ = _floor_sums(a, y - t - 1, h, n)
    return f - f_far, g - g_far


def rotation_count(step: int, n: int, t: int, modulus: int) -> int:
    """Ordered count of pairs within circle distance t among x_i = x_0 + i step mod M.

    ||x_i - x_j|| = ||(i - j) z|| for z = step, and for 2t < M a pair at lag
    d is close iff W(d z) = 1 (_window_sums, h = M), so the count
    2 sum_{d=1}^{n-1} (n - d) W(d z) is two weighted floor sums: O(log M)
    steps, with no points.  The step may be any integer, since _floor_sums
    first reduces it mod M.  t < 0 counts 0, 2t >= M every pair.
    """
    if t < 0 or n < 2:
        return 0
    if 2 * t >= modulus:
        return n * (n - 1)
    # over d = 0 .. n - 1, sum (n - d) W = n sum W - sum d W, and d = 0 adds n
    f, g = _window_sums(step, 0, modulus, n - 1, t)
    return 2 * (n * f - g - n)


def vdc_count(base: int, first: int, n: int, t: int, modulus: int) -> int:
    """Ordered count of pairs within circle distance t among the van der Corput
    points of the indices first .. first+n-1 (first 0 or 1), over M = b^K.

    Position k of the base-b digits d_k of n' = first + n holds d_k blocks of
    b^k indices, block c the grid of step H = M/b^k shifted by S_k + c u, for
    u = H/b and S_k = sum_{j>k} d_j u_j < u.  With W of _window_sums (h = H),
    position k holds b^k (2 sum_{D<d_k} (d_k - D) W(D u) - d_k W(0)) pairs, and
    2 d_l b^l sum_{c<d_k} W(S_l - S_k - c u) with each coarser l < k; less the
    n' self-pairs and, for first = 1, the pairs of the point 0, that is
    O(K^2 log M) steps of floor sums, with no points.  t < 0 counts 0, 2t >= M
    every pair.
    """
    if t < 0 or n < 2:
        return 0
    if 2 * t >= modulus:
        return n * (n - 1)
    total, finer, shift, width = first - n, [], 0, modulus  # -n' self-pairs, +2 if first
    while width:  # width = b^k for each position k from K down; shift = S_k
        d, h = (first + n) // width % base, modulus // width
        u = h // base  # 0 only at k = K, where n' = M is the one digit d_K = 1
        if d:
            f, g = _window_sums(u, 0, h, d - 1, t)
            total += width * (2 * (d * f - g) - d * (2 * (t // h) + 1))
            for d_k, h_k, u_k, s_k in finer:  # this position against each finer one
                total += 2 * d * width * _window_sums(-u_k, shift - s_k, h_k, d_k - 1, t)[0]
            finer.append((d, h, u, shift))
        shift += d * u
        width //= base
    for d_k, h_k, u_k, s_k in finer * first:  # 0's w points within t: -2 w, with the +2 above
        total -= 2 * _window_sums(-u_k, -s_k, h_k, d_k - 1, t)[0]
    return total


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
    return _ordered_count(a, threshold_raw, modulus)


def per_point_counts(a_sorted: np.ndarray, threshold_raw: int, modulus: int) -> np.ndarray:
    """Neighbors within the threshold of each sorted point (its ordered count share)."""
    shares = np.empty(len(a_sorted), dtype=np.int64)
    a = _keys(a_sorted, modulus)
    for i, queries in enumerate(_blocks(a)):
        # each point counts itself
        shares[i * _BLOCK:(i + 1) * _BLOCK] = _window(a, queries, threshold_raw, modulus) - 1
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
        """count / N^(2 - alpha): 0.0 where that ratio underflows, inf where it overflows.

        Where the count or N^(2 - alpha) leaves the float range, the ratio is
        taken at extended precision instead.
        """
        try:
            scale = self.n ** (2 - self.alpha)
            if scale:  # else N^(2 - alpha) underflowed
                return self.ordered_pair_count / scale
        except OverflowError:  # the count or N^(2 - alpha) is past the float range
            pass
        import mpmath  # only a ratio of operands past the float range needs it
        with mpmath.workprec(64):
            scale = mpmath.mpf(self.n) ** (2 - mpmath.mpf(self.alpha))
            return float(self.ordered_pair_count / scale)


def f_stat(points, s, alpha) -> PairCountResult:
    """Ordered count of pairs with ||x_l - x_m|| <= s/N^alpha, and F = count/N^(2-alpha).

    s and alpha are read once as exact Fractions, the same on every batch: a
    float means its binary value (0.1 is 3602879701896397/2^55), not 1/10.
    Every batch is counted against the exact s/N^alpha: at t = floor(x) for
    x = s M / N^alpha on its own modulus M (b^k for exact van der Corput
    batches, 2^P on the grid), since a grid distance is an integer.  With
    g = ceil(points.error), the batch's bound on a pair distance's error,
    count(t - g) <= true count <= count(t + g), and the ambiguous pairs are
    count(t + g) - count(t - g): none when g = 0, which takes one pass.  A
    rotation batch (every Kronecker batch built by sequences) is counted from
    its step by rotation_count, a VdcBatch from N's digits by vdc_count, both
    with no pass over the points, and every other batch by the window kernel.
    The reported threshold is s/N^alpha rounded to the 2^-P grid (P = 64 for
    exact batches); it decides no count.
    """
    n = points.size
    if n < 2:
        raise ValueError("need at least two points")
    s_f, alpha_f = _finite_fraction(s, "s"), _finite_fraction(alpha, "alpha")
    thr = threshold_from(s_f, n, alpha_f, precision=getattr(points, "precision", DEFAULT_PRECISION))
    modulus = points.modulus
    t = _exact_threshold_numerator(s_f, n, alpha_f, modulus)
    if 2 * t >= modulus:
        return PairCountResult(n, float(alpha), float(s), thr, n * (n - 1), 0)
    if points.step is not None:
        count = functools.partial(rotation_count, points.step, n, modulus=modulus)
    elif isinstance(points, VdcBatch):
        count = functools.partial(vdc_count, points.base, points.first, n, modulus=modulus)
    else:
        count = functools.partial(_ordered_count, _sorted_keys(points), modulus=modulus)
    g = math.ceil(points.error)
    ambiguous = count(t + g) - count(t - g) if g else 0
    return PairCountResult(n, float(alpha), float(s), thr, count(t), ambiguous)


def f_stat_profile(batch, n_list: Sequence[int], alpha_list, s_list):
    """Evaluate f_stat on prefixes of one batch, cell by cell.

    Results come back in (N, alpha, s) lexicographic order; every N is in [2, batch.size].
    """
    n_list = list(n_list)
    if any(b > a for a, b in zip(n_list[1:], n_list)):
        raise ValueError("n_list must be ascending")
    if n_list and not 2 <= n_list[0] <= n_list[-1] <= batch.size:
        raise ValueError(f"N in {n_list} outside [2, {batch.size}], the batch's size")
    results = []
    for n in n_list:
        prefix = batch.prefix(n)
        for alpha in alpha_list:
            for s in s_list:
                results.append(f_stat(prefix, s, alpha))
    return results

