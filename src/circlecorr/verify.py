"""Named verification suites.

Each suite function returns a VerificationReport with one Check per
assertion.  SUITES maps every report name to its function, the CLI runs
them as `verify <name>` (all of them, iid-mean and performance included,
as `verify all`), and the acceptance tests call them directly.  All
randomness is seeded so reruns are byte-identical.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import _lazy_module, cf as cfmod
from .numutil import _exact_threshold_numerator, threshold_from
from .paircorr import (f_stat, f_stat_profile, pair_count_fast, pair_count_naive,
                       per_point_counts, rotation_count, vdc_count)
from .sequences import FixedBatch, SequenceSpec, generate, iid_uniform, kronecker_orbit
from .threegap import (expected_large_gaps, gap_census, gap_classes,
                       lemma9_bounds_check, predict_gaps)

np = _lazy_module("numpy")


@dataclass
class Check:
    description: str
    expected: str
    observed: str
    tolerance: str
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, description, expected, observed, tolerance, passed):
        self.checks.append(Check(description, str(expected), str(observed),
                                 str(tolerance), bool(passed)))

    def lines(self):
        out = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
               f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks, "
               f"{self.elapsed:.1f}s)"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            out.append(f"  [{mark}] {c.description}: expected {c.expected}, "
                       f"observed {c.observed} (tol {c.tolerance})")
        return out


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed = time.perf_counter() - t0
        return report
    return wrapper


# --- oracle: fast counting path against the naive matrix --------------------


def _oracle_trials(rng, trials: int, max_n: int):
    """(kind, N, batch, t) of suite_oracle's random trials, drawn from rng."""
    for _ in range(trials):
        kind = rng.choice(["iid", "vdc", "kronecker", "duplicates"])
        n = rng.randint(2, max_n)
        if kind == "vdc":
            batch = generate(SequenceSpec("vdc", base=rng.choice([2, 3, 5, 10])), n)
        elif kind == "kronecker":
            z = rng.choice(["golden", Fraction(rng.randint(1, 999), 1000),
                            rng.getrandbits(64)])
            batch = generate(SequenceSpec("kronecker", z_spec=z), n)
        elif kind == "duplicates":
            core = iid_uniform(max(2, n // 3), rng.getrandbits(32))
            raw = np.concatenate([core.raw, core.raw, core.raw[:2]])
            batch = FixedBatch(64, raw)
        else:
            batch = iid_uniform(n, rng.getrandbits(32))
        yield kind, n, batch, rng.randint(0, batch.modulus // 2)


def _oracle_orbits(rng):
    """(z, alpha, orbit, t) of suite_oracle's 10^6-point rotation cells: golden and a random z."""
    for z in ("golden", rng.getrandbits(64)):
        orbit = kronecker_orbit(z, 10 ** 6)
        for alpha in (0.5, 0.9):
            yield z, alpha, orbit, threshold_from(1, 10 ** 6, alpha).distance.value


@_timed
def suite_oracle(trials: int = 500, max_n: int = 2000, seed: int = 20260823):
    """pair_count_fast == pair_count_naive on randomized mixed batches.

    Every kronecker trial must also carry its step, and the floor sums
    rotation_count and vdc_count must equal the naive count on the kronecker
    and vdc trials; at 10^6 points, out of the naive count's reach, the floor
    sum must equal the window kernel on rotation orbits.
    """
    rng = random.Random(seed)
    report = VerificationReport("oracle")
    mismatches = []
    by_family = {"kronecker": [], "vdc": []}  # each family's count from no points, against naive
    for kind, n, batch, t in _oracle_trials(rng, trials, max_n):
        naive = pair_count_naive(batch, t)
        if pair_count_fast(batch, t) != naive:
            mismatches.append((kind, n, t))
        if kind == "kronecker" and (
                batch.step is None or rotation_count(batch.step, n, t, batch.modulus) != naive):
            by_family[kind].append((n, t))
        if kind == "vdc" and vdc_count(batch.base, batch.first, n, t, batch.modulus) != naive:
            by_family[kind].append((n, t))
    report.add(f"fast == naive over {trials} random batches (N <= {max_n})",
               "0 mismatches", f"{len(mismatches)} mismatches", "exact",
               not mismatches)
    for kind, route in (("kronecker", "floor sum from the step"),
                        ("vdc", "digit count from N's base-b digits")):
        report.add(f"{kind} batches among them: {route} == naive", "0 mismatches",
                   f"{len(by_family[kind])} mismatches", "exact", not by_family[kind])
    # at production N the naive matrix is out of reach: the window kernel
    # and the floor sum check each other
    big_mismatches = []
    for z, alpha, orbit, t in _oracle_orbits(rng):
        if pair_count_fast(orbit, t) != rotation_count(orbit.step, 10 ** 6, t, orbit.modulus):
            big_mismatches.append((z, alpha))
    report.add("window kernel == floor sum at N=10^6, golden and random z, "
               "alpha in {0.5, 0.9}, s=1", "0 mismatches",
               f"{len(big_mismatches)} mismatches", "exact", not big_mismatches)
    return report


# --- thm6 suite: exact van der Corput bracket -------------------------------

# ranges start where s/N^alpha < 1/2 across the whole grid (N > 256);
# below that the saturated count N(N-1) falls short of the lower bound
_THM6_RANGES = {2: range(9, 21), 3: range(6, 14), 10: range(3, 7)}
_THM6_ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
_THM6_S = (Fraction(1, 2), Fraction(1), Fraction(2))


def _thm6_bounds_hold(count: int, n: int, s: Fraction, alpha: Fraction) -> bool:
    """2s - 2N^(alpha-1) <= count/N^(2-alpha) <= 2s by integer comparison.

    With alpha = p/q <= 2 and 2s = a/b, both sides times b N^(2-alpha) are
    raised to the q-th power: (count b)^q <= a^q N^(2q-p) <= ((count + 2N) b)^q.
    """
    p, q = alpha.numerator, alpha.denominator
    a, b = (2 * s).numerator, (2 * s).denominator
    rhs = a ** q * n ** (2 * q - p)
    return (count * b) ** q <= rhs <= ((count + 2 * n) * b) ** q


@_timed
def suite_thm6(n_cap: int = 2 * 10 ** 6):
    """Exact van der Corput bracket 2s - 2N^(alpha-1) <= F <= 2s at N = b^n.

    Every cell's count is also checked against the closed form of the grid.
    """
    report = VerificationReport("thm6")
    grid_cells, grid_mismatches = 0, []
    for b, n_range in _THM6_RANGES.items():
        ns = [b ** n_exp for n_exp in n_range if b ** n_exp <= n_cap]
        cells = list(itertools.product(ns, _THM6_ALPHAS, _THM6_S))
        results = f_stat_profile(generate(SequenceSpec("vdc", base=b), ns[-1]),
                                 ns, _THM6_ALPHAS, _THM6_S) if ns else []
        violations = [(n, alpha, s) for (n, alpha, s), res in zip(cells, results)
                      if not _thm6_bounds_hold(res.ordered_pair_count, n, s, alpha)]
        report.add(f"base {b}: exact bracket over {len(cells)} (N, alpha, s) cells",
                   "0 violations", f"{len(violations)} violations", "exact",
                   not violations)
        # with zero included, N = b^n points are the grid {j/N}: each has
        # min(2 floor(tN), N - 1) neighbours within t
        grid_cells += len(cells)
        grid_mismatches += [(n, alpha, s) for (n, alpha, s), res in zip(cells, results)
                            if res.ordered_pair_count != n * min(
                                2 * _exact_threshold_numerator(s, n, alpha, n), n - 1)]
    report.add(f"closed form N min(2 floor(tN), N - 1) on the grid {{j/N}} over "
               f"{grid_cells} cells", "0 mismatches", f"{len(grid_mismatches)} mismatches",
               "exact", not grid_mismatches)
    # non-Poissonian witness: minimal spacing 1/N at N = 2^n kills alpha = 1
    ns = [2 ** n_exp for n_exp in range(3, 21)]
    results = f_stat_profile(generate(SequenceSpec("vdc", base=2), ns[-1]),
                             ns, [1], [Fraction(1, 2)])
    bad = [res.n for res in results if res.ordered_pair_count != 0]
    report.add("base 2, alpha=1, s=1/2: count at N = 2^n, n <= 20",
               "0 for all n", f"nonzero at {bad}" if bad else "0 for all n",
               "exact", not bad)
    return report


# --- thm7 suite: golden rotation limits -------------------------------------


@_timed
def suite_thm7():
    """F_{q_h}^1(1/2) = 0 exactly, and F_{q_h}^alpha(s) -> 2s for alpha < 1."""
    report = VerificationReport("thm7")
    hs = list(itertools.takewhile(lambda h: cfmod.fibonacci(h) <= 1.4 * 10 ** 6,
                                  itertools.count(3)))
    # one count per (P, h) cell, which both checks read
    cells = {(p, h): f_stat(kronecker_orbit("golden", cfmod.fibonacci(h), precision=p),
                            Fraction(1, 2), 1) for p in (64, 128) for h in hs}
    nonzero = [key for key, res in cells.items() if res.ordered_pair_count + res.ambiguous_pairs]
    bad = [h for p, h in nonzero if p == 64]
    report.add(f"F_N^1(1/2) at Fibonacci N up to {cfmod.fibonacci(hs[-1])}",
               "count 0, 0 ambiguous", f"violations at h={bad}" if bad else "all zero",
               "exact", not bad)
    # count + ambiguous is 0 only if the count at t + ceil(error) is, and that
    # bounds the count of the true golden z from above
    report.add("F_N^1(1/2) for the true golden z at the same N, P = 64 and 128",
               "count + ambiguous 0",
               f"nonzero at (P, h)={nonzero}" if nonzero else "all zero",
               "ceil(error) ulps", not nonzero)
    orbit30 = kronecker_orbit("golden", cfmod.fibonacci(30))
    orbit15 = orbit30.prefix(cfmod.fibonacci(15))
    for alpha in (0.3, 0.5, 0.7):
        for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
            err30 = abs(f_stat(orbit30, s, alpha).f_value - 2 * s) / (2 * s)
            err15 = abs(f_stat(orbit15, s, alpha).f_value - 2 * s) / (2 * s)
            report.add(f"convergence alpha={alpha}, s={float(s)}",
                       "rel err <= 5% at h=30 and < err at h=15",
                       f"{float(err30):.4f} vs {float(err15):.4f}",
                       "0.05", err30 <= 0.05 and err30 < err15)
    return report


# --- lemma 9: per-point neighbor bounds -------------------------------------


@_timed
def suite_lemma9(h: int = 25, draws: int = 20, seed: int = 9):
    report = VerificationReport("lemma9")
    n = cfmod.fibonacci(h)
    rng = random.Random(seed)
    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
        checks = [lemma9_bounds_check(rng.randint(1, n), n, s, Fraction(1, 2))
                  for _ in range(draws)]
        worst = max((c.normalized for c in checks), key=lambda v: abs(v - float(s)))
        report.add(f"N=q_{h}, alpha=1/2, s={float(s)}: {draws} random l",
                   f"normalized count in ({float(s) / 2}, {4 * float(s)})",
                   f"worst {worst:.4f}", "open interval", all(c.passed for c in checks))
    return report


# --- lemma 10: large gaps in k-gap windows ----------------------------------


@_timed
def suite_lemma10(n_cap: int = 987, random_k: int = 30, seed: int = 10):
    """Window large-gap count is expected or expected+1, exhaustively in n."""
    report = VerificationReport("lemma10")
    rng = random.Random(seed)
    h = 5
    total_windows = 0
    bad = []
    while cfmod.fibonacci(h) <= n_cap:
        n = cfmod.fibonacci(h)
        orbit = kronecker_orbit("golden", n)
        classes, census = gap_classes(orbit)
        if len(census.lengths) > 2:
            bad.append((n, "census", len(census.lengths)))
            h += 1
            continue
        # doubled prefix sums give every wrapped window in O(1)
        large = np.array([c == 1 for c in classes + classes], dtype=np.int64)
        prefix = np.concatenate([[0], np.cumsum(large)])
        pure = [cfmod.fibonacci(j) for j in range(2, h)]
        ks = sorted(set(pure) | {rng.randint(1, n) for _ in range(random_k)})
        for k in ks:
            expected = expected_large_gaps(k)
            counts = prefix[k:k + n] - prefix[:n]
            total_windows += n
            for start in np.nonzero((counts != expected) & (counts != expected + 1))[0]:
                bad.append((n, k, int(start)))
        h += 1
    report.add(f"all {total_windows} windows at Fibonacci N <= {n_cap} "
               f"(pure + {random_k} random widths per N)",
               "count in {expected, expected+1}",
               f"{len(bad)} violations", "exact", not bad)
    return report


# --- lemma 11: digit-sum ratio ----------------------------------------------


def _random_zeckendorf_indices(rng, lowest: int, top: int):
    """A random admissible digit support: no two adjacent Fibonacci indices."""
    indices = []
    i = rng.randint(lowest, lowest + 3)
    while i <= top:
        indices.append(i)
        i += rng.randint(2, 5)
    return indices


@_timed
def suite_lemma11(draws: int = 100, seed: int = 11):
    """sum b_i q_i / sum b_i q_{i-1} tends to phi once all digits sit high."""
    report = VerificationReport("lemma11")
    rng = random.Random(seed)
    phi = (1 + 5 ** 0.5) / 2
    worst, ok = 0.0, True
    for _ in range(draws):
        indices = _random_zeckendorf_indices(rng, 12, rng.randint(20, 60))
        num = sum(cfmod.fibonacci(i) for i in indices)
        den = sum(cfmod.fibonacci(i - 1) for i in indices)
        rep = cfmod.golden_ostrowski(num)
        ratio = cfmod.lemma11_ratio(rep)
        err = abs(float(ratio) - phi)
        worst = max(worst, err)
        ok = ok and ratio == Fraction(num, den) and err < 1e-3
    report.add(f"{draws} random representations, lowest index >= 12",
               "|ratio - phi| < 1e-3", f"worst {worst:.2e}", "1e-3", ok)
    return report


# --- lemma 12: normalized minimal gap ---------------------------------------


@_timed
def suite_lemma12(h_final: int = 20, h_start: int = 10):
    import mpmath  # no other suite needs it

    report = VerificationReport("lemma12")
    values = [cfmod.lemma12_value(h) for h in range(h_start, h_final + 1)]
    final_err = abs(values[-1] - 1)
    report.add(f"(1 + 1/phi^2) ||q_(h-1) phi|| q_h at h={h_final}",
               "|value - 1| < 1e-4", f"{final_err:.2e}", "1e-4", final_err < 1e-4)
    errors = [abs(v - 1) for v in values]
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    report.add(f"error decreasing over h={h_start}..{h_final}",
               "strictly decreasing", "yes" if monotone else f"errors {errors}",
               "ordering", monotone)
    # consistency with the empirical minimal gap of the actual orbit
    agree = True
    for h in (10, 15, 20):
        n = cfmod.fibonacci(h)
        md = gap_census(kronecker_orbit("golden", n)).lengths[0]
        with mpmath.workdps(cfmod._GOLDEN_DPS):
            phi = cfmod.phi_mpf()
            k = 1 / (phi * cfmod.fibonacci(h - 1) + cfmod.fibonacci(h - 2))
            # the grid rounding of phi drifts by up to one ulp per step n
            agree = agree and abs(md / mpmath.mpf(2) ** 64 - k) <= (n + 4) * mpmath.mpf(2) ** -64
        agree = agree and md * 2 * n > 1 << 64
    report.add("minimal orbit gap matches ||q_(h-1) phi|| and exceeds 1/(2 q_h)",
               "agreement within N+4 ulp", "yes" if agree else "no", "N+4 ulp", agree)
    return report


# --- threegap suite: census vs prediction -----------------------------------


def _census_matches_prediction(orbit, prediction, slack: int = 1) -> bool:
    """At most three gap lengths, each within slack of a predicted one.

    An integer step's orbit on the grid obeys the three-distance theorem
    exactly, so three lengths must also satisfy L3 = L1 + L2.
    """
    lengths = gap_census(orbit).lengths
    if len(lengths) > 3 or (len(lengths) == 3 and lengths[2] != lengths[0] + lengths[1]):
        return False
    return all(any(abs(length - t) <= slack for t in prediction.lengths) for length in lengths)


def _random_rotation(rng, n_cap: int):
    """[0; a_1, ..., a_k] with random a_i <= 5, for the first k >= 2 with q_k > 10 n_cap."""
    quotients, q_prev, q = [0], 0, 1  # q_(-1), q_0
    while len(quotients) < 3 or q <= 10 * n_cap:
        quotients.append(rng.randint(1, 5))
        q_prev, q = q, quotients[-1] * q + q_prev
    return cfmod.ContinuedFraction(quotients)


@_timed
def suite_threegap(trials: int = 200, n_cap: int = 10 ** 5, seed: int = 3):
    report = VerificationReport("threegap")
    rng = random.Random(seed)
    bad = []
    for _ in range(trials):
        cf = _random_rotation(rng, n_cap)
        z = cf.value()
        n = rng.randint(2, n_cap)
        orbit = kronecker_orbit(z, n)
        if not _census_matches_prediction(orbit, predict_gaps(z, n, cf=cf)):
            bad.append((str(cf)[:40], n))
    report.add(f"{trials} random (z, N) orbits, N <= {n_cap}",
               "<= 3 gap lengths, all within 1 ulp of {L1, L2, L3}",
               f"{len(bad)} violations", "1 ulp", not bad)
    bad_golden = []
    for h in range(10, 26):
        n = cfmod.fibonacci(h)
        if not _census_matches_prediction(kronecker_orbit("golden", n),
                                          predict_gaps("golden", n)):
            bad_golden.append(h)
    report.add("golden orbits at Fibonacci N, h = 10..25",
               "census contained in prediction, L3 = L1 + L2",
               f"violations at h={bad_golden}" if bad_golden else "all contained",
               "1 ulp", not bad_golden)
    return report


# --- statistical and performance checks -------------------------------------


@_timed
def iid_mean_check(n: int = 10 ** 5, seeds=range(10), s=1, tolerance: float = 0.05):
    """Mean F over fixed seeds lands within tolerance of the limit 2s."""
    report = VerificationReport("iid-mean")
    batches = [iid_uniform(n, seed) for seed in seeds]
    for alpha in (0.5, 1):
        mean = sum(f_stat(b, s, alpha).f_value for b in batches) / len(batches)
        rel = abs(mean - 2 * s) / (2 * s)
        report.add(f"{len(batches)} seeds, N={n}, alpha={alpha}, s={s}",
                   f"mean F within {tolerance:.0%} of {2 * s}",
                   f"mean {mean:.4f} (rel err {rel:.4f})", str(tolerance),
                   rel <= tolerance)
    return report


@_timed
def performance_check(n: int = 10 ** 7, budget_s: float = 10.0):
    """Single golden cell at N=10^7 within budget; every per-point count checked."""
    report = VerificationReport("performance")
    orbit = kronecker_orbit("golden", n)
    z, modulus, order = orbit.step, orbit.modulus, np.argsort(orbit.raw)
    a = orbit.raw[order]  # the one sort; order maps sorted rank to orbit index
    del orbit  # frees the unsorted points
    t = _exact_threshold_numerator(Fraction(1), n, Fraction(1, 2), modulus)
    t0 = time.perf_counter()
    count = pair_count_fast(a, t, modulus, presorted=a)
    elapsed = time.perf_counter() - t0
    report.add(f"pair_count_fast, N={n}, alpha=0.5, s=1",
               f"<= {budget_s} s", f"{elapsed:.2f} s", f"{budget_s} s",
               elapsed <= budget_s)
    # rotation identity, independent of sorting and windows: orbit point i
    # is (i+1) z, so ||x_i - x_j|| = ||(j - i) z||.  With H the d in [1, N)
    # where ||d z|| <= t and C(k) = #{h in H : h <= k}, point i has
    # C(N-1-i) + C(i) neighbours and the total is 2 sum_{d in H} (N - d);
    # built and compared over blocks, so that only a, order, C and pp are N long
    block, c, total = 1 << 16, np.zeros(n, dtype=np.int64), 0
    for lo in range(1, n, block):
        d = np.arange(lo, min(lo + block, n), dtype=np.uint64)
        dz = d * np.uint64(z)  # wraps mod 2^64
        near = np.minimum(dz, np.uint64(0) - dz) <= np.uint64(t)
        c[lo:lo + len(d)] = c[lo - 1] + np.cumsum(near)
        total += 2 * int((np.uint64(n) - d[near]).sum())
    pp = per_point_counts(a, t, modulus)
    bad = 0
    for lo in range(0, n, block):
        i = order[lo:lo + block]
        bad += int(np.count_nonzero(pp[lo:lo + block] != c[n - 1 - i] + c[i]))
    consistent = int(pp.sum()) == count == total
    report.add(f"per-point counts of all {n} points against the rotation identity",
               "all match, per-point sum and count equal 2 sum_H (N - d)",
               f"{bad} mismatches, sums {'agree' if consistent else 'differ'}",
               "exact", bad == 0 and consistent)
    return report


SUITES = {
    "oracle": suite_oracle,
    "thm6": suite_thm6,
    "thm7": suite_thm7,
    "lemma9": suite_lemma9,
    "lemma10": suite_lemma10,
    "lemma11": suite_lemma11,
    "lemma12": suite_lemma12,
    "threegap": suite_threegap,
    "iid-mean": iid_mean_check,
    "performance": performance_check,
}


def run_suite(name: str) -> VerificationReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
