import dataclasses
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest

from circlecorr import verify
from circlecorr.cf import ContinuedFraction
from circlecorr.paircorr import f_stat, pair_count_fast, pair_count_naive
from circlecorr.sequences import SequenceSpec, generate

GRID = "closed form"


def test_thm6_closed_form_checks_every_cell():
    report = verify.suite_thm6(n_cap=10 ** 4)
    grid = [c for c in report.checks if GRID in c.description]
    assert len(grid) == 1 and grid[0].passed
    # base 2 at 2^9..2^13, base 3 at 3^6..3^8, base 10 at 10^3 and 10^4: 9 cells each
    assert "over 90 cells" in grid[0].description
    assert not any("bracket" in c.description for c in grid)


def test_thm6_closed_form_fails_on_a_count_off_by_two():
    real = verify.f_stat_profile
    calls = []

    def off_by_two(*args):
        results = real(*args)
        calls.append(len(results))
        if len(calls) == 2:  # base 3: the third cell
            results[2] = dataclasses.replace(
                results[2], ordered_pair_count=results[2].ordered_pair_count + 2)
        return results

    with mock.patch.object(verify, "f_stat_profile", off_by_two):
        report = verify.suite_thm6(n_cap=10 ** 4)
    grid = next(c for c in report.checks if GRID in c.description)
    assert not grid.passed and grid.observed == "1 mismatches"
    assert not report.passed


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2, 3), Fraction(9, 10)])
@pytest.mark.parametrize("base", [2, 3, 10])
def test_thm6_bracket_holds_at_any_rational_alpha(base, alpha):
    # N = base^(q k) >= 4096 is a q-th power for alpha = p/q, so the reference
    # takes N^(2 - alpha) = N^2 / root^p and N^(alpha - 1) = root^p / N as Fractions
    p, q = alpha.numerator, alpha.denominator
    k = next(k for k in range(1, 99) if base ** (q * k) >= 4096)
    n, root = base ** (q * k), base ** k
    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
        def reference(count):
            f_value = Fraction(count * root ** p, n ** 2)
            return 2 * s - Fraction(2 * root ** p, n) <= f_value <= 2 * s

        count = f_stat(generate(SequenceSpec("vdc", base=base), n), s, alpha).ordered_pair_count
        top = math.floor(2 * s * Fraction(n ** 2, root ** p))  # the largest count 2s admits
        for c in (count, count + 2 * n + 1, top, top + 1, top - 2 * n, top - 2 * n - 1):
            assert verify._thm6_bounds_hold(c, n, s, alpha) == reference(c), c
        assert reference(count) and not reference(top + 1)


def test_threegap_fails_a_third_length_off_the_sum_of_the_other_two():
    # a longest length 1 ulp off L3 is no predicted length, so every random
    # orbit with three lengths fails; golden orbits at Fibonacci N have two
    real = verify.gap_census

    def longest_plus_one(points):
        census = real(points)
        if len(census.entries) == 3:
            length, mult = census.entries[2]
            census = dataclasses.replace(census, entries=census.entries[:2] + [(length + 1, mult)])
        return census

    with mock.patch.object(verify, "gap_census", longest_plus_one):
        report = verify.suite_threegap(trials=20)
    assert [c.passed for c in report.checks] == [False, True]
    assert report.checks[0].observed == "20 violations"


CERTIFICATE = "true golden z"


def test_thm7_certifies_the_zero_counts_for_the_true_golden_z():
    report = verify.suite_thm7()
    cert = [c for c in report.checks if CERTIFICATE in c.description]
    assert len(cert) == 1 and cert[0].passed and report.passed
    # the certificate reads the P = 128 brackets too: one ambiguous pair there fails it alone
    real = verify.f_stat

    def one_more_at_p128(points, s, alpha):
        res = real(points, s, alpha)
        return dataclasses.replace(res, ambiguous_pairs=res.ambiguous_pairs
                                   + (points.modulus == 1 << 128))

    with mock.patch.object(verify, "f_stat", one_more_at_p128):
        report = verify.suite_thm7()
    assert [c.passed for c in report.checks if CERTIFICATE in c.description] == [False]
    assert all(c.passed for c in report.checks if CERTIFICATE not in c.description)


def test_performance_check_holds_at_most_48_bytes_per_point():
    # criterion 12's suite at N = 10^6: the sorted points, their order, C(k)
    # and the per-point counts are N long; everything else is built in blocks
    n = 10 ** 6
    tracemalloc.start()
    try:
        report = verify.performance_check(n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak / n <= 48, f"{peak / n:.1f} bytes per point"


# sha256 of repr((the oracle suite's 500 (kind, N, t, count) tuples, its four
# counts at N = 10^6)), recorded before the naive count went to one wrapped
# subtraction per pair and the kernel to one search per point
ORACLE_COUNTS = "e050c228fe1491b1ed61323b8483168f7a5ab63bc310122b58fd4aeaf490e267"


def test_oracle_counts_match_their_pinned_digest():
    # the suite compares two counts: a bug they share passes it, not this digest
    rng = random.Random(20260823)  # suite_oracle's default seed
    trials = list(verify._oracle_trials(rng, 500, 2000))
    big = [pair_count_fast(orbit, t) for _, _, orbit, t in verify._oracle_orbits(rng)]
    for count in (pair_count_naive, pair_count_fast):
        tuples = [(kind, len(batch), t, int(count(batch, t))) for kind, _, batch, t in trials]
        assert hashlib.sha256(repr((tuples, big)).encode()).hexdigest() == ORACLE_COUNTS


# sha256 of repr(the lemma9 suite's 60 (s, l, count) tuples), recorded while
# lemma9_bounds_check still counted at the rounded threshold
LEMMA9_COUNTS = "e6f23982879837c514614cf252da94e16a32ba3dc8484ae8dad2691bf55ac2f7"


def test_lemma9_counts_match_their_pinned_digest():
    # the suite checks only the loose bounds (s/2, 4s): a changed count passes it, not this digest
    real, seen = verify.lemma9_bounds_check, []

    def record(l, n, s, alpha):
        chk = real(l, n, s, alpha)
        seen.append((s, l, chk.count))
        return chk

    with mock.patch.object(verify, "lemma9_bounds_check", record):
        assert verify.suite_lemma9().passed
    assert len(seen) == 60
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == LEMMA9_COUNTS


def test_random_rotation_makes_the_draws_of_one_build_per_quotient():
    # the reference builds a continued fraction after every quotient it draws
    def reference(rng, n_cap):
        quotients = [0]
        while True:
            quotients.append(rng.randint(1, 5))
            if len(quotients) >= 3 and ContinuedFraction(quotients).q[-1] > 10 * n_cap:
                return ContinuedFraction(quotients)

    for seed in range(20):
        for n_cap in (0, 1, 10 ** 5):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            cf = verify._random_rotation(rng, n_cap)
            assert cf.quotients == reference(ref_rng, n_cap).quotients
            assert rng.random() == ref_rng.random()  # the same draws were made
