"""Acceptance gate: twelve numbered criteria, one printed line each.

Each test asserts its criterion and prints a CRITERION n: PASS/FAIL
line; conftest.py repeats the lines in the terminal summary so they
survive output capture in any pytest run.
"""

from fractions import Fraction

from circlecorr import verify
from circlecorr.cf import fibonacci
from circlecorr.paircorr import f_stat
from circlecorr.sequences import SequenceSpec, generate, kronecker_orbit


RESULT_LINES = []


def _report(number, description, passed):
    line = f"CRITERION {number:2d}: {'PASS' if passed else 'FAIL'} - {description}"
    RESULT_LINES.append(line)
    print(line)
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_oracle_equivalence():
    report = verify.suite_oracle(trials=500, max_n=2000)
    _report(1, "fast count equals naive count on 500 random batches "
               f"({report.elapsed:.1f}s < 30s)",
            report.passed and report.elapsed < 30)


def test_criterion_02_vdc_exact_bracket():
    report = verify.suite_thm6()
    bracket = [c for c in report.checks if "bracket" in c.description]
    _report(2, "exact bracket 2s - 2N^(a-1) <= F <= 2s at N = b^n "
               f"({report.elapsed:.1f}s < 120s)",
            all(c.passed for c in bracket) and report.elapsed < 120)


def test_criterion_03_vdc_zero_count():
    bad = []
    for n_exp in range(1, 21):
        n = 2 ** n_exp
        res = f_stat(generate(SequenceSpec("vdc", base=2), n), Fraction(1, 2), 1)
        if res.ordered_pair_count != 0:
            bad.append(n)
    _report(3, "base-2 grid count is 0 at alpha=1, s=1/2 for N = 2^n, n <= 20",
            not bad)


def test_criterion_04_golden_zero_count():
    bad = []
    h = 3
    while fibonacci(h) <= 1.4 * 10 ** 6:
        res = f_stat(kronecker_orbit("golden", fibonacci(h)), Fraction(1, 2), 1)
        if res.ordered_pair_count != 0:
            bad.append(h)
        h += 1
    _report(4, f"F = 0 at alpha=1, s=1/2 for every Fibonacci N <= 1.4e6 "
               f"(h up to {h - 1})", not bad)


def test_criterion_05_golden_convergence():
    report = verify.suite_thm7()
    conv = [c for c in report.checks if "convergence" in c.description]
    _report(5, "golden orbit F within 5% of 2s at h=30, improving on h=15 "
               f"({report.elapsed:.1f}s < 60s)",
            all(c.passed for c in conv) and report.elapsed < 60)


def test_criterion_06_three_gap_containment():
    report = verify.suite_threegap(trials=200, n_cap=10 ** 5)
    _report(6, "three-gap containment on 200 random rotations and golden "
               "orbits h=10..25", report.passed)


def test_criterion_07_window_large_gap_counts():
    report = verify.suite_lemma10(n_cap=987, random_k=30)
    _report(7, "window large-gap counts in {g, g+1}, exhaustive to N=987",
            report.passed)


def test_criterion_08_digit_ratio():
    report = verify.suite_lemma11(draws=100)
    _report(8, "digit-sum ratio within 1e-3 of phi for 100 high-index "
               "representations", report.passed)


def test_criterion_09_normalized_minimal_gap():
    report = verify.suite_lemma12(h_final=20, h_start=10)
    _report(9, "normalized minimal gap within 1e-4 of 1 at h=20, error "
               "decreasing over h=10..20", report.passed)


def test_criterion_10_per_point_bounds():
    report = verify.suite_lemma9(h=25, draws=20)
    _report(10, "per-point neighbor counts inside (s/2, 4s) at N = q_25",
            report.passed)


def test_criterion_11_iid_statistic():
    report = verify.iid_mean_check(n=10 ** 5, seeds=range(10))
    _report(11, "mean F over 10 seeds within 5% of 2 at N = 1e5, "
                "alpha in {0.5, 1}", report.passed)


def test_criterion_12_performance():
    report = verify.performance_check(n=10 ** 7, budget_s=10.0)
    _report(12, "N = 1e7 count within 10s, every per-point count matches "
                "the rotation identity", report.passed)
