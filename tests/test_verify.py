import dataclasses
import tracemalloc
from unittest import mock

from circlecorr import verify

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


CERTIFICATE = "true golden z"


def test_thm7_certifies_the_zero_counts_for_the_true_golden_z():
    report = verify.suite_thm7()
    cert = [c for c in report.checks if CERTIFICATE in c.description]
    assert len(cert) == 1 and cert[0].passed and report.passed
    # the certificate reads its own counts: a nonzero one fails it alone
    with mock.patch.object(verify, "rotation_count", lambda *args: 1):
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
