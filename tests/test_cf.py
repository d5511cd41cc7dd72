import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from circlecorr.cf import (ContinuedFraction, cf_expand, fibonacci,
                           golden_cf, golden_ostrowski, lemma11_ratio,
                           lemma12_value, ostrowski)


def test_expand_355_113():
    cf = cf_expand(Fraction(355, 113))
    assert cf.quotients == [3, 7, 16]
    assert cf.exact
    assert cf.value() == Fraction(355, 113)


def test_expand_round_trips_rationals():
    for frac in (Fraction(1, 2), Fraction(7, 3), Fraction(199, 71), Fraction(5)):
        assert cf_expand(frac).value() == frac


@given(st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6))
def test_expand_value_round_trip(frac):
    cf = cf_expand(frac)
    assert cf.value() == frac
    assert all(a >= 1 for a in cf.quotients[1:])


def test_golden_convergents_are_fibonacci():
    cf = golden_cf(10)
    assert cf.q == [fibonacci(h) for h in range(1, 11)]
    assert cf.p == [fibonacci(h) for h in range(2, 12)]


def test_convergent_determinant_identity():
    cf = cf_expand(Fraction(199, 71))
    p, q = [1] + cf.p, [0] + cf.q  # p_-1 = 1, q_-1 = 0
    for i in range(len(cf)):
        p_i, q_i = p[i + 1], q[i + 1]
        p_prev, q_prev = p[i], q[i]
        assert p_i * q_prev - p_prev * q_i == (-1) ** (i + 1)


def test_invalid_quotients_rejected():
    with pytest.raises(ValueError):
        ContinuedFraction([])
    with pytest.raises(ValueError):
        ContinuedFraction([1, 0, 2])


def test_str_form():
    assert str(cf_expand(Fraction(355, 113))) == "[3; 7, 16]"
    assert str(ContinuedFraction([5])) == "[5]"


def test_grid_golden_expansion_is_exact():
    from circlecorr.sequences import golden_raw
    step = Fraction(golden_raw(64), 1 << 64)
    cf = cf_expand(step)
    assert cf.exact and cf.value() == step
    assert cf.quotients[0] == 0
    assert all(a == 1 for a in cf.quotients[1:50])
    capped = cf_expand(step, max_terms=10)
    assert not capped.exact and capped.quotients == cf.quotients[:10]


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)))
def test_residue_bracket(z):
    cf = cf_expand(z)
    for n in range(len(cf) - 1):
        q_n = cf.q[n]
        q_next = cf.q[n + 1]
        r = z - Fraction(cf.p[n], q_n)
        assert r != 0
        # sign alternates; magnitude between the classic bounds
        assert (r > 0) == (n % 2 == 0)
        assert Fraction(1, q_n * (q_next + q_n)) < abs(r) <= Fraction(1, q_n * q_next)


# --- Ostrowski representations ---------------------------------------------


def test_golden_ostrowski_examples():
    assert str(golden_ostrowski(12)) == "1@6 1@4 1@2"  # 12 = 8 + 3 + 1
    assert str(golden_ostrowski(1)) == "1@2"
    assert str(golden_ostrowski(100)) == "1@11 1@6 1@4"  # 89 + 8 + 3


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_golden_ostrowski_is_zeckendorf(n):
    rep = golden_ostrowski(n)
    assert sum(b * w for b, w in zip(rep.coeffs, rep.weights)) == n
    support = [i for i, b in rep.nonzero()]
    # no two adjacent Fibonacci indices
    assert all(a - b >= 2 for a, b in zip(support, support[1:]))


def test_golden_ostrowski_of_a_4300_digit_n_is_fast():
    n = 10 ** 4299
    start = time.perf_counter()
    rep = golden_ostrowski(n)
    assert time.perf_counter() - start < 2
    w = rep.weights  # the Fibonacci ladder F_1 .. F_m, with F_m <= N < F_(m+1)
    assert w[:2] == [1, 1] and all(c == a + b for a, b, c in zip(w, w[1:], w[2:]))
    assert w[-1] <= n < w[-1] + w[-2] and rep.shifted == [0] + w[:-1]
    assert set(rep.coeffs) <= {0, 1} and sum(b * q for b, q in zip(rep.coeffs, w)) == n
    support = [i for i, b in rep.nonzero()]
    assert all(a - b >= 2 for a, b in zip(support, support[1:]))


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.lists(st.integers(min_value=1, max_value=9), min_size=12, max_size=20))
def test_ostrowski_reconstructs_over_random_ladders(n, quots):
    cf = ContinuedFraction([0] + quots + [1] * 30)
    rep = ostrowski(n, cf)
    assert sum(b * w for b, w in zip(rep.coeffs, rep.weights)) == n
    for j, (b, cap) in enumerate(zip(rep.coeffs, rep.caps)):
        assert 0 <= b <= cap
        if b == cap and j > 0:
            assert rep.coeffs[j - 1] == 0


def test_ostrowski_requires_long_enough_table():
    with pytest.raises(ValueError):
        ostrowski(100, ContinuedFraction([0, 2, 2]))


def test_lemma11_ratio_pure_fibonacci():
    rep = golden_ostrowski(fibonacci(20))
    assert lemma11_ratio(rep) == Fraction(fibonacci(20), fibonacci(19))


def test_lemma11_ratio_degenerate():
    from circlecorr.cf import OstrowskiRep
    # a lone digit at index 1 has shifted weight q_0 = 0
    rep = OstrowskiRep(1, [1, 0], [1, 1], [1, 1], [0, 1], [1, 2])
    with pytest.raises(ZeroDivisionError):
        lemma11_ratio(rep)


def test_lemma12_value_converges():
    assert abs(lemma12_value(20) - 1) < 1e-4
    assert abs(lemma12_value(30) - 1) < 1e-8
    with pytest.raises(ValueError):
        lemma12_value(1)

