"""Continued fractions, convergents and Ostrowski digits.

Convergents use the standard initialization p_-1 = 1, q_-1 = 0, p_0 = a_0,
q_0 = 1, so that p_i/q_i really equals [a_0; a_1, ..., a_i].  Golden-mean
results are additionally exposed through the Fibonacci-indexed ladder
q_1 = q_2 = 1, q_3 = 2, ... so that index references in the rotation
lemmas line up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

_GOLDEN_DPS = 80  # decimal digits for closed forms in the golden mean


@dataclass
class ContinuedFraction:
    """Partial quotients a_0, a_1, ... with their convergent table."""

    quotients: list
    exact: bool = True  # False when max_terms cut the expansion short
    p: list = field(init=False, repr=False)
    q: list = field(init=False, repr=False)

    def __post_init__(self):
        if not self.quotients:
            raise ValueError("need at least a_0")
        if self.quotients[0] < 0 or any(a < 1 for a in self.quotients[1:]):
            raise ValueError("require a_0 >= 0 and a_i >= 1 for i >= 1")
        p_prev, q_prev = 1, 0  # index -1
        p_cur, q_cur = self.quotients[0], 1
        self.p, self.q = [p_cur], [q_cur]
        for a in self.quotients[1:]:
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            self.p.append(p_cur)
            self.q.append(q_cur)

    def __len__(self):
        return len(self.quotients)

    def convergents(self):
        """All (p_i, q_i) pairs, i = 0 .. m."""
        return list(zip(self.p, self.q))

    def value(self) -> Fraction:
        """Value of the final convergent."""
        return Fraction(self.p[-1], self.q[-1])

    def __str__(self):
        if len(self.quotients) == 1:
            return f"[{self.quotients[0]}]"
        rest = ", ".join(str(a) for a in self.quotients[1:])
        return f"[{self.quotients[0]}; {rest}]"


def cf_expand(value, max_terms: int | None = None) -> ContinuedFraction:
    """Expand a positive rational into its partial quotients.

    The expansion is exact and complete unless ``max_terms`` caps it; a cap
    that cuts it short is flagged via ``exact=False``.  The gap prediction
    expands a grid step z_raw / 2^P this way.
    """
    frac = Fraction(value)
    if frac <= 0:
        raise ValueError("value must be positive")
    quotients = []
    num, den = frac.numerator, frac.denominator
    while den and (max_terms is None or len(quotients) < max_terms):
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    return ContinuedFraction(quotients, exact=not den)


# --- golden mean -----------------------------------------------------------


def golden_cf(terms: int) -> ContinuedFraction:
    """phi = [1; 1, 1, ...] truncated to the given number of quotients."""
    return ContinuedFraction([1] * terms)


@lru_cache(maxsize=None)
def fibonacci(h: int) -> int:
    """F_h with F_0 = 0, F_1 = F_2 = 1; the golden ladder has q_h = F_h."""
    if h < 0:
        raise ValueError("h must be >= 0")
    a, b = 0, 1
    for _ in range(h):
        a, b = b, a + b
    return a


def phi_mpf():
    import mpmath  # only the golden closed forms need it
    return (1 + mpmath.sqrt(5)) / 2


# --- Ostrowski representations --------------------------------------------


@dataclass
class OstrowskiRep:
    """Digits of N = sum_i b_i q_i over a denominator ladder.

    ``weights[i]`` and ``caps[i]`` give q_i and the admissible maximum of
    b_i; ``shifted[i]`` gives the next-lower ladder entry q_{i-1} used by
    the gap-count and ratio formulas.  For the golden mean the ladder is
    Fibonacci-indexed (q_1 = q_2 = 1) and ``indices`` carries that view.
    """

    n: int
    coeffs: list
    weights: list
    caps: list
    shifted: list
    indices: list

    def __post_init__(self):
        if sum(b * q for b, q in zip(self.coeffs, self.weights)) != self.n:
            raise ValueError("digits do not reconstruct N")
        for j in range(len(self.coeffs)):
            if not 0 <= self.coeffs[j] <= self.caps[j]:
                raise ValueError("digit outside its admissible range")
            if self.coeffs[j] == self.caps[j] and j > 0 and self.coeffs[j - 1] != 0:
                raise ValueError("maximal digit must be preceded by a zero digit")

    def nonzero(self):
        return [(self.indices[j], self.coeffs[j])
                for j in reversed(range(len(self.coeffs))) if self.coeffs[j]]

    def __str__(self):
        return " ".join(f"{b}@{i}" for i, b in self.nonzero())


def _greedy(n: int, weights, caps):
    coeffs = [0] * len(weights)
    rem = n
    for j in reversed(range(len(weights))):
        b = min(rem // weights[j], caps[j])
        coeffs[j] = b
        rem -= b * weights[j]
    if rem:
        raise ValueError("ladder too short for N")
    return coeffs


def ostrowski(N: int, cf: ContinuedFraction) -> OstrowskiRep:
    """Greedy digits of N over the best-approximation denominators of cf.

    Ladder entries are the standard q_0 = 1, q_1, ..., with digit caps
    a_1 - 1 at q_0 and a_{j+1} at q_j; the greedy choice automatically
    satisfies the zero-after-maximal-digit constraint.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(cf) < 2:
        raise ValueError("need at least one partial quotient beyond a_0")
    if cf.q[-1] <= N:
        raise ValueError("convergent table too short for N")
    m = 0
    while cf.q[m + 1] <= N:
        m += 1
    weights = cf.q[:m + 1]
    caps = [cf.quotients[1] - 1] + [cf.quotients[j + 1] for j in range(1, m + 1)]
    coeffs = _greedy(N, weights, caps)
    shifted = [0] + cf.q[:m]  # q_{-1} = 0
    return OstrowskiRep(N, coeffs, weights, caps, shifted, list(range(m + 1)))


def golden_ostrowski(N: int) -> OstrowskiRep:
    """Zeckendorf digits of N over the Fibonacci ladder q_h = F_h.

    The two unit weights q_1 = q_2 = 1 are resolved greedily from the top,
    so a trailing 1 lands on the higher of the two indices.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ladder = [0, 1, 1, 2]  # F_0 .. F_(m+1), built in one pass up to F_(m+1) > N
    while ladder[-1] <= N:
        ladder.append(ladder[-1] + ladder[-2])
    m = len(ladder) - 2
    weights, shifted = ladder[1:m + 1], ladder[:m]  # q_h = F_h, q_(h-1) = F_(h-1)
    coeffs = _greedy(N, weights, [1] * m)
    return OstrowskiRep(N, coeffs, weights, [1] * m, shifted, list(range(1, m + 1)))


def lemma11_ratio(rep: OstrowskiRep) -> Fraction:
    """sum b_i q_i / sum b_i q_{i-1}; tends to phi for golden digits."""
    num = sum(b * q for b, q in zip(rep.coeffs, rep.weights))
    den = sum(b * q for b, q in zip(rep.coeffs, rep.shifted))
    if den == 0:
        raise ZeroDivisionError("all digit mass sits at the bottom of the ladder")
    return Fraction(num, den)


def lemma12_value(h: int):
    """(1 + 1/phi^2) * ||q_{h-1} phi|| * q_h on the Fibonacci ladder (-> 1)."""
    if h < 2:
        raise ValueError("h must be >= 2")
    import mpmath
    q_h, q_h1, q_h2 = fibonacci(h), fibonacci(h - 1), fibonacci(h - 2)
    with mpmath.workdps(_GOLDEN_DPS):
        phi = phi_mpf()
        k = 1 / (phi * q_h1 + q_h2)  # ||q_{h-1} phi|| exactly, by the convergent error identity
        return float((1 + 1 / phi ** 2) * k * q_h)
