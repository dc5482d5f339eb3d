"""Partition-function parity and the Ballantine-Merca recurrence check.

The parity series P(q) = sum p(n) q^n is the reciprocal of Euler's
product (q;q)_inf.  Mod 2 it satisfies

    P(q) = f_8(q) * P(q^4),

because 1/(q;q) = (q;q)^3 / (q;q)^4, (q;q)^3 = f_8 mod 2 (Jacobi's
congruence, checked as euler_jacobi_check(3) by
test_euler_jacobi_check_small and acceptance criterion 02), and
(q;q)^4 = (q^4;q^4) mod 2 by two Frobenius squarings g(q) -> g(q^2).
So P to precision m follows from P to precision ceil(m/4): the levels
run at ceil(N/4^j) terms for j from about log4 N down to 0, so the last
two are N and ceil(N/4), never a power of 4 clipped to N.

A level pads the k known bits with zeros to m <= 4k terms and squares
twice.  The second square reads only the low ceil(m/2) bits of the
first, and those come from the low ceil(m/4) <= k bits of the padded
series, so the padding never reaches the result.

The Ballantine-Merca check compares P*f_a with f_b by
gf2series.product_first_difference, the classification's comparison:
it walks f_a's support over P's bytes from f_b's bits, so P*f_a is never
built.

The ten pairs (a, b) with 1/a = 1/b + 1/24, and which of them hold,
follow from the classification.  Since P*(q;q) = 1 and (q;q) = f_24
mod 2, P*f_a = f_b exactly when f_a = f_b*f_24, so a pair holds exactly
when (a, min(b, 24), max(b, 24)) is one of theorem_prediction's triples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .classify import Triple, theorem_prediction
from .gf2series import Gf2Series, product_first_difference
from .numth import divisors, egyptian_a
from .theta import theta_exponents, theta_series


@lru_cache(maxsize=8)
def _parity_bits(n_terms: int) -> int:
    levels = [n_terms]
    while levels[-1] > 1:
        levels.append(-(-levels[-1] // 4))
    p = Gf2Series.one(1)  # P to precision 1
    for m in reversed(levels[:-1]):
        p = Gf2Series(m, p.bits).square().square().mul(theta_series(8, m))
    return p.bits


def partition_parity(n_terms: int) -> Gf2Series:
    """Series whose coefficient n is p(n) mod 2, for n < n_terms.

    The packed bits are cached per truncation; each call wraps them in a
    fresh series, so its lazily built support is freed with the caller's
    result rather than held by the cache.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    return Gf2Series(n_terms, _parity_bits(n_terms))


def bm_first_failure(a: int, b: int, n_max: int) -> Optional[int]:
    """Smallest n <= n_max where the Ballantine-Merca property for (a, b)
    fails, or None.

    The property: sum of p(n-k) over k <= n with a*k+1 square is odd
    exactly when b*n+1 is a square.  The left side for all n at once is
    the product of the parity series with f_a, so the witness is the first
    difference between that product and f_b, found without building the
    product (see the module docstring).
    """
    if a < 1 or b < 1 or n_max < 1:
        raise ValueError("a, b, n_max must be positive")
    n_terms = n_max + 1
    return product_first_difference(
        theta_exponents(b, n_terms), theta_exponents(a, n_terms),
        partition_parity(n_terms).byte_array(), n_terms)


def _bm_pairs() -> tuple[tuple, tuple]:
    """The ten pairs whose triple the theorem holds, and the rest."""
    holds = set(theorem_prediction(576))
    # 1/a = 1/b + 1/24 exactly when b + 24 divides 24^2 = 576
    pairs = [(egyptian_a(d - 24, 24), d - 24) for d in divisors(576) if d > 24]
    held = tuple((a, b) for a, b in pairs
                 if Triple(a, min(b, 24), max(b, 24)) in holds)
    return held, tuple(p for p in pairs if p not in held)


# Ballantine-Merca's seven conjectured pairs and the three refuted ones,
# ascending in b, as the classification decides them (module docstring).
BM_CONJECTURED_PAIRS, BM_REFUTED_PAIRS = _bm_pairs()
