"""Partition-function parity and the Ballantine-Merca recurrence check.

The parity series sum p(n) q^n is the reciprocal of Euler's product
(q;q)_inf, and mod 2 that product is e = sum of q^g over the generalized
pentagonal numbers g.  The reciprocal is computed by Newton inversion in
characteristic 2 (Kung 1974): if e*g = 1 mod q^m, then g' = e*g(q^2)
satisfies e*g' = (e*g)^2 = 1 mod q^2m, because squaring is the Frobenius
map g(q) -> g(q^2).  Each step doubles the precision m, so about log2 N
steps suffice.  A step is one linear-time square of a bit vector and a
shift-xor comb over the O(sqrt m) pentagonal terms below m: O(m^1.5 / 64)
word operations, so the last step dominates.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Optional

from .gf2series import Gf2Series
from .theta import eta_support, theta_series


@lru_cache(maxsize=8)
def _parity_bits(n_terms: int) -> int:
    eta = eta_support(n_terms)
    g = Gf2Series.one(1)  # 1/e to precision 1
    while g.n_terms < n_terms:
        m = min(2 * g.n_terms, n_terms)
        e = Gf2Series.from_support(eta[:bisect_left(eta, m)], m)
        # g(q^2) to precision m reads only the ceil(m/2) <= g.n_terms known bits
        g = Gf2Series(m, g.bits).square()._mul_comb(e)
    return g.bits


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
    difference between that product and f_b.
    """
    if a < 1 or b < 1 or n_max < 1:
        raise ValueError("a, b, n_max must be positive")
    n_terms = n_max + 1
    lhs = partition_parity(n_terms).mul(theta_series(a, n_terms))
    rhs = theta_series(b, n_terms)
    return lhs.first_difference(rhs)


# The ten (a, b) pairs with 1/a = 1/b + 1/24: Ballantine-Merca's seven
# conjectured pairs plus the three refuted by the series check.
BM_CONJECTURED_PAIRS = ((6, 8), (8, 12), (12, 24), (15, 40), (16, 48),
                        (20, 120), (21, 168))
BM_REFUTED_PAIRS = ((18, 72), (22, 264), (23, 552))
