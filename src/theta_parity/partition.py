"""Partition-function parity and the Ballantine-Merca recurrence check.

p(n) mod 2 is computed with the pentagonal-number recurrence (the signs
vanish mod 2): bit n is the XOR of bits n - g over nonzero generalized
pentagonal g <= n.  The per-n XOR over ~sqrt(24n)/3 offsets is evaluated
as a vectorized gather; total cost O(N^1.5) bit operations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .gf2series import Gf2Series
from .theta import eta_support, theta_series


@lru_cache(maxsize=8)
def _parity_bits(n_terms: int) -> int:
    pents = np.array([g for g in eta_support(n_terms) if g > 0], dtype=np.int64)
    bits = np.zeros(n_terms, dtype=np.uint8)
    bits[0] = 1  # p(0) = 1
    if len(pents):
        # number of usable offsets per n, so the gather slices stay exact
        counts = np.searchsorted(pents, np.arange(n_terms), side="right")
        xor_reduce = np.bitwise_xor.reduce
        for n in range(1, n_terms):
            bits[n] = xor_reduce(bits[n - pents[: counts[n]]])
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


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
