"""Theta series f_m and the Euler product mod 2.

f_m is the series whose q^k coefficient is 1 exactly when m*k + 1 is a
perfect square.  Supports are generated by iterating the square root y
rather than scanning k: cost O(sqrt(m*N)) per series, which is what makes
N = 10^6 sweeps cheap.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from .gf2series import Gf2Series

# Exponents a with (q;q)_inf^a congruent to f_{24/a} mod 2.  Other
# exponents are rejected rather than extrapolated.
EULER_JACOBI_EXPONENTS = (1, 2, 3, 4, 6)


def theta_support(m: int, n_terms: int) -> tuple:
    """All k < n_terms with m*k + 1 a perfect square, ascending.

    Iterates y = 1, 2, ... keeping y with m | y^2 - 1; each qualifying y
    yields k = (y^2 - 1)/m, strictly increasing in y, so the result is
    already sorted and duplicate-free.
    """
    if m < 1 or n_terms < 1:
        raise ValueError("m and n_terms must be positive")
    out = []
    lim = isqrt(m * n_terms)  # y^2 <= m*N  <=>  k < N
    for y in range(1, lim + 1):
        r = y * y - 1
        if r % m == 0:
            out.append(r // m)
    return tuple(out)


def theta_series(m: int, n_terms: int) -> Gf2Series:
    return Gf2Series.from_support(theta_support(m, n_terms), n_terms)


def eta_support(n_terms: int) -> tuple:
    """Generalized pentagonal numbers j(3j+-1)/2 below n_terms, ascending.

    Mod 2 the signs in Euler's expansion of (q;q)_inf collapse, leaving
    exactly this support.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    out = [0]
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        if g1 >= n_terms:
            break
        out.append(g1)
        g2 = j * (3 * j + 1) // 2
        if g2 < n_terms:
            out.append(g2)
        j += 1
    return tuple(out)


def eta_series(n_terms: int) -> Gf2Series:
    return Gf2Series.from_support(eta_support(n_terms), n_terms)


def eta_power_series(a: int, n_terms: int) -> Gf2Series:
    """(q;q)_inf^a mod 2, truncated; a in {1,2,3,4,6}.

    Computed by Frobenius squaring chains: a=2,4 by repeated squaring,
    a=3 as square times base, a=6 as the square of a=3.
    """
    if a not in EULER_JACOBI_EXPONENTS:
        raise ValueError(f"exponent {a} outside {EULER_JACOBI_EXPONENTS}")
    e1 = eta_series(n_terms)
    if a == 1:
        return e1
    e2 = e1.square()
    if a == 2:
        return e2
    if a == 4:
        return e2.square()
    e3 = e2.mul(e1)
    if a == 3:
        return e3
    return e3.square()  # a == 6


def euler_jacobi_check(a: int, n_terms: int) -> Optional[int]:
    """First index where (q;q)_inf^a differs from f_{24/a} below N, or None.

    A witness must never occur for a in {1,2,3,4,6}.
    """
    lhs = eta_power_series(a, n_terms)
    rhs = theta_series(24 // a, n_terms)
    return lhs.first_difference(rhs)
