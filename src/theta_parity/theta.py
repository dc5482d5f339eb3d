"""Theta series f_m and the Euler product mod 2.

f_m is the series whose q^k coefficient is 1 exactly when m*k + 1 is a
perfect square.  Those squares are y^2 with y^2 = 1 (mod m), so the
support is built in numpy from the square roots r of 1 mod m: every y is
r plus a multiple of m.  The cost is O(min(m, sqrt(m*N))) for the roots
plus O(|support|), which is what makes N = 10^9 supports cheap.  When
the N indices are fewer than the roots, each is tested directly;
theta_rows runs that test for many m at once, into packed rows.  The
arithmetic is int64, exact for m*N < 2^63; larger inputs raise
ValueError.  By Frobenius, (q;q)_inf^a mod 2 is the product of the twists
eta(q^t) over the powers of two t in a, each a scaled pentagonal support.
"""

from __future__ import annotations

from functools import reduce
from math import isqrt
from typing import Optional

import numpy as np

from .gf2series import Gf2Series, support_first_difference
from .numth import _is_square_array

# Exponents a with (q;q)_inf^a congruent to f_{24/a} mod 2.  Other
# exponents are rejected rather than extrapolated.
EULER_JACOBI_EXPONENTS = (1, 2, 3, 4, 6)

_INT64_LIMIT = 1 << 63
# Candidate roots scanned per numpy step; bounds the scan's memory.
_ROOT_CHUNK = 1 << 16
# Indices tested directly per numpy step, a multiple of 8 so that a row
# split across steps packs into whole bytes; theta_rows(range(1, 201),
# 2009) took 1.7 ms at 2^14, 3.8 ms at 2^15 (best of 30, 2-core Xeon).
_ROW_CHUNK = 1 << 14


def _chunks(lo: int, hi: int, step: int):
    """np.arange(lo, hi) as int64 pieces of step entries (the last may
    be shorter), so a scan holds one piece at a time."""
    for s in range(lo, hi, step):
        yield np.arange(s, min(s + step, hi), dtype=np.int64)


def theta_rows(ms, width: int) -> np.ndarray:
    """The first width coefficients of f_m for each m in ms, packed.

    Row i holds little-endian bytes, bit k set exactly when ms[i]*k + 1
    is a perfect square (k < width), zero-padded to whole 64-bit words.
    Every index is tested directly, _ROW_CHUNK at a time (whole rows, or
    one row's slice of whole bytes).  Raises ValueError unless
    m*width < 2^63 for every m, the range where int64 is exact.
    """
    ms = np.asarray(ms)
    if width < 1 or (ms.size and ms.min() < 1):
        raise ValueError("m and width must be positive")
    if ms.size and int(ms.max()) * width >= _INT64_LIMIT:
        raise ValueError("m*width must be below 2^63")
    ms = ms.astype(np.int64).reshape(-1, 1)
    out = np.zeros((len(ms), 8 * ((width + 63) >> 6)), dtype=np.uint8)
    step = min(width, _ROW_CHUNK)
    rows = _ROW_CHUNK // step
    for k in _chunks(0, width, step):
        cols = slice(k[0] >> 3, (k[-1] + 8) >> 3)
        for r in range(0, len(ms), rows):
            out[r:r + rows, cols] = np.packbits(
                _is_square_array(ms[r:r + rows] * k + 1), axis=1,
                bitorder="little")
    return out


def theta_exponents(m: int, n_terms: int) -> np.ndarray:
    """All k < n_terms with m*k + 1 a perfect square, ascending.

    With lim = isqrt(m*N), the qualifying y = sqrt(m*k + 1) <= lim are
    r + j*m for the roots r in [1, min(m, lim)] of r^2 = 1 (mod m), found
    by a numpy scan in chunks of _ROOT_CHUNK, so memory stays
    O(chunk + |support|) however large m is.  Each root lies in [1, m],
    so rows j*m + roots are ascending and their concatenation is sorted
    and duplicate-free.  When N < min(m, lim), fewer indices than roots
    are candidates, so each k < N is tested directly, _ROW_CHUNK at a
    time.  Returns an int64 array; raises ValueError unless
    m*N < 2^63, the range where int64 is exact.
    """
    if m < 1 or n_terms < 1:
        raise ValueError("m and n_terms must be positive")
    if m * n_terms >= _INT64_LIMIT:
        raise ValueError("m*n_terms must be below 2^63")
    lim = isqrt(m * n_terms)  # y^2 <= m*N  <=>  k < N
    top = min(m, lim)
    if n_terms < top:
        return np.concatenate([k[_is_square_array(m * k + 1)]
                               for k in _chunks(0, n_terms, _ROW_CHUNK)])
    roots = np.concatenate([r[(r * r - 1) % m == 0]
                            for r in _chunks(1, top + 1, _ROOT_CHUNK)])
    y = (np.arange(0, lim + 1, m, dtype=np.int64)[:, None] + roots).ravel()
    y = y[y <= lim]
    return (y * y - 1) // m


def theta_series(m: int, n_terms: int) -> Gf2Series:
    return Gf2Series.from_support(theta_exponents(m, n_terms), n_terms)


def eta_support(n_terms: int) -> np.ndarray:
    """Generalized pentagonal numbers j(3j+-1)/2 below n_terms, ascending.

    Mod 2 the signs in Euler's expansion of (q;q)_inf collapse, leaving
    exactly this support.  Since j(3j-1)/2 < j(3j+1)/2 < (j+1)(3j+2)/2,
    the values at k = 0, 1, -1, 2, -2, ... of k(3k-1)/2 ascend; every
    j(3j-1)/2 < N has j <= isqrt(N).  Returns an int64 array.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    j = np.arange(1, isqrt(n_terms) + 1, dtype=np.int64)
    k = np.concatenate(([0], np.stack([j, -j], axis=1).ravel()))
    g = k * (3 * k - 1) // 2
    return g[:np.searchsorted(g, n_terms)]


def _eta_twists(a: int, n_terms: int) -> list:
    """The supports t*eta_support(ceil(N/t)) of eta(q^t) below N, for the
    powers of two t in a; g(q)^2 = g(q^2) mod 2 makes their product eta^a."""
    if a not in EULER_JACOBI_EXPONENTS:
        raise ValueError(f"exponent {a} outside {EULER_JACOBI_EXPONENTS}")
    return [t * eta_support(-(-n_terms // t)) for t in (1, 2, 4) if a & t]


def eta_power_series(a: int, n_terms: int) -> Gf2Series:
    """(q;q)_inf^a mod 2, truncated; a in {1,2,3,4,6}: one twist, or the
    one multiply of two for a in {3, 6}."""
    return reduce(Gf2Series.mul, (Gf2Series.from_support(s, n_terms)
                                  for s in _eta_twists(a, n_terms)))


def euler_jacobi_check(a: int, n_terms: int) -> Optional[int]:
    """First index where (q;q)_inf^a differs from f_{24/a} below N, or None.

    Compares supports, so no series is built.  A witness must never
    occur for a in {1,2,3,4,6}.
    """
    twists = _eta_twists(a, n_terms)  # first: N < 1 raises eta_support's error
    return support_first_difference(theta_exponents(24 // a, n_terms), twists, n_terms)
