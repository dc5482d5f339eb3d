"""Representation counting for the constrained forms c'y^2 + b'z^2, the
residue-class and solution-pair lemmas, and the Weber-prime refutation
search.

The refutation search walks the values u^2 + D*v^2 in ascending order,
one numpy annulus at a time.  It yields only the representations it can
use, p = 1 (mod L) with gcd(u, D) = 1; the others still count toward the
search's ceiling on representations.

Conventions: a triple (a, b, c) pairs y with b and z with c, i.e. the
counted representations satisfy b | y^2 - 1 and c | z^2 - 1, and the
exponent-level identity is c*y^2 + b*z^2 = b*c*k + b + c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Iterator, Optional

import numpy as np

from .numth import (ResidueClass, divisors, egyptian_a, is_prime, is_square,
                    jacobi, primes_in_class, squarefree_part, vp)


@dataclass(frozen=True)
class SolutionPair:
    """A non-negative solution (y, z) of c'y^2 + b'z^2 = target.

    Lemma-level callers needing y, z >= 1 filter afterward; the
    enumerator below stays a faithful brute-force oracle and reports
    boundary pairs with y = 0 or z = 0 when the gcd constraints allow.
    """

    y: int
    z: int


@dataclass(frozen=True)
class WeberPrime:
    """A prime p = u^2 + D*v^2 with positive u, v."""

    p: int
    u: int
    v: int
    D: int

    def __post_init__(self):
        if self.u < 1 or self.v < 1 or self.D < 1:
            raise ValueError("u, v, D must be positive")
        if self.p != self.u ** 2 + self.D * self.v ** 2:
            raise ValueError(f"{self.p} != {self.u}^2 + {self.D}*{self.v}^2")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if gcd(self.p, self.D) != 1:
            raise ValueError(f"p={self.p} shares a factor with D={self.D}")


@dataclass(frozen=True)
class WeberCertificate:
    """Refutation certificate for f_a = f_b*f_c from a Weber prime.

    At coefficient index k = (p - 1)/a the product f_b*f_c has an odd
    number of representations (exactly one of the two lemma pairs meets
    the divisibility constraints, confirmed by repcount), while
    a*k + 1 = p is prime, hence not a square.
    """

    prime: WeberPrime
    passing_pair: SolutionPair
    failing_pair: SolutionPair
    index: int


def repcount(b: int, c: int, k: int) -> int:
    """#{(i,j) : i+j = k, b*i+1 and c*j+1 both squares}.

    Its parity is the coefficient of q^k in f_b*f_c.  Enumerates the
    root y of b*i+1 (i = (y^2-1)/b <= k iff y^2 <= b*k+1) and tests the
    complementary index.
    """
    if b < 1 or c < 1 or k < 0:
        raise ValueError("b, c must be positive and k non-negative")
    count = 0
    for y in range(1, isqrt(b * k + 1) + 1):
        r = y * y - 1
        if r % b == 0 and is_square(c * (k - r // b) + 1) is not None:
            count += 1
    return count


def lemma34_solutions(b_p: int, c_p: int, target: int) -> list[SolutionPair]:
    """All (y, z) >= 0 with c'y^2 + b'z^2 = target, gcd(y, b') = 1 and
    gcd(z, c') = 1, by exhaustive scan over y."""
    if b_p < 1 or c_p < 1 or target < 1:
        raise ValueError("b_p, c_p, target must be positive")
    if gcd(b_p, c_p) != 1:
        raise ValueError("b_p and c_p must be coprime")
    out = []
    for y in range(isqrt(target // c_p) + 1):
        rem = target - c_p * y * y
        if rem % b_p:
            continue
        z = is_square(rem // b_p)
        if z is not None and gcd(y, b_p) == 1 and gcd(z, c_p) == 1:
            out.append(SolutionPair(y, z))
    return out


def lemma34_pairs(b_p: int, c_p: int, u: int, v: int) -> tuple[SolutionPair, SolutionPair]:
    """The two predicted solutions of c'y^2 + b'z^2 = (b'+c')p for
    p = u^2 + b'c'v^2, folded to non-negative representatives."""
    return (SolutionPair(abs(u - b_p * v), abs(u + c_p * v)),
            SolutionPair(abs(u + b_p * v), abs(u - c_p * v)))


def lemma34_check(b_p: int, c_p: int, u: int, v: int) -> bool:
    """True iff the exhaustive solution set of c'y^2 + b'z^2 = (b'+c')p
    equals exactly the two predicted pairs.

    Caller guarantees the applicability hypotheses: p prime and coprime
    to b'c', and gcd(u, b'c') = 1 (equivalently gcd(u +- b'v, b') =
    gcd(u +- c'v, c') = 1).  Note the dichotomy behind the prediction
    additionally needs (b'+c')/b' and (b'+c')/c' to be non-squares;
    shapes like (b', c') = (1, 3) admit a third solution (2b'v, 2u).
    """
    p = u * u + b_p * c_p * v * v
    if not is_prime(p):
        raise ValueError(f"u^2 + b'c'v^2 = {p} is not prime")
    predicted = set(lemma34_pairs(b_p, c_p, u, v))
    found = set(lemma34_solutions(b_p, c_p, (b_p + c_p) * p))
    return found == predicted


def lemma32_residue(u: int, v: int, strict: bool = False) -> ResidueClass:
    """Smallest residue q mod Q = lcm(8, u, v), coprime to Q, such that
    every prime p = q (mod Q) has u | p^2 - 1 and (-v/p) = -1.

    The quadratic character of -v in p depends only on p mod lcm(8, v),
    which divides Q, so it can be evaluated on the class representative
    with the Jacobi symbol.  In strict mode (v having a prime divisor
    3 mod 4 and 8 | u) the class additionally pins v2(p^2 - 1) = v2(Q).
    The returned class is re-certified on its first five actual primes.
    """
    if u < 1 or v < 1:
        raise ValueError("u and v must be positive")
    if squarefree_part(v) != v:
        raise ValueError(f"v = {v} is not squarefree")
    if strict:
        if u % 8 != 0:
            raise ValueError("strict mode needs 8 | u")
        if not any(q % 4 == 3 and is_prime(q) for q in divisors(v)):
            raise ValueError("strict mode needs a prime divisor of v that is 3 mod 4")
    Q = lcm(8, u, v)
    v2Q = vp(Q, 2)
    for q in range(1, Q, 2):  # 8 | Q, so units mod Q are odd
        if gcd(q, Q) != 1:
            continue
        if jacobi(-v, q) != -1:
            continue
        t = q * q - 1  # q > 1 here: q = 1 fails the character test
        if t % u != 0:
            continue
        if strict and vp(t, 2) != v2Q:
            continue
        cls = ResidueClass(q, Q)
        for p in primes_in_class(cls, 5):
            if (p * p - 1) % u != 0 or jacobi(-v, p) != -1:
                raise ArithmeticError(f"class {cls} failed certification at p={p}")
            if strict and vp(p * p - 1, 2) != v2Q:
                raise ArithmeticError(f"class {cls} failed strict certification at p={p}")
        return cls
    raise ArithmeticError(f"no residue class mod {Q} satisfies the constraints")


def find_weber_prime(D: int, s: int, t: int, M: int,
                     bound: int) -> Optional[WeberPrime]:
    """Smallest prime p = u^2 + D*v^2 with u = s, v = t (mod M) and
    1 <= u, v <= bound; ties broken by u.  None if the region has none."""
    if D < 1 or M < 1 or bound < 1:
        raise ValueError("D, M, bound must be positive")
    best = None
    for u in range(1, bound + 1):
        if u % M != s % M:
            continue
        for v in range(1, bound + 1):
            if v % M != t % M:
                continue
            p = u * u + D * v * v
            if best is not None and p >= best[0] and (p, u) >= best[:2]:
                continue
            if is_prime(p):
                cand = (p, u, v)
                if best is None or cand[:2] < best[:2]:
                    best = cand
    if best is None:
        return None
    return WeberPrime(best[0], best[1], best[2], D)


# An annulus holds at most about this many lattice points, so the walk's
# memory is bounded however far `limit` reaches.
_ANNULUS_POINTS = 1 << 18
# Below this, u^2 + D*v^2 and the float-seeded square roots are exact in
# int64; beyond it the walk falls back to Python integers.
_INT64_SAFE = 1 << 62


def _isqrt_array(x: np.ndarray) -> np.ndarray:
    """Elementwise floor square root of a non-negative integer array."""
    if x.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(x)
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _row_bounds(D: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per v >= 1: v, u_lo and the number of u in (u_lo, u_hi], the
    u-range with lo < u^2 + D*v^2 <= hi."""
    dtype = np.int64 if hi < _INT64_SAFE else object
    v = np.arange(1, isqrt((hi - 1) // D) + 1).astype(dtype)
    dv2 = D * v * v
    u_lo = _isqrt_array(np.maximum(lo - dv2, 0))
    counts = _isqrt_array(hi - dv2) - u_lo
    return v, u_lo, counts.astype(np.int64)


def _congruent_representations(D: int, L: int,
                               limit: int) -> Iterator[tuple[int, int, int]]:
    """(p, u, v) with p = u^2 + D*v^2, u, v >= 1, p = 1 (mod L) and
    gcd(u, D) = 1, in ascending (p, u) order, among the first `limit`
    representations of all u, v >= 1 in that order.

    Walks annuli lo < p <= hi.  `below` counts the representations with
    p <= lo, so a point's rank is `below` plus its place in its annulus,
    and the annulus that crosses `limit` keeps only its (limit - below)
    smallest (p, u).  Each annulus tries to double hi, then halves its
    width while its lattice count exceeds _ANNULUS_POINTS.  Halving,
    unlike a cut in proportion to the count, also crosses the empty gap
    below 1 + D in few steps when D is large.
    """
    lo, below, hi = 0, 0, max(64, 4 * L)
    while below < limit:
        v, u_lo, counts = _row_bounds(D, lo, hi)
        while counts.sum() > _ANNULUS_POINTS and hi - lo > 1:
            hi = lo + (hi - lo) // 2
            v, u_lo, counts = _row_bounds(D, lo, hi)
        size = int(counts.sum())
        offsets = np.cumsum(counts) - counts - u_lo - 1
        u = np.arange(size) - np.repeat(offsets, counts)
        v = np.repeat(v, counts)
        p = u * u + D * v * v
        keep = p % L == 1
        if below + size > limit:
            k = limit - below
            pk = np.partition(p, k - 1)[k - 1]
            tied = np.sort(u[p == pk])
            u_cut = tied[k - 1 - np.count_nonzero(p < pk)]
            keep &= (p < pk) | ((p == pk) & (u <= u_cut))
        p, u, v = p[keep], u[keep], v[keep]
        keep = np.gcd(u, D) == 1
        p, u, v = p[keep], u[keep], v[keep]
        order = np.lexsort((u, p))
        yield from zip(p[order].tolist(), u[order].tolist(), v[order].tolist())
        lo, below, hi = hi, below + size, 2 * hi


def weber_reject(b: int, c: int, bound: int, *,
                 max_enumerated: int = 2_000_000) -> Optional[WeberCertificate]:
    """Search for a Weber-prime refutation of f_a = f_b*f_c.

    Candidates are primes p = u^2 + b'c'v^2 with p = 1 (mod lcm(a,b,c))
    and gcd(u, b'c') = 1, taken in ascending (p, u) order; `bound` caps
    how many are examined.  `max_enumerated` caps the rank of a
    representation among all u^2 + b'c'v^2 with u, v >= 1 in that order,
    congruent or not: only representations of rank <= max_enumerated are
    considered, although only the congruent ones are generated.  For
    each, the two predicted pairs are tested against b | y^2-1 and
    c | z^2-1.  When exactly one passes, the representation count at
    index (p-1)/a is odd while a*k+1 = p is prime, hence non-square:
    a refutation.  The parity is re-confirmed by repcount at that index
    before the certificate is returned.  Absence of a certificate within
    the bound is inconclusive, never an acceptance.
    """
    if b < 1 or c < 1 or bound < 1:
        raise ValueError("b, c, bound must be positive")
    a = egyptian_a(b, c)
    if a is None:
        raise ValueError(f"(b, c) = ({b}, {c}) admits no integer a with 1/a = 1/b + 1/c")
    d = gcd(b, c)
    b_p, c_p = b // d, c // d
    D = b_p * c_p
    L = lcm(a, b, c)
    examined = 0
    for p, u, v in _congruent_representations(D, L, max_enumerated):
        if not is_prime(p):
            continue
        examined += 1
        pair1, pair2 = lemma34_pairs(b_p, c_p, u, v)
        ok1 = (pair1.y ** 2 - 1) % b == 0 and (pair1.z ** 2 - 1) % c == 0
        ok2 = (pair2.y ** 2 - 1) % b == 0 and (pair2.z ** 2 - 1) % c == 0
        if ok1 != ok2 and repcount(b, c, (p - 1) // a) % 2 == 1:
            passing, failing = (pair1, pair2) if ok1 else (pair2, pair1)
            return WeberCertificate(WeberPrime(p, u, v, D), passing, failing,
                                    (p - 1) // a)
        if examined >= bound:
            return None
    return None
