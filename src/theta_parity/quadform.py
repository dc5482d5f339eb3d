"""Representation counting for the constrained forms c'y^2 + b'z^2, the
residue-class and solution-pair lemmas, and the Weber-prime refutation
search.

The refutation search walks the values u^2 + D*v^2 in ascending order,
one numpy annulus at a time.  It yields only the representations it can
use, p = 1 (mod L) with gcd(u, D) = 1, and for L <= 2^16 builds only the
points with p = 1 (mod L), from a table of the square roots mod L.  Each
annulus is sized by the points it builds, not by every lattice point it
spans, so a search for a dozen primes walks one or two annuli.  The
other points still count toward the search's ceiling on
representations, by the row counts of each annulus.

Conventions: a triple (a, b, c) pairs y with b and z with c, i.e. the
counted representations satisfy b | y^2 - 1 and c | z^2 - 1, and the
exponent-level identity is c*y^2 + b*z^2 = b*c*k + b + c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, isqrt, lcm
from typing import Iterator, Optional

import numpy as np

from .numth import (ResidueClass, _isqrt_array, _ragged_arange, divisors,
                    egyptian_a, is_prime, is_square, jacobi, primes_in_class,
                    squarefree_part, vp)


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
    for u in range((s - 1) % M + 1, bound + 1, M):
        for v in range((t - 1) % M + 1, bound + 1, M):  # p rises with v
            p = u * u + D * v * v
            if is_prime(p):
                best = min(best, (p, u, v)) if best else (p, u, v)
                break
    if best is None:
        return None
    return WeberPrime(best[0], best[1], best[2], D)


# The walk halves an annulus until it builds at most about this many
# points (congruent ones only when L <= _RESIDUE_TABLE_MAX) and ends
# within the rank limit, so its memory is bounded however many lattice
# points it ranks.
_ANNULUS_POINTS = 1 << 18
# The walk's first annulus ends at this multiple of L.  About one lattice
# point in L is congruent, so the first annulus holds the dozen primes a
# search examines: each of classify's 47 searches ends within it.
_FIRST_ANNULUS = 256
# Below this, u^2 + D*v^2 is exact in int64; beyond it the walk falls
# back to Python integers.
_INT64_SAFE = 1 << 62
# Largest modulus whose residue table the walk builds; the table's
# uint16 keys hold every square mod M up to this.
_RESIDUE_TABLE_MAX = 1 << 16
# weber_reject considers only the representations of rank at most this
# among all u^2 + D*v^2, so a walk whose congruent primes lie far out
# (L = 2^40, say) ends.  Each of classify's 47 searches finds its
# certificate or examines its dozen primes well below it.
WEBER_MAX_RANK = 2_000_000


def _row_bounds(D: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per v >= 1: v, u_lo and the number of u in (u_lo, u_hi], the
    u-range with lo < u^2 + D*v^2 <= hi.  Python integers (object
    dtype) once D or hi reaches _INT64_SAFE: D*v^2 overflows int64 for a
    large D even when no row fits below hi."""
    dtype = np.int64 if max(D, hi) < _INT64_SAFE else object
    v = np.arange(1, isqrt((hi - 1) // D) + 1).astype(dtype)
    dv2 = D * v * v
    u_lo = _isqrt_array(np.maximum(lo - dv2, 0))
    counts = _isqrt_array(hi - dv2) - u_lo
    return v, u_lo, counts.astype(np.int64)


def _annulus_runs(D: int, lo: int, hi: int, squares: np.ndarray,
                  roots: np.ndarray) -> tuple[int, np.ndarray, np.ndarray,
                                              np.ndarray]:
    """The annulus lo < p <= hi as runs of points to build.

    Returns its lattice count and, per row v and root r of 1 - D*v^2
    mod M (M = len(roots)), the run's v, its smallest u > u_lo with
    u = r (mod M) and its number n_u of such u in the row's u-range, so
    n_u.sum() points will be built.  For M = 1 each row is one run.
    """
    M = len(roots)
    v, u_lo, counts = _row_bounds(D, lo, hi)
    size = int(counts.sum())
    if M == 1:  # every point is built, without the table's temporaries
        return size, v, u_lo + 1, counts
    vm = (v % M).astype(np.int64)
    target = ((1 - (D % M) * (vm * vm % M)) % M).astype(np.uint16)
    first = np.searchsorted(squares, target, side="left")
    n_roots = np.searchsorted(squares, target, side="right") - first
    row = np.repeat(np.arange(len(v)), n_roots)
    r = roots[_ragged_arange(first, n_roots)]
    # the smallest u > u_lo with u = r (mod M), and how many fit
    u0 = u_lo[row] + 1 + (r - u_lo[row] - 1) % M
    n_u = (((u_lo + counts)[row] - u0) // M + 1).astype(np.int64)
    return size, v[row], u0, n_u


def _congruent_representations(D: int, L: int,
                               limit: int) -> Iterator[tuple[int, int, int]]:
    """(p, u, v) with p = u^2 + D*v^2, u, v >= 1, p = 1 (mod L) and
    gcd(u, D) = 1, in ascending (p, u) order, among the first `limit`
    representations of all u, v >= 1 in that order.

    Only lattice points with u^2 = 1 - D*v^2 (mod M) are built, where
    M = L when L <= _RESIDUE_TABLE_MAX and M = 1 otherwise.  The residue
    table sorts u^2 mod M over u in [0, M) once (uint16 keys, so numpy
    radix-sorts them); for each row v, searchsorted finds the residues r
    whose square is 1 - D*v^2 mod M, with D reduced mod M first, and the
    row yields u = r + j*M in its u-range (_annulus_runs).  For M = L
    those points are exactly the congruent ones.  For M = 1 the table is
    the single residue 0 and every point is built, so the p = 1 (mod L)
    filter that follows does the work.

    Walks annuli lo < p <= hi.  `below` counts the representations with
    p <= lo, congruent or not, so a point's rank is `below` plus its
    place in its annulus.  _annulus_runs counts an annulus's lattice
    points and the points it will build before building any, and the
    annulus halves its width while it would build more than
    _ANNULUS_POINTS points or while its lattice points would carry the
    rank past `limit`.  Halving, unlike a cut in proportion to the
    count, also crosses the empty gap below 1 + D in few steps when D is
    large.  The first hi is _FIRST_ANNULUS * L, and each later annulus
    tries to double hi, but not past `top`, the last end found to pass
    `limit`: the annuli that close in on `limit` are one bisection, and
    each is yielded as soon as it fits.  If the halving stops at
    hi = lo + 1 with `limit` still passed, every point is at p = hi; of
    those, only the ones whose u is among the (limit - below) smallest u
    of the lattice points at hi are kept.

    _row_bounds builds a row for every v <= sqrt(hi/D).  The first hi is
    capped at D * _ANNULUS_POINTS**2 and every later one is at most
    2*lo, so an annulus has at most _ANNULUS_POINTS rows or about
    sqrt(2*lo/D), whichever is more: memory stays bounded however large
    L is, and grows only with the square root of the values `limit`
    reaches.  Halving cannot bound the rows further, since every annulus
    above lo has about sqrt(lo/D) of them.
    """
    M = L if L <= _RESIDUE_TABLE_MAX else 1
    squares = (np.arange(M, dtype=np.int64) ** 2 % M).astype(np.uint16)
    roots = np.argsort(squares, kind="stable")
    squares = squares[roots]
    lo, below, top = 0, 0, inf
    hi = max(64, min(_FIRST_ANNULUS * L, D * _ANNULUS_POINTS ** 2))
    while below < limit:
        size, v, u0, n_u = _annulus_runs(D, lo, hi, squares, roots)
        while ((n_u.sum() > _ANNULUS_POINTS or below + size > limit)
               and hi - lo > 1):
            if below + size > limit:
                top = hi
            hi = lo + (hi - lo) // 2
            size, v, u0, n_u = _annulus_runs(D, lo, hi, squares, roots)
        u = _ragged_arange(u0, n_u, M)
        v = np.repeat(v, n_u)
        p = u * u + D * v * v
        keep = (p % L == 1) & (np.gcd(u, D) == 1)
        if below + size > limit:  # hi = lo + 1: every point is at p = hi
            _, u_lo, counts = _row_bounds(D, lo, hi)
            tied = np.sort((u_lo + counts)[counts == 1])
            keep &= u <= tied[limit - below - 1]
        p, u, v = p[keep], u[keep], v[keep]
        order = np.lexsort((u, p))
        yield from zip(p[order].tolist(), u[order].tolist(), v[order].tolist())
        lo, below, hi = hi, below + size, min(2 * hi, top)


def weber_reject(b: int, c: int, bound: int) -> Optional[WeberCertificate]:
    """Search for a Weber-prime refutation of f_a = f_b*f_c.

    Candidates are primes p = u^2 + b'c'v^2 with p = 1 (mod lcm(a,b,c))
    and gcd(u, b'c') = 1, taken in ascending (p, u) order; `bound` caps
    how many are examined.  WEBER_MAX_RANK caps the rank of a
    representation among all u^2 + b'c'v^2 with u, v >= 1 in that order,
    congruent or not: only representations of rank <= WEBER_MAX_RANK are
    considered, and the ranks are counted without building the points.
    When lcm(a,b,c) <= 2^16, only the congruent points are generated;
    above that, every point is built and then filtered.  For
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
    for p, u, v in _congruent_representations(D, L, WEBER_MAX_RANK):
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
