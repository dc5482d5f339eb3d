"""Integer and character-theoretic utilities shared by the other modules.

Everything here is a pure function on plain integers; Python's arbitrary
precision arithmetic means quantities like y^2 with y up to isqrt(m*N)
never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional


@dataclass(frozen=True)
class ResidueClass:
    """The congruence class q mod Q.

    Coprimality gcd(q, Q) = 1 is required where a class feeds a prime
    search (Dirichlet), but is not enforced here: a class such as 9 mod 12
    is still a valid congruence, and primes_in_class rejects it.
    """

    q: int
    Q: int

    def __post_init__(self):
        if self.Q < 1:
            raise ValueError(f"modulus must be positive, got {self.Q}")
        if not 0 <= self.q < self.Q:
            raise ValueError(f"residue {self.q} out of range for modulus {self.Q}")

    def is_coprime(self) -> bool:
        return gcd(self.q, self.Q) == 1

    def __str__(self):
        return f"{self.q} mod {self.Q}"


def is_square(n: int) -> Optional[int]:
    """Return the non-negative root r with r*r == n, or None."""
    if n < 0:
        raise ValueError("is_square expects n >= 0")
    r = isqrt(n)
    return r if r * r == n else None


def egyptian_a(b: int, c: int) -> Optional[int]:
    """The integer a with 1/a = 1/b + 1/c, or None."""
    if b < 1 or c < 1:
        raise ValueError("b and c must be positive")
    a, rem = divmod(b * c, b + c)
    return a if rem == 0 else None


def vp(n: int, p: int) -> int:
    """p-adic valuation: the largest e with p^e | n.  Rejects n = 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; equals Legendre for prime n.

    Standard binary reciprocity reduction; (a/1) = 1 for all a.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    sign = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


# Miller-Rabin with the first twelve prime bases is exact below psi_12,
# the smallest strong pseudoprime to all of them; psi_12 itself needs
# base 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461  # psi_12 = 399165290221 * 798330580441


def is_prime(n: int) -> bool:
    """Deterministic primality for n < psi_12 ~ 3.19 * 10^23 (0 and 1 are
    not prime).  Raises ValueError at and above psi_12, where these
    bases stop being a proof."""
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is deterministic only below {_MR_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_class(cls: ResidueClass, count: int) -> list[int]:
    """The `count` smallest primes p = q (mod Q), ascending."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not cls.is_coprime():
        raise ValueError(f"{cls} is not coprime; no Dirichlet progression")
    out = []
    x = cls.q
    while len(out) < count:
        if x >= 2 and is_prime(x):
            out.append(x)
        x += cls.Q
    return out


def squarefree_part(n: int) -> int:
    """Product of the primes dividing n to an odd power (trial division)."""
    if n < 1:
        raise ValueError("squarefree_part expects n >= 1")
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2 == 1:
                out *= d
        d += 1
    return out * n  # leftover n is prime (exponent 1) or 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors expects n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
