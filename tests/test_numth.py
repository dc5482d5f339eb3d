import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_parity.numth import (_MR_BASES, _MR_BOUND, _MR_PSI, ResidueClass,
                                _is_square_array, _isqrt_array, is_prime,
                                is_square, jacobi, primes_in_class,
                                squarefree_part, vp)


def test_is_square_examples():
    assert is_square(0) == 0
    assert is_square(1225) == 35  # 35*35 = 1225
    assert is_square(26) is None  # between 25 and 36


def test_is_square_agrees_with_square_set_to_1e5():
    limit = 10 ** 5
    squares = {r * r: r for r in range(math.isqrt(limit) + 1)}
    for n in range(limit + 1):
        r = is_square(n)
        if n in squares:
            assert r == squares[n]
        else:
            assert r is None


def test_is_square_rejects_negative():
    with pytest.raises(ValueError):
        is_square(-1)


def test_vp_examples():
    assert vp(48, 2) == 4
    assert vp(48, 3) == 1
    assert vp(5, 2) == 0


def test_vp_rejects_zero():
    with pytest.raises(ValueError):
        vp(0, 2)


def test_jacobi_examples():
    assert jacobi(-1, 5) == 1
    assert jacobi(2, 15) == 1   # (2/3)(2/5) = (-1)(-1)
    assert jacobi(3, 7) == -1   # squares mod 7 are {1,2,4}
    assert jacobi(123456, 1) == 1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, -5)
    with pytest.raises(ValueError):
        jacobi(3, 0)


def _odd_primes_below(n):
    return [p for p in range(3, n) if is_prime(p)]


def test_jacobi_matches_legendre_exhaustively_below_200():
    # (a/p) = 0 iff p | a, and 1 exactly on nonzero squares mod p
    for p in _odd_primes_below(200):
        squares = {(r * r) % p for r in range(1, p)}
        for a in range(2 * p):
            symbol = jacobi(a, p)
            if a % p == 0:
                assert symbol == 0
            elif a % p in squares:
                assert symbol == 1
            else:
                assert symbol == -1


@settings(max_examples=200)
@given(st.integers(-300, 300), st.integers(-300, 300),
       st.integers(0, 80), st.integers(0, 80))
def test_jacobi_completely_multiplicative(a1, a2, i, j):
    n1, n2 = 2 * i + 1, 2 * j + 1
    assert jacobi(a1 * a2, n1) == jacobi(a1, n1) * jacobi(a2, n1)
    assert jacobi(a1, n1 * n2) == jacobi(a1, n1) * jacobi(a1, n2)


def _trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert is_prime(11)
    assert not is_prime(1)
    assert not is_prime(0)
    # classical strong-pseudoprime stress value
    assert 151 * 751 * 28351 == 3215031751
    assert not is_prime(3215031751)


def test_is_prime_matches_trial_division_to_1e4():
    for n in range(10 ** 4):
        assert is_prime(n) == _trial_division_prime(n)


def test_is_prime_large_known_values():
    assert is_prime(2 ** 61 - 1)        # Mersenne prime
    assert not is_prime(2 ** 62 - 1)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2..23


def test_is_prime_rejects_values_beyond_deterministic_bound():
    # psi_12: composite, yet a strong pseudoprime to every base 2..37
    psi12 = 318665857834031151167461
    assert 399165290221 * 798330580441 == psi12
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(psi12 - 2)
    for n in (psi12, psi12 + 2, 10 ** 30):
        with pytest.raises(ValueError):
            is_prime(n)


def int64_probes():
    """Values around squares up to isqrt(2^63 - 1) = 3037000499, where
    (s + 1)^2 no longer fits in int64, and random values up to 2^63 - 1."""
    rng = random.Random(13)
    roots = [1, 2, 3, 2 ** 31, 3037000498, 3037000499] + [
        rng.randrange(1, 3037000500) for _ in range(2000)]
    xs = [x for k in roots for x in (k * k - 1, k * k, k * k + 1)
          if x < 2 ** 63]
    return xs + [0, 2 ** 62, 2 ** 63 - 2, 2 ** 63 - 1] + [
        rng.randrange(2 ** 63) for _ in range(2000)]


def test_isqrt_array_exact_over_int64():
    xs = int64_probes()
    got = _isqrt_array(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [math.isqrt(x) for x in xs]


def test_is_square_array_exact_over_int64():
    xs = int64_probes()
    got = _is_square_array(np.array(xs, dtype=np.int64))
    assert got.tolist() == [math.isqrt(x) ** 2 == x for x in xs]
    assert sum(got) > 2000  # the probes hold squares, near 2^63 too


def twelve_base_is_prime(n):
    """Oracle: Miller-Rabin with all twelve bases, whatever n is."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_psi_table_pseudoprimes_are_composite():
    # psi_k passes the first k bases, so each one needs the next base
    assert _MR_PSI[-1] == _MR_BOUND
    assert list(_MR_PSI) == sorted(_MR_PSI)
    for psi in _MR_PSI:
        if psi < _MR_BOUND:
            assert not is_prime(psi), psi
            assert not twelve_base_is_prime(psi), psi


def test_is_prime_matches_sieve_below_1e6():
    n = 10 ** 6
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert [k for k in range(n) if is_prime(k)] == np.flatnonzero(sieve).tolist()


def test_is_prime_matches_twelve_bases_on_large_random_values():
    rng = random.Random(7)
    for _ in range(20000):
        n = rng.randrange(10 ** 12, 10 ** 20)
        assert is_prime(n) == twelve_base_is_prime(n), n


def test_primes_in_class_examples():
    assert primes_in_class(ResidueClass(5, 24), 3) == [5, 29, 53]
    assert primes_in_class(ResidueClass(1, 2), 2) == [3, 5]
    assert primes_in_class(ResidueClass(3, 8), 1) == [3]


def test_primes_in_class_output_contract():
    cls = ResidueClass(7, 30)
    primes = primes_in_class(cls, 8)
    assert primes == sorted(primes)
    for p in primes:
        assert is_prime(p)
        assert p % 30 == 7


def test_primes_in_class_rejects_non_coprime():
    with pytest.raises(ValueError):
        primes_in_class(ResidueClass(9, 12), 1)


def test_squarefree_part_examples():
    assert squarefree_part(12) == 3
    assert squarefree_part(1) == 1
    assert squarefree_part(18) == 2


@settings(max_examples=200)
@given(st.integers(1, 5000))
def test_squarefree_part_properties(n):
    s = squarefree_part(n)
    assert n % s == 0
    quotient = n // s
    assert is_square(quotient) is not None   # n = s * square
    assert squarefree_part(s) == s


def test_residue_class_validation():
    with pytest.raises(ValueError):
        ResidueClass(3, 0)
    with pytest.raises(ValueError):
        ResidueClass(12, 12)
    with pytest.raises(ValueError):
        ResidueClass(-1, 12)
    assert str(ResidueClass(5, 24)) == "5 mod 24"
