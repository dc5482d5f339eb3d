import heapq
import random
from itertools import islice
from math import gcd, isqrt, lcm

import numpy as np
import pytest

from theta_parity import quadform
from theta_parity.classify import (WEBER_MAX_ENUMERATED, ClassifyConfig,
                                   enumerate_candidates)
from theta_parity.numth import is_prime, is_square, jacobi, primes_in_class, vp
from theta_parity.quadform import (SolutionPair, WeberCertificate, WeberPrime,
                                   _congruent_representations, _isqrt_array,
                                   find_weber_prime,
                                   lemma32_residue, lemma34_check,
                                   lemma34_pairs, lemma34_solutions, repcount,
                                   weber_reject)
from theta_parity.theta import theta_series


def brute_repcount(b, c, k):
    """Oracle: scan every split i + j = k and test both squares directly."""
    count = 0
    for i in range(k + 1):
        ri = isqrt(b * i + 1)
        if ri * ri != b * i + 1:
            continue
        j = k - i
        rj = isqrt(c * j + 1)
        if rj * rj == c * j + 1:
            count += 1
    return count


def test_repcount_examples():
    assert repcount(6, 12, 0) == 1   # only (0,0)
    assert repcount(6, 12, 2) == 1   # only (0,2)
    assert repcount(6, 12, 4) == 2   # (0,4) and (4,0), parity 0


def test_repcount_matches_brute_scan():
    rng = random.Random(3)
    for _ in range(300):
        b, c = rng.randrange(1, 60), rng.randrange(1, 60)
        k = rng.randrange(0, 400)
        assert repcount(b, c, k) == brute_repcount(b, c, k)


def test_repcount_parity_is_product_coefficient():
    rng = random.Random(5)
    n = 1001
    for _ in range(30):
        b, c = rng.randrange(1, 101), rng.randrange(1, 101)
        prod = theta_series(b, n).mul(theta_series(c, n))
        for _ in range(8):
            k = rng.randrange(0, n)
            assert repcount(b, c, k) % 2 == prod.coeff(k), (b, c, k)


def test_repcount_parity_full_range_single_pairs():
    # every coefficient up to 10^4 for a couple of pairs
    n = 10 ** 4 + 1
    for b, c in ((6, 12), (24, 72), (17, 31)):
        prod = theta_series(b, n).mul(theta_series(c, n))
        odd = {k for k in range(n) if repcount(b, c, k) % 2}
        assert odd == set(prod.support), (b, c)


def test_repcount_change_of_variables():
    # every counted split (i, j) has roots satisfying c*y^2 + b*z^2 = bck+b+c
    for b, c, k in ((6, 12, 4), (8, 24, 10), (5, 9, 33), (24, 72, 1)):
        for i in range(k + 1):
            y, z = isqrt(b * i + 1), isqrt(c * (k - i) + 1)
            if y * y == b * i + 1 and z * z == c * (k - i) + 1:
                assert c * y * y + b * z * z == b * c * k + b + c


def test_lemma34_solutions_examples():
    assert lemma34_solutions(1, 2, 33) == [SolutionPair(2, 5), SolutionPair(4, 1)]
    assert lemma34_solutions(1, 1, 10) == [SolutionPair(1, 3), SolutionPair(3, 1)]
    # boundary: y = 0 passes gcd(0, 1) = 1 and is reported
    assert lemma34_solutions(1, 2, 1) == [SolutionPair(0, 1)]


def test_lemma34_solutions_validation():
    with pytest.raises(ValueError):
        lemma34_solutions(2, 4, 10)   # not coprime
    with pytest.raises(ValueError):
        lemma34_solutions(1, 2, 0)


def test_lemma34_check_examples():
    assert lemma34_check(1, 2, 3, 1)   # p = 11, pairs (2,5), (4,1)
    assert lemma34_check(1, 1, 2, 1)   # p = 5, pairs (1,3), (3,1)
    assert lemma34_check(2, 3, 1, 1)   # p = 7, pairs (1,4), (3,2)
    with pytest.raises(ValueError):
        lemma34_check(1, 2, 4, 1)      # 16 + 2 = 18 is not prime


def test_lemma34_two_pair_prediction_has_square_ratio_exception():
    # (b'+c')/b' a perfect square admits a third solution (2b'v, 2u):
    # 3y^2 + z^2 = 4*19 also has (2, 8) beyond the predicted pairs.
    sols = set(lemma34_solutions(1, 3, 4 * 19))
    assert sols == {SolutionPair(2, 8), SolutionPair(3, 7), SolutionPair(5, 1)}
    assert set(lemma34_pairs(1, 3, 4, 1)) < sols
    assert not lemma34_check(1, 3, 4, 1)


def coprime_shapes(limit=10):
    """Coprime (b', c') <= limit where the two-pair dichotomy is valid,
    i.e. neither (b'+c')/b' nor (b'+c')/c' is a perfect square."""
    shapes = []
    for bp in range(1, limit + 1):
        for cp in range(1, limit + 1):
            if gcd(bp, cp) != 1:
                continue
            s = bp + cp
            bad = False
            for side in (bp, cp):
                if s % side == 0:
                    r = isqrt(s // side)
                    bad = bad or r * r * side == s
            if not bad:
                shapes.append((bp, cp))
    return shapes


def lemma34_instances(count, seed=17, p_max=10 ** 6):
    rng = random.Random(seed)
    shapes = coprime_shapes()
    out = []
    while len(out) < count:
        bp, cp = rng.choice(shapes)
        u = rng.randrange(1, 200)
        v = rng.randrange(1, 200)
        if gcd(u, bp * cp) != 1:
            continue
        p = u * u + bp * cp * v * v
        if p > p_max or not is_prime(p):
            continue
        out.append((bp, cp, u, v))
    return out


def test_lemma34_check_random_instances():
    for bp, cp, u, v in lemma34_instances(40):
        assert lemma34_check(bp, cp, u, v), (bp, cp, u, v)


def test_excluded_shapes_are_exactly_the_square_ratio_ones():
    all_coprime = {(bp, cp) for bp in range(1, 11) for cp in range(1, 11)
                   if gcd(bp, cp) == 1}
    assert all_coprime - set(coprime_shapes()) == {(1, 3), (3, 1), (1, 8), (8, 1)}


def test_lemma32_examples():
    cls = lemma32_residue(8, 3)
    assert (cls.q, cls.Q) == (5, 24)
    cls = lemma32_residue(1, 1)
    assert (cls.q, cls.Q) == (3, 8)
    cls = lemma32_residue(3, 2)
    assert (cls.q, cls.Q) == (5, 24)


def test_lemma32_prime_soundness():
    for u, v in ((8, 3), (1, 1), (3, 2), (12, 5), (5, 6), (16, 7)):
        cls = lemma32_residue(u, v)
        for p in primes_in_class(cls, 10):
            assert (p * p - 1) % u == 0
            assert jacobi(-v, p) == -1


def test_lemma32_strict_mode():
    for u, v in ((8, 3), (16, 3), (24, 7), (48, 15), (8, 21)):
        cls = lemma32_residue(u, v, strict=True)
        v2Q = vp(cls.Q, 2)
        for p in primes_in_class(cls, 10):
            assert (p * p - 1) % u == 0
            assert jacobi(-v, p) == -1
            assert vp(p * p - 1, 2) == v2Q


def test_lemma32_validation():
    with pytest.raises(ValueError):
        lemma32_residue(8, 12)          # v not squarefree
    with pytest.raises(ValueError):
        lemma32_residue(4, 3, strict=True)   # 8 does not divide u
    with pytest.raises(ValueError):
        lemma32_residue(8, 5, strict=True)   # no prime divisor 3 mod 4


def test_find_weber_prime_examples():
    wp = find_weber_prime(2, 0, 0, 1, 10)
    assert (wp.p, wp.u, wp.v) == (3, 1, 1)
    wp = find_weber_prime(6, 0, 0, 1, 10)
    assert (wp.p, wp.u, wp.v) == (7, 1, 1)
    wp = find_weber_prime(3, 5, 4, 18, 100)
    assert (wp.p, wp.u, wp.v) == (73, 5, 4)


def test_find_weber_prime_empty_region():
    # u = v = 2 mod 4 makes u^2 + 4v^2 even, never an odd prime
    assert find_weber_prime(4, 2, 2, 4, 30) is None


def test_weber_reject_certificate_for_failing_pair():
    cert = weber_reject(24, 72, 100)
    assert cert is not None
    assert (cert.prime.p, cert.prime.u, cert.prime.v, cert.prime.D) == (73, 5, 4, 3)
    assert cert.passing_pair == SolutionPair(1, 17)
    assert cert.failing_pair == SolutionPair(9, 7)
    # index is the refuted coefficient: a*k + 1 = p with a = 18
    assert 18 * cert.index + 1 == 73
    # exactly one representation at the refuted index
    assert repcount(24, 72, cert.index) == 1


def test_weber_reject_empty_on_true_identities():
    assert weber_reject(6, 12, 100) is None    # (4,6,12) is an identity
    assert weber_reject(8, 8, 100) is None     # family triple (4,8,8)


def test_weber_reject_validation():
    with pytest.raises(ValueError):
        weber_reject(5, 7, 10)   # no integer a


def _ascending_representations(D):
    """Oracle: (u^2 + D*v^2, u, v) over u, v >= 1 in ascending (p, u)
    order.  Each popped (u, v) pushes (u + 1, v), and u = 1 also pushes
    (1, v + 1), so every point's parent has a smaller value."""
    heap = [(1 + D, 1, 1)]
    while heap:
        p, u, v = heapq.heappop(heap)
        heapq.heappush(heap, (p + 2 * u + 1, u + 1, v))
        if u == 1:
            w = v + 1
            heapq.heappush(heap, (1 + D * w * w, 1, w))
        yield p, u, v


def heap_congruent(reps, D, L, limit):
    """The filter weber_reject used to apply to the heap stream."""
    return [(p, u, v) for p, u, v in islice(reps, limit)
            if p % L == 1 and gcd(u, D) == 1]


def heap_weber_reject(b, c, bound, max_enumerated, reps):
    """weber_reject as it was with the heap: `reps` is the ascending
    stream of all representations, at least max_enumerated long."""
    a = b * c // (b + c)
    d = gcd(b, c)
    b_p, c_p = b // d, c // d
    D = b_p * c_p
    L = lcm(a, b, c)
    examined = 0
    enumerated = 0
    for p, u, v in reps:
        enumerated += 1
        if enumerated > max_enumerated:
            return None
        if p % L != 1 or gcd(u, D) != 1:
            continue
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


def test_isqrt_array_exact_up_to_int64_limit():
    # around squares, where the float seed is off by one either way
    rng = random.Random(11)
    roots = [1, 2, 3, 2 ** 26 + 1, 2 ** 31 - 1] + [
        rng.randrange(1, 2 ** 31) for _ in range(2000)]
    xs = [x for k in roots for x in (k * k - 1, k * k, k * k + 1)
          if x < quadform._INT64_SAFE]
    assert _isqrt_array(np.array(xs, dtype=np.int64)).tolist() == [
        isqrt(x) for x in xs]
    wide = [2 ** 62, 2 ** 70 + 5, (2 ** 40 + 1) ** 2]
    assert _isqrt_array(np.array(wide, dtype=object)).tolist() == [
        isqrt(x) for x in wide]


def test_congruent_representations_match_heap():
    limits = (1, 2, 10, 1000, 30000)
    for D in (1, 2, 3, 5, 7, 11, 15, 23, 95, 119, 143):
        reps = list(islice(_ascending_representations(D), max(limits)))
        for L in (1, 2, 4, 12, 36, 240, 2280):
            for limit in limits:
                assert (list(_congruent_representations(D, L, limit))
                        == heap_congruent(reps, D, L, limit)), (D, L, limit)


def test_congruent_representations_small_annuli_and_wide_values(monkeypatch):
    # a small cap forces many halved annuli and a rank cutoff inside one;
    # D near 2^62 walks across the int64 limit into Python integers
    monkeypatch.setattr(quadform, "_ANNULUS_POINTS", 64)
    cases = [(D, L, limit) for D in (1, 7, 119) for L in (3, 12, 2280)
             for limit in (1, 10, 1000, 3000)]
    cases += [(D, L, limit) for D in (2 ** 62 - 1000, 2 ** 62 + 1)
              for L in (2, 24) for limit in (10, 300)]
    for D, L, limit in cases:
        reps = list(islice(_ascending_representations(D), limit))
        assert (list(_congruent_representations(D, L, limit))
                == heap_congruent(reps, D, L, limit)), (D, L, limit)


def test_congruent_representations_empty_limit():
    assert list(_congruent_representations(3, 36, 0)) == []


def test_weber_reject_matches_heap_search():
    # every candidate and the b' = c' family, at rank cutoffs that fall
    # before, inside and after the certificates
    by_D = {}
    for t in enumerate_candidates():
        by_D.setdefault(t.b_p * t.c_p, []).append((t.b, t.c, (1, 150, 2500, 20000)))
    by_D.setdefault(1, []).extend((d, d, (1, 300)) for d in range(2, 41, 2))
    for D, pairs in by_D.items():
        reps = list(islice(_ascending_representations(D), 20000))
        for b, c, limits in pairs:
            for max_enumerated in limits:
                for bound in (1, 3, 12, 40):
                    got = weber_reject(b, c, bound, max_enumerated=max_enumerated)
                    want = heap_weber_reject(b, c, bound, max_enumerated, reps)
                    assert got == want, (b, c, bound, max_enumerated)


def test_weber_reject_default_config_certificates():
    # (p, u, v, index) of the eight certificates of the default classify
    # run; every other candidate gets none
    expected = {
        (9, 12, 36): (37, 5, 2, 4),
        (18, 24, 72): (73, 5, 4, 4),
        (36, 48, 144): (1153, 31, 8, 32),
        (40, 48, 240): (241, 14, 3, 6),
        (45, 72, 120): (1801, 29, 8, 40),
        (63, 72, 504): (2017, 15, 16, 32),
        (90, 144, 240): (15121, 119, 8, 168),
        (126, 144, 1008): (2017, 15, 16, 16),
    }
    config = ClassifyConfig()
    got = {}
    for t in enumerate_candidates():
        cert = weber_reject(t.b, t.c, config.weber_bound,
                            max_enumerated=WEBER_MAX_ENUMERATED)
        if cert is not None:
            got[t.as_tuple()] = (cert.prime.p, cert.prime.u, cert.prime.v,
                                 cert.index)
            # re-check the refuted coefficient by series, which the Weber
            # search never computes: f_b*f_c is 1 there, f_a is 0
            n = cert.index + 1
            prod = theta_series(t.b, n).mul(theta_series(t.c, n))
            assert prod.coeff(cert.index) == 1, t
            assert is_square(t.a * cert.index + 1) is None, t
    assert got == expected
    # these three run out of representations before weber_bound primes
    for a, b, c in ((506, 528, 12144), (1190, 1680, 4080), (1330, 1680, 6384)):
        d = gcd(b, c)
        stream = _congruent_representations(
            (b // d) * (c // d), lcm(a, b, c), WEBER_MAX_ENUMERATED)
        assert sum(is_prime(p) for p, _, _ in stream) < config.weber_bound
