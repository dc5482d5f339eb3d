import random

import numpy as np
import pytest

from theta_parity import partition
from theta_parity.classify import verify_triple
from theta_parity.gf2series import Gf2Series
from theta_parity.partition import (BM_CONJECTURED_PAIRS, BM_REFUTED_PAIRS,
                                    bm_first_failure, partition_parity)
from theta_parity.theta import eta_support, theta_series


def exact_partition_counts(n_max):
    """Classic DP for p(n): build up by largest allowed part."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            table[n] += table[n - part]
    return table


def pentagonal_parity_bits(n_terms):
    """Oracle: the pentagonal-number recurrence, whose signs vanish mod 2.

    Bit n is the XOR of bits n - g over nonzero generalized pentagonal
    g <= n, one vectorized gather per n (O(N^1.5)).
    """
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


def test_parity_examples():
    parity = partition_parity(10)
    assert [parity.coeff(n) for n in range(10)] == [1, 1, 0, 1, 1, 1, 1, 1, 0, 0]
    assert parity.support == (0, 1, 3, 4, 5, 6, 7)
    assert partition_parity(11).coeff(10) == 0  # p(10) = 42


def test_parity_matches_exact_enumeration_to_60():
    counts = exact_partition_counts(60)
    parity = partition_parity(61)
    assert counts[:10] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n in range(61):
        assert parity.coeff(n) == counts[n] % 2


def test_partition_parity_matches_pentagonal_recurrence():
    # every truncation to 300, around each power of two, and around each
    # power of four, where the last level of P(q) = f_8(q) P(q^4) stops
    # short of or exactly at a quadrupled precision
    sizes = set(range(1, 301))
    sizes.update(2 ** k + d for k in range(1, 14) for d in (-1, 0, 1))
    sizes.update(4 ** k + d for k in range(1, 8) for d in (-1, 0, 1))
    for n in sorted(sizes):
        assert partition_parity(n).bits == pentagonal_parity_bits(n), n


def test_parity_table_interface():
    parity = partition_parity(32)
    assert parity.n_terms == 32
    with pytest.raises(IndexError):
        parity.coeff(32)
    coeffs = [parity.coeff(n) for n in range(32)]
    assert parity == Gf2Series(32, sum(b << n for n, b in enumerate(coeffs)))
    assert parity.support == tuple(n for n, b in enumerate(coeffs) if b)
    # the bits are cached, the series (and its support) is not
    assert partition_parity(32) is not parity
    with pytest.raises(ValueError):
        partition_parity(0)


def test_normalization_against_euler_product():
    # P(q) * (q;q)_inf = 1, and (q;q)_inf = f_24 mod 2
    n = 10 ** 5
    product = partition_parity(n).mul(theta_series(24, n))
    assert product == Gf2Series.one(n)


def test_bm_examples():
    assert bm_first_failure(6, 8, 10 ** 4) is None
    assert bm_first_failure(18, 72, 100) == 1
    assert bm_first_failure(22, 264, 100) == 1


def test_bm_witness_one_from_direct_arithmetic():
    # At n = 1 the sum is p(1) + [a+1 square] p(0); the failing pairs all
    # have a+1 non-square and b+1 non-square, so LHS is odd and RHS even.
    parity = partition_parity(2)
    for a, b in BM_REFUTED_PAIRS:
        lhs = parity.coeff(1)  # k = 0 term; k = 1 contributes only if a+1 is square
        r = round((a + 1) ** 0.5)
        assert r * r != a + 1
        rb = round((b + 1) ** 0.5)
        assert rb * rb != b + 1
        assert lhs == 1
        assert bm_first_failure(a, b, 100) == 1


def test_bm_agrees_with_theta_identity_witness():
    # the BM property for (a, b) is the identity f_a = f_b * f_24
    rng = random.Random(11)
    n_max = 511
    pairs = {(a, b) for a, b in BM_CONJECTURED_PAIRS}
    pairs.update(BM_REFUTED_PAIRS)
    while len(pairs) < 40:
        pairs.add((rng.randrange(1, 60), rng.randrange(1, 60)))
    n = n_max + 1
    f24 = theta_series(24, n)
    for a, b in sorted(pairs):
        direct = bm_first_failure(a, b, n_max)
        via_series = theta_series(a, n).first_difference(theta_series(b, n).mul(f24))
        assert direct == via_series, (a, b)


@pytest.mark.parametrize("n_max", [4095, 5000, 65_534, 70_000, 300_000])
def test_bm_witnesses_unchanged(n_max):
    # at exactly the prefilter's length, past it and on both sides of the
    # byte comb's 2^16-term switch: the seven conjectured pairs hold and
    # the three refuted ones fail at 1, as the product P*f_a computed as
    # a series says
    n = n_max + 1
    parity = partition_parity(n)
    for a, b in BM_CONJECTURED_PAIRS + BM_REFUTED_PAIRS:
        want = parity.mul(theta_series(a, n)).first_difference(theta_series(b, n))
        assert want == (1 if (a, b) in BM_REFUTED_PAIRS else None)
        assert bm_first_failure(a, b, n_max) == want, (a, b)


def test_bm_pairs_are_the_classifications_split():
    # derived from the classification, in the order `bm` prints them
    assert BM_CONJECTURED_PAIRS == ((6, 8), (8, 12), (12, 24), (15, 40),
                                    (16, 48), (20, 120), (21, 168))
    assert BM_REFUTED_PAIRS == ((18, 72), (22, 264), (23, 552))
    assert {type(x) for p in BM_CONJECTURED_PAIRS + BM_REFUTED_PAIRS
            for x in p} == {int}


@pytest.mark.parametrize("n_max", [4095, 65_535, 300_000])
def test_bm_is_the_triple_with_f24(n_max):
    # P*f_a = f_b exactly when f_a = f_b*f_24, with the same first
    # difference: at the prefilter's length, at the byte comb's 2^16-term
    # switch and at the parity workload's size
    for a, b in BM_CONJECTURED_PAIRS + BM_REFUTED_PAIRS:
        triple = verify_triple(a, min(b, 24), max(b, 24), n_max + 1)
        assert bm_first_failure(a, b, n_max) == triple.witness, (a, b)


def test_bm_validation():
    with pytest.raises(ValueError):
        bm_first_failure(0, 8, 10)
    with pytest.raises(ValueError):
        bm_first_failure(6, 8, 0)


def test_parity_levels_are_sized_from_n_down(monkeypatch):
    # the levels run at ceil(N/4^j) terms, so at 300,400 the two largest
    # multiplies are 300,400 and 75,100 terms, not 262,144 and 300,400
    sizes = []
    mul = Gf2Series.mul

    def spy(self, other):
        sizes.append(self.n_terms)
        return mul(self, other)

    monkeypatch.setattr(Gf2Series, "mul", spy)
    partition._parity_bits.cache_clear()
    partition_parity(300_400)
    assert sorted(sizes, reverse=True)[:2] == [300_400, 75_100]
    assert 262_144 not in sizes
    assert sizes == sorted(sizes)
