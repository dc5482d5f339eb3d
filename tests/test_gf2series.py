import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta_parity.gf2series import Gf2Series, _sparse_is_cheaper
from theta_parity.theta import theta_series


def naive_mul(support_a, support_b, n_terms):
    """O(N^2)-style double-loop convolution oracle over GF(2)."""
    coeffs = [0] * n_terms
    for i in support_a:
        for j in support_b:
            if i + j < n_terms:
                coeffs[i + j] ^= 1
    return [k for k, bit in enumerate(coeffs) if bit]


def supports(max_n=512):
    return st.integers(4, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), unique=True, max_size=40).map(sorted),
            st.lists(st.integers(0, n - 1), unique=True, max_size=40).map(sorted),
        ))


@st.composite
def dense_supports(draw, max_n=256):
    """(n, support_a, support_b), each index kept at a drawn density in
    [0, 1], so operands range from empty to every index below n."""
    n = draw(st.integers(1, max_n))
    rng = draw(st.randoms(use_true_random=False))

    def support():
        density = draw(st.floats(0, 1))
        return [k for k in range(n) if rng.random() < density]
    return n, support(), support()


def test_from_support_examples():
    f = Gf2Series.from_support([0, 2, 6], 8)
    assert [f.coeff(k) for k in range(8)] == [1, 0, 1, 0, 0, 0, 1, 0]
    assert Gf2Series.from_support([], 4).is_zero()
    assert Gf2Series.from_support([0], 1) == Gf2Series.one(1)


def test_from_support_validation():
    with pytest.raises(ValueError):
        Gf2Series.from_support([0, 2, 1], 8)   # not sorted
    with pytest.raises(ValueError):
        Gf2Series.from_support([0, 8], 8)      # out of range
    with pytest.raises(ValueError):
        Gf2Series.from_support([-1, 3], 8)
    with pytest.raises(ValueError):
        Gf2Series.from_support([1, 1, 2], 8)   # duplicate
    with pytest.raises(ValueError):
        Gf2Series.from_support([], 0)


def test_add_examples():
    f = Gf2Series.from_support([0, 2], 5)
    g = Gf2Series.from_support([2, 3], 5)
    assert f.add(g).support == (0, 3)
    assert f.add(f).is_zero()
    assert f.add(Gf2Series.zero(5)) == f


def test_mul_example_from_theta_products():
    # leading supports of f_6*f_12 against f_4 at N=13
    f = Gf2Series.from_support([0, 4, 8], 13)
    g = Gf2Series.from_support([0, 2, 4, 10], 13)
    assert f.mul(g).support == (0, 2, 6, 12)


def test_mul_identity_and_zero():
    f = Gf2Series.from_support([1, 3, 7], 9)
    assert f.mul(Gf2Series.one(9)) == f
    assert f.mul(Gf2Series.zero(9)).is_zero()


def test_length_mismatch_rejected():
    f, g = Gf2Series.zero(5), Gf2Series.zero(6)
    for op in (f.add, f.mul, f.first_difference):
        with pytest.raises(ValueError):
            op(g)


def test_square_examples():
    assert Gf2Series.from_support([0, 1, 3], 7).square().support == (0, 2, 6)
    assert Gf2Series.zero(5).square().is_zero()
    assert Gf2Series.from_support([1], 3).square().support == (2,)


def test_first_difference_examples():
    f = Gf2Series.from_support([0, 2], 6)
    assert f.first_difference(f) is None
    g = Gf2Series.from_support([0, 3], 6)
    assert f.first_difference(g) == 2


@settings(max_examples=150, deadline=None)
@given(supports())
def test_mul_matches_naive_convolution(data):
    n, sa, sb = data
    f = Gf2Series.from_support(sa, n)
    g = Gf2Series.from_support(sb, n)
    assert list(f.mul(g).support) == naive_mul(sa, sb, n)


@settings(max_examples=60, deadline=None)
@given(dense_supports())
def test_kernels_match_naive_convolution_at_dense_inputs(data):
    n, sa, sb = data
    f = Gf2Series.from_support(sa, n)
    g = Gf2Series.from_support(sb, n)
    want = Gf2Series.from_support(naive_mul(sa, sb, n), n)
    want_square = Gf2Series.from_support(naive_mul(sa, sa, n), n)
    # both kernels directly, whichever one mul() would pick
    for got, expected in ((Gf2Series._mul_sparse(sa, sb, n), want),
                          (f._mul_comb(g), want), (f.mul(g), want),
                          (f.square(), want_square)):
        assert got == expected
        assert got.support == expected.support


@settings(max_examples=60, deadline=None)
@given(dense_supports())
def test_from_support_and_square_bits(data):
    n, sa, _ = data
    f = Gf2Series.from_support(sa, n)
    assert f.bits == sum(1 << k for k in sa)
    assert f.support == tuple(sa)
    assert f.square() == Gf2Series.from_support([2 * k for k in sa if 2 * k < n], n)


@settings(max_examples=60, deadline=None)
@given(dense_supports())
@example((256, list(range(256)), list(range(0, 256, 3))))
def test_dense_operand_support_never_built(data):
    n, sa, sb = data
    if len(sa) < len(sb):
        sa, sb = sb, sa
    sparse = Gf2Series.from_support(sb, n)
    want = Gf2Series.from_support(naive_mul(sa, sb, n), n)
    dense = Gf2Series(n, sum(1 << k for k in sa))
    assert dense.square() == Gf2Series.from_support(naive_mul(sa, sa, n), n)
    assert dense._support is None
    if not _sparse_is_cheaper(len(sa), len(sb), n):  # mul takes the comb
        assert dense.mul(sparse) == want
    else:
        assert dense._mul_comb(sparse) == want
    if len(sa) > len(sb):  # the comb walks the sparser operand's support
        assert dense._support is None


def test_mul_dispatch_follows_operation_counts():
    # short theta products: the comb's shift-xors undercut the pair sums
    n = 2000
    for b, c in ((1, 1), (6, 12), (24, 24), (100, 200), (200, 200)):
        f, g = theta_series(b, n), theta_series(c, n)
        prod = f.mul(g)
        assert prod._support is None  # the comb result
        assert prod == Gf2Series._mul_sparse(f.support, g.support, n)
    # a long sporadic product: the pair sums undercut N-bit shift-xors
    n = 10 ** 6
    f, g = theta_series(8, n), theta_series(24, n)
    prod = f.mul(g)
    assert prod._support is not None  # the sparse result
    assert prod == f._mul_comb(g)


@settings(max_examples=150, deadline=None)
@given(supports())
def test_square_is_self_multiplication(data):
    n, sa, _ = data
    f = Gf2Series.from_support(sa, n)
    sq = f.square()
    assert sq == f.mul(f)
    assert sq.support == tuple(2 * k for k in sa if 2 * k < n)


@settings(max_examples=100, deadline=None)
@given(supports(max_n=256))
def test_mul_commutative_and_distributive(data):
    n, sa, sb = data
    f = Gf2Series.from_support(sa, n)
    g = Gf2Series.from_support(sb, n)
    assert f.mul(g) == g.mul(f)
    h = Gf2Series.from_support([k for k in range(0, n, 3)], n)
    assert f.add(g).mul(h) == f.mul(h).add(g.mul(h))


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 256), st.data())
def test_mul_associative_up_to_truncation(n, data):
    def draw_support():
        return data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=16).map(sorted))
    f = Gf2Series.from_support(draw_support(), n)
    g = Gf2Series.from_support(draw_support(), n)
    h = Gf2Series.from_support(draw_support(), n)
    assert f.mul(g).mul(h) == f.mul(g.mul(h))


def test_random_dense_series_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 400)
        sup = sorted(rng.sample(range(n), rng.randrange(0, n)))
        f = Gf2Series.from_support(sup, n)
        assert list(f.support) == sup
        assert Gf2Series(n, f.bits).support == tuple(sup)
