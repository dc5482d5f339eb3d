import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta_parity import classify, gf2series
from theta_parity.gf2series import (_WORDS_MIN_TERMS, PREFILTER_TERMS,
                                    Gf2Series, product_first_difference,
                                    support_bytes, support_first_difference)
from theta_parity.partition import (BM_REFUTED_PAIRS, bm_first_failure,
                                    partition_parity)
from theta_parity.theta import euler_jacobi_check, theta_series

PRE = PREFILTER_TERMS


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
    assert Gf2Series.from_support([], 4) == Gf2Series(4)
    assert Gf2Series.from_support([], 4).support == ()
    assert Gf2Series.from_support([0], 1) == Gf2Series.one(1)


def test_repr_shows_the_first_twelve_exponents():
    # the exponents print as Python ints, from a support or from bits
    squares = [k * k for k in range(12)]
    assert repr(Gf2Series.from_support(squares, 145)) == (
        f"Gf2Series(n_terms=145, support={squares})")
    assert repr(Gf2Series.from_support(squares + [144], 145)) == (
        f"Gf2Series(n_terms=145, support={squares + ['...']})")
    assert repr(Gf2Series(80, 1 << 70 | 1)) == (
        "Gf2Series(n_terms=80, support=[0, 70])")


def test_from_support_takes_an_integer_array():
    # numpy scalars in the public support would overflow in shifts
    g = Gf2Series.from_support([0, 1, 80], 100)
    exps = np.array([0, 3, 70], dtype=np.int64)
    f = Gf2Series.from_support(exps, 100)
    assert all(type(k) is int for k in f.support)
    assert f.mul(g) == Gf2Series.from_support([0, 3, 70], 100).mul(g)
    assert json.loads(json.dumps(list(f.support))) == [0, 3, 70]
    # the series keeps its own copy of the caller's array
    exps[1] = 5
    assert f.support == (0, 3, 70)
    assert f.mul(g) == Gf2Series.from_support([0, 3, 70], 100).mul(g)
    assert Gf2Series.from_support(np.array([0, 3], dtype=np.uint8), 4).support == (0, 3)


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
    for indices in ([0, 1.0], np.array([0.0, 2.0]), 3, np.int64(3),
                    np.array([[0, 1], [2, 3]]), [[0, 1]], ["0"]):
        with pytest.raises(TypeError):
            Gf2Series.from_support(indices, 8)


def test_add_examples():
    # addition is xor of the bits; Gf2Series(n) is the zero series
    f = Gf2Series.from_support([0, 2], 5)
    g = Gf2Series.from_support([2, 3], 5)
    assert Gf2Series(5, f.bits ^ g.bits).support == (0, 3)
    assert Gf2Series(5, f.bits ^ f.bits) == Gf2Series(5)
    assert Gf2Series(5, f.bits ^ Gf2Series(5).bits) == f


def test_mul_example_from_theta_products():
    # leading supports of f_6*f_12 against f_4 at N=13
    f = Gf2Series.from_support([0, 4, 8], 13)
    g = Gf2Series.from_support([0, 2, 4, 10], 13)
    assert f.mul(g).support == (0, 2, 6, 12)


def test_mul_identity_and_zero():
    f = Gf2Series.from_support([1, 3, 7], 9)
    assert f.mul(Gf2Series.one(9)) == f
    assert f.mul(Gf2Series(9)) == Gf2Series(9)


def test_length_mismatch_rejected():
    f, g = Gf2Series(5), Gf2Series(6)
    for op in (f.mul, f.first_difference):
        with pytest.raises(ValueError):
            op(g)


def test_square_examples():
    assert Gf2Series.from_support([0, 1, 3], 7).square().support == (0, 2, 6)
    assert Gf2Series(5).square() == Gf2Series(5)
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
    # both kernels, whichever one mul() would pick: the switch at 0 forces
    # the byte comb, and past n the int comb
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2series, "_WORDS_MIN_TERMS", 0)
        words = f.mul(g)
        mp.setattr(gf2series, "_WORDS_MIN_TERMS", n + 1)
        comb = f.mul(g)
    for got, expected in ((words, want), (comb, want), (f.mul(g), want),
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
    assert dense._exps is None
    # mul's own pick, then the byte comb and the int comb forced
    with pytest.MonkeyPatch.context() as mp:
        for switch in (_WORDS_MIN_TERMS, 0, n + 1):
            mp.setattr(gf2series, "_WORDS_MIN_TERMS", switch)
            assert dense.mul(sparse) == want
    if len(sa) > len(sb):  # the combs walk the sparser operand's support
        assert dense._exps is None


@st.composite
def word_comb_inputs(draw, lengths=st.integers(1, 300)):
    """(n, support_a, support_b) with n drawn from `lengths` and supports
    of at most 24 terms; by default n ranges over single, partial and
    whole bytes and 64-bit words."""
    n = draw(lengths)
    index = st.integers(0, n - 1)
    return (n, sorted(draw(st.sets(index, max_size=24))),
            sorted(draw(st.sets(index, max_size=24))))


@settings(max_examples=150, deadline=None)
@given(word_comb_inputs())
@example((1, [0], [0]))
@example((63, [0, 62], [1, 5, 62]))
@example((64, [63], list(range(64))))
@example((100, [0, 64], [3, 35, 99]))        # residue 0 into the last word
@example((191, [63, 127], [0, 1, 63, 64]))   # residue 63 into the last word
@example((192, [0, 63, 128, 191], list(range(0, 192, 5))))
@example((7, [0, 6], [1, 3, 6]))             # one partial byte, a term at n - 1
@example((8, [7], [0, 1, 7]))                # one whole byte
@example((9, [7], [0, 1]))                   # residue 7 carries into the last byte
@example((15, [7, 14], list(range(15))))     # residue 7 at n - 1
@example((17, [], [0, 3, 16]))               # an empty sparser support
@example((17, [16], [0, 8, 16]))             # residue 0 at n - 1
def test_word_comb_matches_naive_convolution(data):
    n, sa, sb = data
    f = Gf2Series.from_support(sa, n)
    g = Gf2Series.from_support(sb, n)
    with pytest.MonkeyPatch.context() as mp:  # the byte comb at every n
        mp.setattr(gf2series, "_WORDS_MIN_TERMS", 0)
        got = f.mul(g)
        assert got == Gf2Series.from_support(naive_mul(sa, sb, n), n)
        assert got == g.mul(f)


@pytest.mark.parametrize("rem", range(8))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_word_comb_at_every_length_mod_8(rem, data):
    # the comb clears the bits at and above n inside its last byte
    n, sa, sb = data.draw(word_comb_inputs(
        st.integers(1, 40).map(lambda whole: 8 * whole + rem)))
    f, g = (Gf2Series.from_support(s, n) for s in (sa, sb))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2series, "_WORDS_MIN_TERMS", 0)
        got = f.mul(g)
    assert got == Gf2Series.from_support(naive_mul(sa, sb, n), n)
    out = np.zeros((n + 7) // 8, dtype=np.uint8)
    gf2series._xor_comb(out, g.byte_array(), np.array(sa, dtype=np.int64), n)
    assert int(out[-1]) >> ((n - 1) % 8 + 1) == 0


@st.composite
def first_difference_inputs(draw):
    """(n, walked, other, flips): the target is walked * other with the
    coefficients at `flips` changed, so its first difference is min(flips).
    n is short, or long enough for both passes of product_first_difference."""
    n, walked, other = draw(word_comb_inputs(st.one_of(
        st.integers(1, 300),
        st.integers(PREFILTER_TERMS - 8, PREFILTER_TERMS + 300))))
    flips = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return n, walked, other, sorted(flips)


@settings(max_examples=150, deadline=None)
@given(first_difference_inputs())
@example((8, [0, 7], [0, 1, 7], [7]))             # n = 0 mod 8, at n - 1
@example((9, [2], [0, 7], []))                    # a product bit past n: None
@example((10, [1, 9], list(range(10)), [3, 9]))
@example((11, [], [0, 5, 10], [10]))              # an empty walked support
@example((12, [], [0, 5], []))
@example((13, [3, 7], [0, 1, 2, 12], [12]))
@example((14, [13], [0, 13], []))                 # target equals the product
@example((15, [7, 14], list(range(15)), [14]))    # n = 7 mod 8, at n - 1
@example((_WORDS_MIN_TERMS - 1, [0, 5, 40000], [1, 2, 30000, 65530], [65534]))
@example((_WORDS_MIN_TERMS, [0, 65535], [0, 1, 65535], [65535]))
@example((_WORDS_MIN_TERMS, [3, 9000], [0, 60000], []))
# at the edge of the first pass, with walked terms on both sides of it
@example((PRE + 300, [0, 7, PRE + 1], [1, PRE - 9, PRE + 200], [PRE - 1]))
@example((PRE + 300, [0, 7, PRE + 1], [1, PRE - 9, PRE + 200], [PRE]))
@example((PRE + 300, [0, 7, PRE + 1], [1, PRE - 9, PRE + 200], [PRE + 1, PRE + 5]))
@example((PRE, [0, 7, PRE - 1], [1, PRE - 9], [PRE - 1]))  # one pass
@example((PRE, [0, 7, PRE - 1], [1, PRE - 9], []))
def test_product_first_difference_matches_product(data):
    n, walked, other, flips = data
    f = Gf2Series.from_support(walked, n)
    g = Gf2Series.from_support(other, n)
    t = Gf2Series(n, f.mul(g).bits ^ sum(1 << k for k in flips))
    target = np.array(t.support, dtype=np.int64)
    assert bytes(support_bytes(target, n)) == bytes(t.byte_array())
    got = product_first_difference(target, np.array(walked, dtype=np.int64),
                                   g.byte_array(), n)
    assert got == f.mul(g).first_difference(t)
    assert got == (flips[0] if flips else None)
    # the two-factor comparison walks the shorter factor, in either order
    factors = [np.array(walked, dtype=np.int64), np.array(other, dtype=np.int64)]
    assert support_first_difference(target, factors, n) == got
    assert support_first_difference(target, factors[::-1], n) == got


@st.composite
def even_comparison_inputs(draw):
    """(n, target, walked, other): random supports scaled by 2 or 4 and
    kept below n, so the two-factor comparison halves them once or twice;
    sometimes one array gains an odd entry, where the halving must stop.
    n is short, or near twice PREFILTER_TERMS, so that the halved
    comparison runs both passes."""
    n = draw(st.one_of(
        st.integers(1, 300), st.sampled_from([1, 2]),
        st.integers(2 * PREFILTER_TERMS - 16, 2 * PREFILTER_TERMS + 16)))
    scale = draw(st.sampled_from([2, 4]))
    index = st.integers(0, (n - 1) // scale)
    arrays = [sorted(scale * k for k in draw(st.sets(index, max_size=24)))
              for _ in range(3)]
    if n > 1 and draw(st.booleans()):
        odd = 2 * draw(st.integers(0, (n - 2) // 2)) + 1
        arrays[draw(st.integers(0, 2))].append(odd)
    return (n, *map(sorted, arrays))


@settings(max_examples=200, deadline=None)
@given(even_comparison_inputs())
@example((1, [0], [0], [0]))                 # nothing left to halve at n = 1
@example((2, [0], [0], [0]))
@example((2, [], [0], [0]))                  # differs at 0 after halving
@example((2, [0], [0], [1]))                 # odd at n - 1: no halving
@example((9, [0, 4, 8], [0, 4], [0, 4, 8]))  # halved twice, odd n
@example((8, [0, 2, 4, 6], [0, 2], [0, 4]))  # witness 6 doubled back
@example((2 * PRE + 1, [0, 2, 2 * PRE], [0, 2], [0, 2 * PRE]))
@example((2 * PRE + 2, [0, 2], [0, 2], [0, 2 * PRE]))  # in the second pass
def test_even_comparison_matches_product(data):
    n, target, walked, other = data
    want = Gf2Series.from_support(walked, n).mul(
        Gf2Series.from_support(other, n)).first_difference(
        Gf2Series.from_support(target, n))
    arrays = [np.array(s, dtype=np.int64) for s in (target, walked, other)]
    assert support_first_difference(arrays[0], arrays[1:], n) == want


@st.composite
def support_pairs(draw):
    """(n, x, y): sorted supports below n where y keeps a drawn prefix of
    x and continues with larger terms, so that one often extends the
    other or first differs from it at the last common index."""
    n, x, tail = draw(word_comb_inputs())
    cut = draw(st.integers(0, len(x)))
    floor = x[cut - 1] if cut else -1
    return n, x, x[:cut] + [t for t in tail if t > floor]


@settings(max_examples=200, deadline=None)
@given(support_pairs())
@example((5, [], []))                    # both empty: nothing to compare
@example((5, [], [2]))                   # one empty, not starting at 0
@example((5, [3], []))
@example((10, [2, 5], [2, 7]))           # neither starts at 0
@example((10, [1, 4], [1, 4, 8]))        # x a prefix of y
@example((10, [1, 4, 8], [1, 4]))        # y a prefix of x
@example((10, [1, 4, 6], [1, 4, 7]))     # at the last common index
@example((10, [0, 3, 9], [0, 3, 9]))     # equal
def test_support_comparison_matches_series(data):
    n, x, y = data
    want = Gf2Series.from_support(x, n).first_difference(
        Gf2Series.from_support(y, n))
    arrays = [np.array(s, dtype=np.int64) for s in (x, y)]
    assert support_first_difference(arrays[0], arrays[1:], n) == want
    assert support_first_difference(arrays[1], arrays[:1], n) == want


@pytest.mark.parametrize("n", [_WORDS_MIN_TERMS - 1, _WORDS_MIN_TERMS,
                               _WORDS_MIN_TERMS + 1, 10 ** 6])
def test_word_comb_matches_int_comb_on_long_products(n, monkeypatch):
    for f, g in ((theta_series(8, n), theta_series(24, n)),
                 (partition_parity(n), theta_series(6, n))):
        monkeypatch.setattr(gf2series, "_WORDS_MIN_TERMS", 0)
        words = f.mul(g)
        monkeypatch.setattr(gf2series, "_WORDS_MIN_TERMS", n + 1)
        assert words == f.mul(g)


def test_mul_kernel_follows_n_terms(monkeypatch):
    # mul and product_first_difference share the two comb helpers; each
    # call is recorded with its length in bits: n_terms for the int comb,
    # 8 * len(out) for the byte comb
    calls = []
    int_comb, xor_comb = gf2series._int_comb, gf2series._xor_comb

    def int_spy(acc, dense, exps, n_terms):
        calls.append(("_int_comb", n_terms))
        return int_comb(acc, dense, exps, n_terms)

    def xor_spy(out, dense, exps, n_terms):
        calls.append(("_xor_comb", 8 * len(out)))
        return xor_comb(out, dense, exps, n_terms)

    monkeypatch.setattr(gf2series, "_int_comb", int_spy)
    monkeypatch.setattr(gf2series, "_xor_comb", xor_spy)

    def kernels(run):
        calls.clear()
        run()
        return set(calls)

    def whole_bytes(n):
        return 8 * ((n + 7) // 8)

    # brute's full products and the prefilter take the Python-int comb
    assert kernels(lambda: classify.brute_search(24, 2000)) == {
        ("_int_comb", 2000)}
    assert kernels(lambda: classify.verify_triple(8, 12, 24, PRE)) == {
        ("_int_comb", PRE)}
    # the switch is at _WORDS_MIN_TERMS terms, for products and for each
    # pass of the first-difference comparison alike
    for n, name in ((_WORDS_MIN_TERMS - 1, "_int_comb"),
                    (_WORDS_MIN_TERMS, "_xor_comb")):
        length = n if name == "_int_comb" else whole_bytes(n)
        assert kernels(lambda: theta_series(1, n).mul(theta_series(2, n))) == {
            (name, length)}
        assert kernels(lambda: classify.verify_triple(8, 12, 24, n)) == {
            ("_int_comb", PRE), (name, length)}
    # all-even supports are halved before the comb: (4, 6, 12), decided
    # as (8, 12, 24), and Jacobi's (q;q)^6 = f_4, as eta(q)eta(q^2) = f_8,
    # run their passes at ceil(n/2)
    for n in (2 * _WORDS_MIN_TERMS - 1, 2 * _WORDS_MIN_TERMS + 1):
        half = {("_int_comb", PRE), ("_xor_comb", whole_bytes((n + 1) // 2))}
        even = [np.array(s, dtype=np.int64)
                for s in ([0, 2, n - 1], [0, 2], [0, n - 1])]
        assert kernels(lambda: support_first_difference(even[0], even[1:], n)) == half
        assert kernels(lambda: classify.verify_triple(4, 6, 12, n)) == half
        assert kernels(lambda: euler_jacobi_check(6, n)) == half
    # long theta products take the byte comb; long identity checks and
    # P*f_a against f_b take it after the prefilter's int comb
    n = 10 ** 6
    assert kernels(lambda: theta_series(8, n).mul(theta_series(24, n))) == {
        ("_xor_comb", n)}
    assert kernels(lambda: classify.verify_triple(8, 12, 24, n)) == {
        ("_int_comb", PRE), ("_xor_comb", n)}
    partition_parity(300_001)  # the parity levels' own products
    assert kernels(lambda: bm_first_failure(6, 8, 300_000)) == {
        ("_int_comb", PRE), ("_xor_comb", whole_bytes(300_001))}


def test_refuted_bm_pairs_never_reach_the_long_comb(monkeypatch):
    # their witness, 1, is found by the prefilter's int comb
    n_max = 10 ** 6
    partition_parity(n_max + 1)  # the parity levels' own products
    calls = []
    monkeypatch.setattr(gf2series, "_xor_comb",
                        lambda out, dense, exps, n_terms: calls.append(len(out)))
    for a, b in BM_REFUTED_PAIRS:
        assert bm_first_failure(a, b, n_max) == 1
    assert calls == []


def test_long_identity_check_builds_no_series(monkeypatch):
    # verify_triple with b != c from 2^16 terms on decides from the
    # theta supports' arrays: no Gf2Series, so no product, is built
    built = []
    init = Gf2Series.__init__

    def spy(self, n_terms, *args, **kwargs):
        built.append(n_terms)
        init(self, n_terms, *args, **kwargs)

    monkeypatch.setattr(Gf2Series, "__init__", spy)
    monkeypatch.setattr(Gf2Series, "mul", lambda self, other: built.append("mul"))
    assert classify.verify_triple(4, 6, 12, 10 ** 6).witness is None
    assert classify.verify_triple(5, 6, 30, 10 ** 6).witness == 3
    assert built == []


def test_long_identity_check_memory_stays_linear():
    # f_a's bytes (the comb's target), the other factor's bytes, one
    # shifted copy and the shift's temporary: about four n-bit buffers at
    # the peak, where building the product as a series took eight
    n = 10 ** 6
    classify.verify_triple(4, 6, 12, n)
    tracemalloc.start()
    try:
        classify.verify_triple(4, 6, 12, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n // 8, peak


def test_long_product_memory_stays_linear():
    # the word comb holds a few n-bit arrays, not one int64 per pair sum,
    # and releases its shifted copies before packing the output: about
    # four n-bit buffers at the peak, where keeping them would make five
    n = 10 ** 6
    f, g = theta_series(6, n), theta_series(12, n)
    tracemalloc.start()
    try:
        f.mul(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * n // 16, peak


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
    assert (Gf2Series(n, f.bits ^ g.bits).mul(h)
            == Gf2Series(n, f.mul(h).bits ^ g.mul(h).bits))


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
