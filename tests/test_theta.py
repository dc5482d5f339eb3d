import time
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from theta_parity import theta
from theta_parity.gf2series import Gf2Series, support_first_difference
from theta_parity.theta import (EULER_JACOBI_EXPONENTS, eta_power_series,
                                eta_support, euler_jacobi_check,
                                theta_exponents, theta_rows, theta_series)


def scan_support(m, n_terms):
    """Filter-scan oracle: all k < N with m*k+1 a perfect square."""
    out = []
    for k in range(n_terms):
        r = isqrt(m * k + 1)
        if r * r == m * k + 1:
            out.append(k)
    return out


def test_theta_support_examples():
    assert theta_exponents(4, 13).tolist() == [0, 2, 6, 12]
    assert theta_exponents(1, 10).tolist() == [0, 3, 8]
    assert theta_exponents(24, 41).tolist() == [0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40]


def test_theta_support_matches_scan_oracle():
    for m in range(1, 51):
        assert theta_exponents(m, 2000).tolist() == scan_support(m, 2000)
    for m in (1, 7, 24, 37, 50):
        assert theta_exponents(m, 10 ** 4).tolist() == scan_support(m, 10 ** 4)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 3000))
@example(5000, 1)      # m > lim: only the root 1 is scanned
@example(4999, 3)
@example(1, 1)
def test_theta_support_property_matches_scan_oracle(m, n_terms):
    sup = theta_exponents(m, n_terms)
    assert sup.dtype == np.int64
    assert sup.tolist() == scan_support(m, n_terms)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 10 ** 5), st.integers(0, 2000))
@example(1, 10 ** 5, 0)   # m = 10^10 + 2 with 1 in the support
@example(5, 1, 0)         # m = 7: N = 6 < min(7, 6) fails, the root scan runs
def test_theta_support_with_m_above_n_matches_scan_oracle(k0, r, extra):
    # m = r*(r*k0 + 2) makes m*k0 + 1 = (r*k0 + 1)^2, so k0 < N is in the
    # support; m > N takes the direct test of the N indices unless
    # isqrt(m*N) = N
    m, n_terms = r * (r * k0 + 2), k0 + 1 + extra
    assume(m > n_terms)
    sup = theta_exponents(m, n_terms)
    assert sup.dtype == np.int64
    assert k0 in sup.tolist()
    assert sup.tolist() == scan_support(m, n_terms)


def test_theta_support_huge_m_returns_quickly():
    # min(m, isqrt(m*N)) = 2^31 candidate roots, one candidate index
    t0 = time.perf_counter()
    assert theta_exponents(2 ** 62, 1).tolist() == [0]
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("m, n_terms", [
    (720720, 10 ** 5),   # 2^4*3^2*5*7*11*13: 256 square roots of 1
    (2 ** 17, 2 ** 17),  # roots on both sides of the first chunk boundary
])
def test_theta_support_many_roots_match_scan_oracle(m, n_terms):
    sup = theta_exponents(m, n_terms)
    assert sup.dtype == np.int64
    assert sup.tolist() == scan_support(m, n_terms)


def test_theta_support_rejects_inputs_beyond_int64():
    with pytest.raises(ValueError, match="2\\^63"):
        theta_exponents(2 ** 40, 2 ** 23)


def test_theta_support_scan_memory_is_chunked():
    # 3.2*10^6 candidate roots; an unchunked scan holds several int64
    # arrays of that length (about 75 MB)
    tracemalloc.start()
    try:
        sup = theta_exponents(10 ** 10, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sup.tolist() == scan_support(10 ** 10, 1000)
    assert peak < 8 * 2 ** 20


def test_theta_support_direct_test_memory_is_chunked():
    # m > N takes the direct branch: 2*10^7 indices, whose packed row
    # alone is 2.5 MB, tested in steps of theta._ROW_CHUNK; m*5 + 1 is
    # (5r + 1)^2, so f_m has q^5
    r = 141_421
    m = r * (5 * r + 2)
    tracemalloc.start()
    try:
        sup = theta_exponents(m, 2 * 10 ** 7).tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sup[:2] == [0, 5]
    assert all(isqrt(m * k + 1) ** 2 == m * k + 1 for k in sup)
    assert peak < 1.5 * 2 ** 20, peak


def test_theta_support_roots_are_units():
    for m in (3, 8, 24, 45):
        sup = theta_exponents(m, 3000).tolist()
        roots = set()
        for k in sup:
            r = isqrt(m * k + 1)
            assert r * r == m * k + 1
            assert (r * r) % m == 1 % m
            roots.add(r)
        # distinct roots give distinct indices
        assert len(roots) == len(sup)


def test_theta_support_validation():
    with pytest.raises(ValueError):
        theta_exponents(0, 10)
    with pytest.raises(ValueError):
        theta_exponents(4, 0)


def row_exponents(rows, width):
    """The set bits of each packed row, as lists; none at or past width."""
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    assert not bits[:, width:].any()
    return [np.flatnonzero(b).tolist() for b in bits]


@st.composite
def theta_row_inputs(draw):
    """Up to five m in [1, 10^5] and a width around a byte or word edge;
    some m are r*(r*k0 + 2), whose f_m has k0 < width in its support."""
    width = draw(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 255, 256, 257]))
    planted = st.builds(lambda k0, r: r * (r * k0 + 2),
                        st.integers(0, width - 1), st.integers(1, 300))
    m = st.one_of(st.integers(1, 10 ** 5),
                  planted.filter(lambda m: m <= 10 ** 5))
    return draw(st.lists(m, min_size=1, max_size=5)), width


@settings(max_examples=150, deadline=None)
@given(theta_row_inputs())
@example(([1, 2, 24, 256], 257))        # m <= 4*width: the root branch
@example(([1029, 10 ** 5, 99_999], 257))  # m > 4*width: the direct branch
@example(([4 * 65 + 1, 24 * 24 * 64 + 48], 65))
def test_theta_rows_match_theta_exponents_and_scan_oracle(inputs):
    # for m > 4*width theta_exponents tests each index directly too, by
    # the same squareness test, so the scan oracle checks that branch
    ms, width = inputs
    rows = theta_rows(ms, width)
    assert rows.dtype == np.uint8
    assert rows.shape == (len(ms), 8 * ((width + 63) // 64))
    for m, got in zip(ms, row_exponents(rows, width)):
        assert got == theta_exponents(m, width).tolist()
        assert got == scan_support(m, width)


def test_theta_rows_exact_just_below_int64_limit():
    # m*64 within 2% of 2^63, and m*63 + 1 = y^2 near 2^63, where the
    # float square root alone cannot tell y^2 from y^2 +- 1
    y = isqrt((2 ** 63 - 1) * 63 // 64)
    while (y * y - 1) % 63:
        y -= 1
    m = (y * y - 1) // 63
    assert 0.98 * 2 ** 63 < m * 64 < 2 ** 63
    [got] = row_exponents(theta_rows([m], 64), 64)
    assert got == scan_support(m, 64)
    assert got[-1] == 63


def test_theta_rows_splits_long_rows_and_bounds_memory():
    # rows longer than the numpy step are tested in byte-aligned slices;
    # a thousand rows at once stay far below the 16 MB an unchunked
    # int64 pass would take
    width = 3 * theta._ROW_CHUNK + 5
    ms = [1, 24, 2 * width + 1]
    for m, got in zip(ms, row_exponents(theta_rows(ms, width), width)):
        assert got == scan_support(m, width)
    tracemalloc.start()
    try:
        theta_rows(range(1, 1001), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6, peak


def test_theta_rows_validation():
    with pytest.raises(ValueError, match="2\\^63"):
        theta_rows([2 ** 62], 2)
    with pytest.raises(ValueError, match="2\\^63"):
        theta_rows([3, 2 ** 63 // 5 + 1], 5)
    # (2^62 - 1)*1 + 1 = (2^31)^2
    assert row_exponents(theta_rows([2 ** 62 - 1], 2), 2) == [[0, 1]]
    for ms, width in (([0], 5), ([3, -1], 5), ([3], 0)):
        with pytest.raises(ValueError):
            theta_rows(ms, width)
    assert theta_rows([], 9).shape == (0, 8)


def test_eta_support_examples():
    assert eta_support(8).tolist() == [0, 1, 2, 5, 7]
    assert eta_support(41).tolist() == [0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40]
    assert eta_support(1).tolist() == [0]
    assert eta_support(1).dtype == np.int64


def test_eta_support_equals_f24():
    # every n < 200 puts N on, just past and between the pentagonal numbers
    for n in [*range(1, 200), 4096, 10 ** 6]:
        assert eta_support(n).tolist() == theta_exponents(24, n).tolist()


def test_eta_power_series_examples():
    assert eta_power_series(1, 41).support == tuple(eta_support(41).tolist())
    # Jacobi's identity: cube supported on triangular numbers
    assert eta_power_series(3, 11).support == (0, 1, 3, 6, 10)
    assert eta_power_series(2, 11).support == (0, 2, 4, 10)


def test_eta_power_series_rejects_other_exponents():
    for a in (0, 5, 7, -1, 24):
        with pytest.raises(ValueError):
            eta_power_series(a, 10)


def test_eta_powers_match_repeated_multiplication():
    n = 600
    e1 = eta_power_series(1, n)
    acc = Gf2Series.one(n)
    powers = {}
    for a in range(1, 7):
        acc = acc.mul(e1)
        powers[a] = acc
    for a in (1, 2, 3, 4, 6):
        assert eta_power_series(a, n) == powers[a]


def test_euler_jacobi_checks_compare_supports(monkeypatch):
    # eta^a is the product of the twists eta(q^t), t the powers of two
    # in a: the check compares their supports and builds no series, and
    # eta_power_series multiplies two twists once, for a in {3, 6}
    calls = []
    mul = Gf2Series.mul

    def spy(self, other):
        calls.append(self.n_terms)
        return mul(self, other)

    def refuse(*args):
        raise AssertionError("euler_jacobi_check built a series")

    n = 3000
    with monkeypatch.context() as patch:
        for name in ("__init__", "from_support", "mul", "square"):
            patch.setattr(Gf2Series, name, refuse)
        for a in EULER_JACOBI_EXPONENTS:
            assert euler_jacobi_check(a, n) is None
    monkeypatch.setattr(Gf2Series, "mul", spy)
    for a in EULER_JACOBI_EXPONENTS:
        calls.clear()
        eta_power_series(a, n)
        assert calls == ([n] if a in (3, 6) else [])


@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 65535, 65536, 65537])
def test_euler_jacobi_check_matches_series_oracle(n):
    # eta^a by repeated multiplication against f_{24/b}: a = b is
    # Jacobi's congruence, and a != b compares one exponent's twists
    # with another's theta series, where a witness must appear
    eta = Gf2Series.from_support(eta_support(n), n)
    powers = {1: eta}
    for a in range(2, 7):
        powers[a] = powers[a - 1].mul(eta)
    for a in EULER_JACOBI_EXPONENTS:
        assert euler_jacobi_check(a, n) is None
        for b in EULER_JACOBI_EXPONENTS:
            target = theta_exponents(24 // b, n)
            got = support_first_difference(target, theta._eta_twists(a, n), n)
            assert got == powers[a].first_difference(theta_series(24 // b, n))
            if n > 2:
                assert (got is None) == (a == b), (a, b)


def test_euler_jacobi_check_small():
    for a in (1, 2, 3, 4, 6):
        assert euler_jacobi_check(a, 2000) is None
    with pytest.raises(ValueError):
        euler_jacobi_check(5, 10)


def test_theta_series_round_trip():
    s = theta_series(6, 300)
    assert s.support == tuple(theta_exponents(6, 300).tolist())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(8, 3000))
@example(7, 7, 2000)      # b = c: the sum is 1 below the cut
@example(1, 300, 8)       # f_300 has no positive index below 8
@example(299, 300, 8)     # neither factor has one
def test_theta_product_is_sum_plus_one_below_first_indices(b, c, n):
    # Mod 2, f_b*f_c = f_b + f_c + 1 + (f_b + 1)*(f_c + 1), and the last
    # term starts at x + y, the sum of the first positive indices.
    fb, fc = theta_series(b, n), theta_series(c, n)
    prod = fb.mul(fc)
    total = fb.bits ^ fc.bits ^ 1
    if len(fb.support) == 1 or len(fc.support) == 1:
        # a factor is 1 below n, so the product is the other factor
        assert prod == (fc if len(fb.support) == 1 else fb)
        assert prod.bits == total
        return
    x, y = fb.support[1], fc.support[1]
    cut = min(x + y, n)
    assert prod.bits & ((1 << cut) - 1) == total & ((1 << cut) - 1)
    if x + y < n:
        assert prod.coeff(x + y) != (total >> (x + y)) & 1


def first_two_positive(series):
    """A series' first two positive support indices, n_terms where absent."""
    rest = list(series.support[1:3]) + [series.n_terms] * 2
    return rest[0], rest[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(8, 3000))
@example(7, 7, 2000)      # b = c: the two ends coincide and the terms cancel
@example(1, 300, 8)       # f_300 has no positive index below 8
@example(5, 300, 20)      # f_300 has exactly one below 20, at 8
def test_theta_product_has_one_extra_term_below_second_indices(b, c, n):
    # Every term of (f_b + 1)*(f_c + 1) but q^(x_b + x_c) starts at or
    # above min(x_b + x2_c, x2_b + x_c), where x and x2 are a factor's
    # first two positive indices.  brute_search reads the product's low
    # coefficients from this.
    fb, fc = theta_series(b, n), theta_series(c, n)
    (x_b, x2_b), (x_c, x2_c) = first_two_positive(fb), first_two_positive(fc)
    cut = min(x_b + x2_c, x2_b + x_c, n)
    total = fb.bits ^ fc.bits ^ 1
    if x_b + x_c < cut:
        total ^= 1 << (x_b + x_c)
    prod = fb.mul(fc)
    assert prod.bits & ((1 << cut) - 1) == total & ((1 << cut) - 1)
    if cut < n and x_b + x2_c != x2_b + x_c:
        # one term sits at the end, so the identity stops there
        assert prod.coeff(cut) != (total >> cut) & 1
