from math import isqrt

import pytest

from theta_parity.gf2series import Gf2Series
from theta_parity.theta import (eta_power_series, eta_support,
                                euler_jacobi_check, theta_series,
                                theta_support)


def scan_support(m, n_terms):
    """Filter-scan oracle: all k < N with m*k+1 a perfect square."""
    out = []
    for k in range(n_terms):
        r = isqrt(m * k + 1)
        if r * r == m * k + 1:
            out.append(k)
    return out


def test_theta_support_examples():
    assert theta_support(4, 13) == (0, 2, 6, 12)
    assert theta_support(1, 10) == (0, 3, 8)
    assert theta_support(24, 41) == (0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40)


def test_theta_support_matches_scan_oracle():
    for m in range(1, 51):
        assert list(theta_support(m, 2000)) == scan_support(m, 2000)
    for m in (1, 7, 24, 37, 50):
        assert list(theta_support(m, 10 ** 4)) == scan_support(m, 10 ** 4)


def test_theta_support_roots_are_units():
    for m in (3, 8, 24, 45):
        sup = theta_support(m, 3000)
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
        theta_support(0, 10)
    with pytest.raises(ValueError):
        theta_support(4, 0)


def test_eta_support_examples():
    assert eta_support(8) == (0, 1, 2, 5, 7)
    assert eta_support(41) == (0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40)
    assert eta_support(1) == (0,)


def test_eta_support_equals_f24():
    for n in (1, 2, 17, 100, 4096, 10 ** 6):
        assert eta_support(n) == theta_support(24, n)


def test_eta_power_series_examples():
    assert eta_power_series(1, 41).support == eta_support(41)
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


def test_euler_jacobi_check_small():
    for a in (1, 2, 3, 4, 6):
        assert euler_jacobi_check(a, 2000) is None
    with pytest.raises(ValueError):
        euler_jacobi_check(5, 10)


def test_theta_series_round_trip():
    s = theta_series(6, 300)
    assert s.support == theta_support(6, 300)
