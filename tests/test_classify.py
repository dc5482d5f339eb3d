from collections import Counter
from math import isqrt

import pytest

from theta_parity import classify
from theta_parity.classify import (SPORADIC_TRIPLES, Triple,
                                   VERIFIED, REFUTED, brute_search,
                                   candidate_filter, egyptian_a,
                                   enumerate_candidates, family_criterion,
                                   run_classification, theorem_prediction,
                                   verify_triple)
from theta_parity.numth import is_square, vp
from theta_parity.quadform import repcount
from theta_parity.theta import theta_series


def reference_brute_search(bound, n_terms=2000, a_cap=None):
    """The brute search without memo or candidate cache, as an oracle:
    every pair builds its support list and scans the roots y of a*k1 + 1
    itself, and every candidate a builds f_a afresh."""
    if a_cap is None:
        a_cap = 4 * n_terms
    series = {m: theta_series(m, n_terms) for m in range(1, bound + 1)}
    found = []
    for b in range(1, bound + 1):
        for c in range(b, bound + 1):
            prod = series[b].mul(series[c])
            nonzero = [k for k in prod.support if k > 0]
            if not nonzero:
                continue
            k1 = nonzero[0]
            k2 = nonzero[1] if len(nonzero) > 1 else None
            for y in range(2, isqrt(a_cap * k1 + 1) + 1):
                r = y * y - 1
                if r % k1 != 0:
                    continue
                a = r // k1
                if k2 is not None and is_square(a * k2 + 1) is None:
                    continue
                if theta_series(a, n_terms) == prod:
                    found.append(Triple(a, b, c))
                    break
    return sorted(found)


def test_egyptian_a_examples():
    assert egyptian_a(6, 12) == 4
    assert egyptian_a(8, 8) == 4
    assert egyptian_a(5, 7) is None


def test_candidate_filter_examples():
    assert candidate_filter(6, 12) is None
    reason = candidate_filter(18, 36)
    assert reason is not None and "v3" in reason
    assert candidate_filter(24, 264) is None   # decoy: passes, refuted by series


def test_candidate_filter_requires_ordered_pair():
    with pytest.raises(ValueError):
        candidate_filter(12, 6)


def test_family_criterion_examples():
    assert family_criterion(4)
    assert not family_criterion(16)
    assert family_criterion(24)
    assert not family_criterion(7)


def test_verify_triple_examples():
    assert verify_triple(4, 6, 12, 20000).status == VERIFIED
    cert = verify_triple(18, 24, 72, 100)
    assert cert.status == REFUTED and cert.witness == 1
    assert verify_triple(2, 4, 4, 20000).status == VERIFIED
    # the status is read off the witness, in both directions
    for a, b, c in ((4, 6, 12), (18, 24, 72), (8, 16, 16), (3, 4, 12)):
        cert = verify_triple(a, b, c, 500)
        assert (cert.status == VERIFIED) == (cert.witness is None)
        assert (cert.status == REFUTED) == (cert.witness is not None)
    # witness 0 (a refutation at q^0) is a witness, not a missing one
    assert classify.witness_status(None) == VERIFIED
    assert classify.witness_status(0) == REFUTED


def test_verify_triple_witness_is_first_disagreement():
    cert = verify_triple(8, 16, 16, 2000)
    assert cert.status == REFUTED
    k = cert.witness
    # below the witness the parity of the representation count matches
    for j in range(k):
        assert repcount(16, 16, j) % 2 == (1 if is_square(8 * j + 1) else 0)
    assert repcount(16, 16, k) % 2 != (1 if is_square(8 * k + 1) else 0)


def test_enumerate_candidates_contents():
    cands = enumerate_candidates()
    assert Triple(15, 24, 40) in cands
    assert Triple(18, 24, 72) in cands          # decoy, refuted by series
    assert set(SPORADIC_TRIPLES) <= set(cands)
    for t in cands:
        assert candidate_filter(t.b, t.c) is None
        assert t.b_p != t.c_p
        assert egyptian_a(t.b, t.c) == t.a
    assert cands == sorted(cands)
    assert len(cands) == len(set(cands))


def test_candidate_filter_accepts_exactly_the_enumerated_pairs():
    # every b <= c <= 1000 with b' != c' (that is, b != c) that passes
    # the filter is enumerated, and every enumerated pair in range passes
    enumerated = {(t.b, t.c) for t in enumerate_candidates() if t.c <= 1000}
    accepted = {(b, c) for b in range(1, 1001) for c in range(b + 1, 1001)
                if candidate_filter(b, c) is None}
    assert accepted == enumerated
    assert len(enumerated) == 37


def test_run_classification_small_scale():
    report = run_classification(20000)
    assert report.ok, report.mismatches
    assert sorted(c.triple for c in report.verified) == sorted(SPORADIC_TRIPLES)
    for cert in report.refuted:
        assert cert.witness is not None
        t, k = cert.triple, cert.witness
        assert repcount(t.b, t.c, k) % 2 != (1 if is_square(t.a * k + 1) else 0)
    for cert in report.certificates:
        if cert.status == VERIFIED:
            assert cert.weber is None
            assert cert.n_terms == 20000
    assert report.family_consistent
    # the lenient v2(d) <= 4 filter bound admits candidates the sharper
    # <= 3 derivation would not; all are refuted anyway
    assert report.weak_bound_admits
    assert all(vp(t.d, 2) == 4 for t in report.weak_bound_admits)


def test_theorem_prediction_small():
    assert [t.as_tuple() for t in theorem_prediction(12)] == \
        [(2, 4, 4), (4, 6, 12), (4, 8, 8), (6, 12, 12)]
    for bound in range(1, 301):
        families = [Triple(m * q, 2 * m * q, 2 * m * q)
                    for m in (2, 4) for q in range(1, bound // (2 * m) + 1, 2)]
        sporadic = [t for t in SPORADIC_TRIPLES if t.c <= bound]
        assert theorem_prediction(bound) == sorted(families + sporadic), bound


def test_brute_search_example_bound_40():
    found = brute_search(40, 2000)
    families = {(2, 4, 4), (6, 12, 12), (10, 20, 20), (14, 28, 28),
                (18, 36, 36), (4, 8, 8), (12, 24, 24), (20, 40, 40)}
    sporadics = {(4, 6, 12), (6, 8, 24), (8, 12, 24), (15, 24, 40)}
    assert {t.as_tuple() for t in found} == families | sporadics
    assert found == theorem_prediction(40)


def test_brute_search_minimal_bound():
    assert [t.as_tuple() for t in brute_search(4, 100)] == [(2, 4, 4)]


def test_brute_search_results_satisfy_known_necessities():
    found = brute_search(60, 2000)
    for t in found:
        assert egyptian_a(t.b, t.c) == t.a
        if t.b_p == t.c_p:
            assert t.b_p == 1 and family_criterion(t.d)
        else:
            assert candidate_filter(t.b, t.c) is None


# At n_terms 8 and 9 hundreds of pairs match some f_a by truncation
# coincidence; those cases pin the first match in ascending a.  The
# oracle's a_cap stays None, its default 4*n_terms, which is the cap
# brute_search always uses.
@pytest.mark.parametrize("bound, n_terms, a_cap", [
    (4, 100, None), (40, 2000, None), (60, 40, None), (100, 500, None),
    (120, 3000, None), (30, 8, None), (50, 9, None)])
def test_brute_search_matches_reference(bound, n_terms, a_cap):
    assert (brute_search(bound, n_terms)
            == reference_brute_search(bound, n_terms, a_cap))


def test_brute_search_builds_each_theta_series_once(monkeypatch):
    calls = Counter()

    def counting_theta_series(m, n_terms):
        calls[m] += 1
        return theta_series(m, n_terms)

    monkeypatch.setattr(classify, "theta_series", counting_theta_series)
    assert brute_search(40, 2000) == theorem_prediction(40)
    assert set(range(1, 41)) <= set(calls)
    assert max(calls.values()) == 1


def test_brute_search_validation():
    with pytest.raises(ValueError):
        brute_search(3, 100)
    with pytest.raises(ValueError):
        brute_search(4, 7)


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(4, 12, 6)
    with pytest.raises(ValueError):
        Triple(0, 4, 6)
    t = Triple(15, 24, 40)
    assert (t.d, t.b_p, t.c_p) == (8, 3, 5)
