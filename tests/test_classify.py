import tracemalloc
from collections import Counter
from dataclasses import replace
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta_parity import classify, gf2series, theta
from theta_parity.classify import (SPORADIC_TRIPLES, Triple,
                                   VERIFIED, REFUTED, brute_search,
                                   candidate_filter, egyptian_a,
                                   enumerate_candidates, family_criterion,
                                   run_classification, theorem_prediction,
                                   verify_triple)
from theta_parity.gf2series import (Gf2Series, product_first_difference,
                                    support_bytes)
from theta_parity.numth import is_square, vp
from theta_parity.quadform import repcount
from theta_parity.theta import theta_exponents, theta_series


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


# verify_triple's witness for each enumerated candidate, the same at 4096
# and 10^6 terms, as the Gf2Series product computed it before the
# first-difference comb; None for the eight sporadic triples
CANDIDATE_WITNESSES = {
    (2, 3, 6): 1, (3, 4, 12): 1, (4, 6, 12): None, (5, 6, 30): 3,
    (6, 8, 24): None, (7, 8, 56): 1, (8, 12, 24): None, (9, 12, 36): 2,
    (10, 12, 60): None, (11, 12, 132): 2, (12, 16, 48): 1,
    (14, 16, 112): 2, (15, 24, 40): None, (16, 24, 48): None,
    (18, 24, 72): 1, (20, 24, 120): None, (21, 24, 168): None,
    (22, 24, 264): 1, (23, 24, 552): 1, (30, 48, 80): 2, (35, 60, 84): 1,
    (36, 48, 144): 1, (40, 48, 240): 1, (42, 48, 336): 1, (44, 48, 528): 2,
    (45, 72, 120): 1, (46, 48, 1104): 1, (55, 60, 660): 2, (63, 72, 504): 1,
    (70, 120, 168): 2, (90, 144, 240): 2, (95, 120, 456): 1,
    (110, 120, 1320): 1, (119, 168, 408): 1, (126, 144, 1008): 2,
    (140, 240, 336): 4, (143, 264, 312): 1, (190, 240, 912): 4,
    (220, 240, 2640): 2, (238, 336, 816): 5, (253, 264, 6072): 2,
    (286, 528, 624): 2, (506, 528, 12144): 1, (595, 840, 2040): 1,
    (665, 840, 3192): 1, (1190, 1680, 4080): 1, (1330, 1680, 6384): 1,
}


@pytest.mark.parametrize("n", [classify.PREFILTER_TERMS, 10 ** 6])
def test_candidate_witnesses_unchanged(n):
    got = {t.as_tuple(): verify_triple(*t.as_tuple(), n).witness
           for t in enumerate_candidates()}
    assert got == CANDIDATE_WITNESSES


@pytest.mark.parametrize("n", [300, classify.PREFILTER_TERMS,
                               classify.PREFILTER_TERMS + 1, 10 ** 5])
def test_candidate_certificates_name_the_deciding_truncation(n):
    # every witness lies below PREFILTER_TERMS, so the comparison's first
    # pass decides each refuted candidate and its certificate names that
    # pass's length; verified ones name the full truncation
    report = classify.run_classification(n)
    assert len(report.refuted) == 39 and len(report.verified) == 8
    assert {c.n_terms for c in report.refuted} == {
        min(classify.PREFILTER_TERMS, n)}
    assert {c.n_terms for c in report.verified} == {n}


FAMILY_TRIPLES = [Triple(d // 2, d, d)
                  for d in range(2, classify.FAMILY_MAX_D + 1, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4095, 4096, 4097, 8191, 8192, 8193,
                               2 ** 17 - 1, 2 ** 17, 2 ** 17 + 1, 10 ** 6])
def test_grouped_decisions_match_verify_triple(n):
    # one comparison per group of q -> q^2 images gives every member
    # verify_triple's own certificate; only the images name a decider
    triples = enumerate_candidates() + FAMILY_TRIPLES
    got = classify.verify_triples(triples, n)
    assert [c.triple for c in got] == triples
    for t, cert in zip(triples, got):
        assert replace(cert, decided_by=None) == verify_triple(*t.as_tuple(), n)
    decided_by = {c.triple: c.decided_by for c in got if c.decided_by}
    assert decided_by == {
        Triple(4, 6, 12): Triple(8, 12, 24),
        Triple(10, 12, 60): Triple(20, 24, 120),
        **{Triple(d // 2, d, d): Triple(d, 2 * d, 2 * d)
           for d in range(4, classify.FAMILY_MAX_D // 2 + 1, 8)}}


def test_run_classification_compares_each_group_once(monkeypatch):
    # 45 candidates and 87 family triples: (4, 6, 12), (10, 12, 60) and
    # the 13 (d/2, d, d) with v2(d) = 2 and 2d <= FAMILY_MAX_D are read
    # off their preimages' comparisons
    calls = Counter()
    verify = classify.verify_triple

    def spy(a, b, c, n_terms):
        calls[a, b, c] += 1
        return verify(a, b, c, n_terms)

    monkeypatch.setattr(classify, "verify_triple", spy)
    report = classify.run_classification(10 ** 6)
    assert report.ok, report.mismatches
    assert sum(calls.values()) == 132 and set(calls.values()) == {1}
    assert (4, 6, 12) not in calls and (10, 12, 60) not in calls
    assert {c.triple: c.decided_by for c in report.verified if c.decided_by} \
        == {Triple(4, 6, 12): Triple(8, 12, 24),
            Triple(10, 12, 60): Triple(20, 24, 120)}


@pytest.mark.parametrize("witnesses, weber_on, mismatches, consistent", [
    # a refuted candidate reported verified
    ({(5, 6, 30): None}, None, ["unexpected verified triple (5, 6, 30)"],
     True),
    # a sporadic triple refuted
    ({(15, 24, 40): 1}, None, ["sporadic triple (15, 24, 40) not verified"],
     True),
    # a family verdict against family_criterion(2), which is False
    ({(1, 2, 2): None}, None,
     ["family criterion disagrees with series at d = 2"], False),
    # a Weber certificate on a verified triple
    ({}, (24, 40), ["verified (15, 24, 40) has a Weber refutation"], True),
])
def test_run_classification_reports_each_mismatch(
        monkeypatch, witnesses, weber_on, mismatches, consistent):
    # the self-check's failure path: verify_triple's witness for one
    # triple, or weber_reject's answer for one (b, c), is replaced, and
    # exactly that mismatch is reported
    verify, reject = classify.verify_triple, classify.weber_reject
    refutation = reject(24, 72, classify.WEBER_BOUND)
    assert refutation is not None

    def fake_verify(a, b, c, n_terms):
        cert = verify(a, b, c, n_terms)
        return replace(cert, witness=witnesses.get((a, b, c), cert.witness))

    def fake_reject(b, c, bound):
        return refutation if (b, c) == weber_on else reject(b, c, bound)

    monkeypatch.setattr(classify, "verify_triple", fake_verify)
    monkeypatch.setattr(classify, "weber_reject", fake_reject)
    report = classify.run_classification(classify.PREFILTER_TERMS)
    assert not report.ok
    assert report.mismatches == mismatches
    assert report.family_consistent is consistent


def test_refuted_candidates_memory_is_sublinear():
    # each refuted candidate's witness lies below PREFILTER_TERMS, and the
    # comparison packs the longer factor's support only to the length of
    # the pass it runs, so no N-bit series is built for them; the peak,
    # about N/32 here, is theta_exponents' root scan for the largest m
    n = 10 ** 7
    refuted = [t for t in enumerate_candidates()
               if CANDIDATE_WITNESSES[t.as_tuple()] is not None]
    assert len(refuted) == 39
    verify_triple(*refuted[0].as_tuple(), n)
    tracemalloc.start()
    try:
        got = {t.as_tuple(): verify_triple(*t.as_tuple(), n).witness
               for t in refuted}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == {t.as_tuple(): CANDIDATE_WITNESSES[t.as_tuple()]
                   for t in refuted}
    assert peak < n // 16, peak


def test_verify_triple_squares_equal_factors(monkeypatch):
    # b == c takes f_b^2 = f_b(q^2) mod 2: the family spot checks' witnesses
    # equal those of the multiply, and no multiply kernel runs for them
    n = classify.PREFILTER_TERMS
    want = {d: theta_series(d // 2, n).first_difference(
        theta_series(d, n).mul(theta_series(d, n))) for d in range(2, 201, 2)}
    kernels = []
    for name in ("_int_comb", "_xor_comb"):
        monkeypatch.setattr(gf2series, name,
                            lambda *args, name=name: kernels.append(name))
    assert {d: verify_triple(d // 2, d, d, n).witness for d in want} == want
    assert kernels == []


# b = c compares f_a's support x with 2*(f_b's below ceil(N/2)), y; the
# examples put the first difference where the arrays first differ (just
# past 0, inside, at the last common entry) with either one longer, past
# the end of the shorter (x or y longer), nowhere, and at N in {1, 2}
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 3000))
@example(1, 1, 1)
@example(1, 1, 2)
@example(3, 3, 3)      # differ at the last common entry, equal lengths
@example(8, 3, 4)      # ... with x longer
@example(1, 24, 5)     # ... with y longer
@example(24, 24, 6)    # differ just past 0, x longer
@example(1, 24, 12)    # differ just past 0, y longer
@example(12, 8, 15)    # differ inside, x longer
@example(3, 1, 2)      # x extends y: x's next entry
@example(3, 1, 3)
@example(2, 3, 4)      # y extends x: y's next entry
@example(1, 3, 3)
@example(12, 24, 3001)  # family: equal
def test_equal_factors_match_the_frobenius_square(a, b, n):
    want = theta_series(a, n).first_difference(theta_series(b, n).square())
    assert verify_triple(a, b, b, n).witness == want


def two_adic_squares():
    """m with v2(m) in {1, 2}: the factors that descend."""
    return st.builds(lambda odd, v: (2 * odd + 1) << v,
                     st.integers(0, 30), st.sampled_from([1, 2]))


# the descent decides (a, b, c) at ceil(N/2) as (2a, 2b, 2c); its witness
# is that of the comparison on the undescended supports, refuted or
# verified (the two descending sporadic triples and a family triple)
@settings(max_examples=200, deadline=None)
@given(two_adic_squares(), two_adic_squares(), two_adic_squares(),
       st.integers(1, 5000))
@example(4, 6, 12, 4097)
@example(10, 12, 60, 4096)
@example(10, 60, 12, 2 * classify.PREFILTER_TERMS + 1)
@example(6, 12, 12, 999)
@example(2, 6, 6, 1)
def test_descent_matches_the_undescended_comparison(a, b, c, n):
    walked, other = sorted((theta_exponents(m, n) for m in (b, c)), key=len)
    want = product_first_difference(theta_exponents(a, n), walked,
                                    support_bytes(other, n), n)
    assert verify_triple(a, b, c, n).witness == want


def test_descent_needs_no_int64_limit_on_twice_m(monkeypatch):
    # the comparison halves the supports it is given and builds none at
    # 2m, so (2, 6, c) descends although c*(N + 1) reaches 2^63; f_c is
    # just [0] here and f_2, f_6 are multiples of 4, so it halves twice
    # and combs at 2^18 terms, as (8, 24, 4c)
    c = 4 * (2 ** 41 + 1)
    n = (2 ** 63 - 1) // c
    assert n == 1_048_575 and c * (n + 1) >= 2 ** 63
    sizes = []
    comb = gf2series.product_first_difference

    def spy(target, walked, dense, n_terms):
        sizes.append(n_terms)
        return comb(target, walked, dense, n_terms)

    monkeypatch.setattr(gf2series, "product_first_difference", spy)
    assert verify_triple(2, 6, c, n).witness == 8
    assert sizes == [262_144]


def test_equal_factors_memory_is_sublinear():
    # b = c compares two sorted supports of O(sqrt(N)) entries each, and
    # packs no N-bit series
    n = 10 ** 7
    assert verify_triple(5, 10, 10, n).witness == 3
    verify_triple(12, 24, 24, n)
    tracemalloc.start()
    try:
        assert verify_triple(12, 24, 24, n).witness is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n // 64, peak


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
# coincidence; those cases pin the first match in ascending a.  At
# (40, 2000), 102 pairs have fewer than two nonzero indices below the
# cut, so their k1 and k2 come from the full product.  The oracle's
# a_cap stays None, its default 4*n_terms, which is the cap brute_search
# always uses.
@pytest.mark.parametrize("bound, n_terms, a_cap", [
    (4, 100, None), (40, 2000, None), (60, 40, None), (100, 500, None),
    (120, 3000, None), (30, 8, None), (50, 9, None)])
def test_brute_search_matches_reference(bound, n_terms, a_cap):
    assert (brute_search(bound, n_terms)
            == reference_brute_search(bound, n_terms, a_cap))


def test_brute_search_builds_each_theta_row_once(monkeypatch):
    # every f_m comes from batched theta_rows calls: f_1..f_40 at full
    # length in one call, then window rows and survivors' full rows per
    # block, and no m is built twice at one width
    series_calls, rows = Counter(), Counter()
    theta_rows = classify.theta_rows

    def counting_theta_series(m, n_terms):
        series_calls[m] += 1
        return theta_series(m, n_terms)

    def counting_theta_rows(ms, width):
        rows.update((m, width) for m in np.asarray(ms).tolist())
        return theta_rows(ms, width)

    # classify binds no theta_series of its own, so patching the theta
    # module's catches every call
    assert not hasattr(classify, "theta_series")
    monkeypatch.setattr(theta, "theta_series", counting_theta_series)
    monkeypatch.setattr(classify, "theta_rows", counting_theta_rows)
    assert brute_search(40, 2000) == theorem_prediction(40)
    assert not series_calls
    assert {(m, 2000) for m in range(1, 41)} <= set(rows)
    assert max(rows.values()) == 1


def candidate_oracle(key, n, a_cap):
    """The a in [1, a_cap] with a*k1 + 1 square and, unless k2 = 0,
    a*k2 + 1 square, ascending."""
    k1, k2 = divmod(key, n)
    return [a for a in range(1, a_cap + 1)
            if is_square(a * k1 + 1) is not None
            and (k2 == 0 or is_square(a * k2 + 1) is not None)]


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 90), st.data())
def test_candidate_runs_match_a_per_key_oracle(n, data):
    # the first key k2 = 0 and k1 < k2 < n otherwise, as brute_search
    # forms them; batches of sorted distinct keys drawn from a small pool,
    # so later batches mix fresh keys with known ones
    pair = st.tuples(st.integers(1, n - 1), st.integers(0, n - 1)).filter(
        lambda k: k[1] == 0 or k[0] < k[1])
    pool = data.draw(st.lists(pair, min_size=1, max_size=12, unique=True))
    cands, a_cap, want = classify._CandidateRuns(n, 4 * n), 4 * n, {}
    for _ in range(data.draw(st.integers(1, 5))):
        batch = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   unique=True))
        keys = np.array(sorted(k1 * n + k2 for k1, k2 in batch), np.int64)
        start, count = cands.runs(keys)
        for key, s, c in zip(keys.tolist(), start.tolist(), count.tolist()):
            if key not in want:
                want[key] = candidate_oracle(key, n, a_cap)
            assert cands.a[s:s + c].tolist() == want[key]
    assert sorted(cands.keys.tolist()) == cands.keys.tolist() == sorted(want)


# Lengths that straddle a multiple of 8 bits: at 255 and 256 the series
# fills its last byte, at 257 it spills one coefficient into the next.
@pytest.mark.parametrize("n_terms", [255, 256, 257])
def test_brute_search_matches_reference_at_window_edge(n_terms):
    assert brute_search(60, n_terms) == reference_brute_search(60, n_terms)


# Capping the end of each pair's exact window at 8 terms keeps it exact
# (the extra term q^(x_b + x_c) is placed only below the capped end) and
# sends hundreds of pairs through the full product (1110 of 1830 at
# (60, 255), 85 uncapped), while the rest are decided on short masks.
# At (50, 9) the series is barely longer than the cap.
@pytest.mark.parametrize("bound, n_terms", [(60, 255), (40, 2000), (50, 9)])
def test_brute_search_matches_reference_with_small_window(
        monkeypatch, bound, n_terms):
    window_end = classify.pair_window_end
    monkeypatch.setattr(classify, "pair_window_end",
                        lambda *args: np.minimum(window_end(*args), 8))
    assert (brute_search(bound, n_terms)
            == reference_brute_search(bound, n_terms))


def test_brute_search_forms_fewer_products_than_pairs(monkeypatch):
    calls = Counter()
    mul = Gf2Series.mul

    def counting_mul(self, other):
        calls[self.n_terms] += 1
        return mul(self, other)

    monkeypatch.setattr(Gf2Series, "mul", counting_mul)
    assert brute_search(40, 2000) == theorem_prediction(40)
    # below the window's end the product is f_b + f_c + 1 plus at most
    # one term, so most of the 820 pairs are decided without a multiply:
    # 59 products and 40 squares (b = c), where cutting at x_b + x_c
    # formed 173 and 40, and skipping no candidate that differs below it
    # 792 products
    assert set(calls) == {2000}
    assert 2 * calls[2000] < 40 * 41 // 2
    assert calls[2000] < 80


# The pairs are decided in blocks of _BRUTE_BLOCK, so the transient arrays
# stay small beside the series the search keeps: the peaks read about 1.2
# and 4.1 MB, where one block of all pairs read 6.8 and 342 MB.
@pytest.mark.parametrize("bound, limit_mb", [(200, 1.5), (1000, 8)])
def test_brute_search_memory_stays_small(bound, limit_mb):
    brute_search(24, 2000)
    tracemalloc.start()
    try:
        brute_search(bound, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 10 ** 6, peak


def test_brute_search_memory_small_box_long_series():
    # a small box at a long truncation: the candidate a's run to 4N, so a
    # per-block transient of that length (a bincount over the candidates)
    # peaked at 15.1 MB; the 4N + 1 int32 slot index alone is 3.2 MB of
    # the 7.6
    tracemalloc.start()
    try:
        brute_search(24, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 10 ** 6, peak


def test_brute_search_validation():
    with pytest.raises(ValueError):
        brute_search(3, 100)
    with pytest.raises(ValueError):
        brute_search(4, 7)
    with pytest.raises(ValueError, match="2\\^63"):
        brute_search(4, 1 << 31)  # candidate arithmetic would wrap in int64


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(4, 12, 6)
    with pytest.raises(ValueError):
        Triple(0, 4, 6)
    t = Triple(15, 24, 40)
    assert (t.d, t.b_p, t.c_p) == (8, 3, 5)
