"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; time-bounded criteria assert their wall-clock budget.
"""

import json
import random
import subprocess
import sys
import time
from math import gcd, isqrt

from theta_parity.classify import (FAMILY_MAX_D, SPORADIC_TRIPLES, VERIFIED,
                                   REFUTED, brute_search, run_classification,
                                   theorem_prediction)
from theta_parity.gf2series import Gf2Series
from theta_parity.numth import is_prime, is_square, jacobi, primes_in_class, vp
from theta_parity.partition import (BM_CONJECTURED_PAIRS, BM_REFUTED_PAIRS,
                                    bm_first_failure, partition_parity)
from theta_parity.quadform import (lemma32_residue, lemma34_check, repcount,
                                   weber_reject)
from theta_parity.theta import euler_jacobi_check, theta_series


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, detail


def test_criterion_01_classical_identity_cli():
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "theta_parity.cli", "verify", "--a", "4",
         "--b", "6", "--c", "12", "--terms", "1000000"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    rec = json.loads(result.stdout)
    ok = (result.returncode == 0 and rec["status"] == "verified"
          and rec["terms"] == 1000000 and elapsed < 10.0)
    _report(1, ok, f"verify(4,6,12) at 10^6 -> {rec['status']} in {elapsed:.2f}s (< 10s)")


def test_criterion_02_euler_jacobi_suite():
    witnesses = {a: euler_jacobi_check(a, 10 ** 5) for a in (1, 2, 3, 4, 6)}
    ok = all(w is None for w in witnesses.values())
    _report(2, ok, f"euler_jacobi_check(a, 10^5) empty for a in {{1,2,3,4,6}}: {witnesses}")


def test_criterion_03_theorem_reproduction():
    t0 = time.perf_counter()
    report = run_classification(10 ** 6)
    elapsed = time.perf_counter() - t0

    verified = sorted(c.triple.as_tuple() for c in report.verified)
    expected = sorted(t.as_tuple() for t in SPORADIC_TRIPLES)
    refuted_ok = all(c.witness is not None for c in report.refuted)
    # every witness is confirmed against the representation-count oracle
    witness_ok = all(
        repcount(c.triple.b, c.triple.c, c.witness) % 2
        != (1 if is_square(c.triple.a * c.witness + 1) else 0)
        for c in report.refuted)
    full_n_ok = all(c.n_terms == 10 ** 6 for c in report.verified)
    family_ok = report.family_consistent
    coverage_ok = len(report.verified) + len(report.refuted) == len(report.certificates)
    ok = (report.ok and verified == expected and refuted_ok and witness_ok
          and family_ok and full_n_ok and coverage_ok and elapsed < 300.0)
    _report(3, ok,
            f"run_classification(10^6): {len(report.verified)} sporadics verified, "
            f"{len(report.refuted)} refuted with confirmed witnesses, family "
            f"criterion consistent to d={FAMILY_MAX_D}, "
            f"in {elapsed:.1f}s (< 300s)")


def test_criterion_04_ballantine_merca_desk_scale():
    n_max = 10 ** 5
    failures = []
    for a, b in BM_CONJECTURED_PAIRS:
        if bm_first_failure(a, b, n_max) is not None:
            failures.append((a, b))
    witnesses = {}
    for a, b in BM_REFUTED_PAIRS:
        witnesses[(a, b)] = bm_first_failure(a, b, n_max)
    # oracle for the expected witness 1: the sum at n=1 is p(1) (+ p(0)
    # only if a+1 is square, which never holds here) = 1, odd, while
    # b+1 is not a square
    oracle_ok = all(is_square(a + 1) is None and is_square(b + 1) is None
                    for a, b in BM_REFUTED_PAIRS)
    witness_ok = all(w == 1 for w in witnesses.values())
    # cross-check: bm agrees exactly with the theta-identity witness
    n = n_max + 1
    f24 = theta_series(24, n)
    cross_ok = True
    for a, b in BM_CONJECTURED_PAIRS + BM_REFUTED_PAIRS:
        direct = bm_first_failure(a, b, n_max)
        via = theta_series(a, n).first_difference(theta_series(b, n).mul(f24))
        cross_ok = cross_ok and direct == via
    ok = not failures and witness_ok and oracle_ok and cross_ok
    _report(4, ok,
            f"BM pairs clean to 10^5: {list(BM_CONJECTURED_PAIRS)}; "
            f"witnesses {witnesses} (all 1); series cross-check "
            f"{'agrees' if cross_ok else 'DISAGREES'}")


def test_criterion_05_brute_force_cross_validation():
    t0 = time.perf_counter()
    found = brute_search(200, 2000)
    elapsed = time.perf_counter() - t0
    predicted = theorem_prediction(200)
    # filter soundness: everything found passes the necessary conditions
    # or is a family triple satisfying the v2 criterion
    from theta_parity.classify import candidate_filter, family_criterion
    sound = all(
        (t.b_p == t.c_p == 1 and family_criterion(t.d))
        if t.b_p == t.c_p else candidate_filter(t.b, t.c) is None
        for t in found)
    ok = found == predicted and sound and elapsed < 120.0
    _report(5, ok,
            f"brute_search(200, 2000) -> {len(found)} triples == theorem "
            f"prediction (filters sound) in {elapsed:.1f}s (< 120s)")


def test_criterion_06_repcount_oracle_equivalence():
    rng = random.Random(42)
    n = 10 ** 4 + 1
    mismatches = 0
    checked = 0
    for _ in range(250):
        b, c = rng.randrange(1, 101), rng.randrange(1, 101)
        prod = theta_series(b, n).mul(theta_series(c, n))
        for _ in range(4):
            k = rng.randrange(0, n)
            if repcount(b, c, k) % 2 != prod.coeff(k):
                mismatches += 1
            checked += 1
    ok = checked == 1000 and mismatches == 0
    _report(6, ok, f"repcount parity vs product coefficient: "
                   f"{checked} samples, {mismatches} mismatches")


def test_criterion_07_lemma34_property_suite():
    rng = random.Random(17)
    shapes = []
    for bp in range(1, 11):
        for cp in range(1, 11):
            if gcd(bp, cp) != 1:
                continue
            s = bp + cp
            # the two-pair dichotomy needs (b'+c')/b' and (b'+c')/c'
            # to be non-squares (see the quadform unit tests)
            def ratio_square(side):
                if s % side:
                    return False
                r = isqrt(s // side)
                return r * r * side == s
            if not ratio_square(bp) and not ratio_square(cp):
                shapes.append((bp, cp))
    instances = []
    while len(instances) < 100:
        bp, cp = rng.choice(shapes)
        u, v = rng.randrange(1, 200), rng.randrange(1, 200)
        if gcd(u, bp * cp) != 1:
            continue
        p = u * u + bp * cp * v * v
        if p > 10 ** 6 or not is_prime(p):
            continue
        instances.append((bp, cp, u, v))
    passed = sum(1 for inst in instances if lemma34_check(*inst))
    ok = passed == len(instances) == 100
    _report(7, ok, f"lemma34_check on {len(instances)} generated instances "
                   f"(coprime b',c' <= 10, p <= 10^6): {passed} passed")


def test_criterion_08_lemma32_property_suite():
    rng = random.Random(8)
    squarefree = [v for v in range(1, 31)
                  if all(v % (d * d) for d in range(2, 6))]
    sampled = set()
    while len(sampled) < 20:
        sampled.add((rng.randrange(1, 49), rng.choice(squarefree)))
    bad = []
    for u, v in sorted(sampled):
        cls = lemma32_residue(u, v)
        for p in primes_in_class(cls, 10):
            if (p * p - 1) % u != 0 or jacobi(-v, p) != -1:
                bad.append((u, v, p))

    def has_3mod4_factor(v):
        return any(v % q == 0 and q % 4 == 3
                   for q in range(3, v + 1) if is_prime(q))

    strict_pairs = [(u, v) for u in (8, 16, 24, 32, 40, 48)
                    for v in squarefree if has_3mod4_factor(v)][:12]
    strict_bad = []
    for u, v in strict_pairs:
        cls = lemma32_residue(u, v, strict=True)
        v2Q = vp(cls.Q, 2)
        for p in primes_in_class(cls, 10):
            if ((p * p - 1) % u != 0 or jacobi(-v, p) != -1
                    or vp(p * p - 1, 2) != v2Q):
                strict_bad.append((u, v, p))
    ok = not bad and not strict_bad
    _report(8, ok, f"lemma32_residue: 20 sampled (u,v) x 10 primes clean; "
                   f"{len(strict_pairs)} strict-mode pairs clean")


def test_criterion_09_weber_refutation():
    cert = weber_reject(24, 72, 100)
    cert_ok = (cert is not None and cert.prime.p == 73
               and repcount(24, 72, (73 - 1) // 18) % 2 == 1)
    none_found = []
    for t in SPORADIC_TRIPLES:
        if weber_reject(t.b, t.c, 100) is not None:
            none_found.append(t.as_tuple())
    family_ds = [d for d in range(2, 41, 2) if vp(d, 2) in (2, 3)]
    for d in family_ds:
        if weber_reject(d, d, 100) is not None:
            none_found.append((d // 2, d, d))
    ok = cert_ok and not none_found
    _report(9, ok,
            f"weber_reject(24,72,100) -> p={cert.prime.p if cert else None} "
            f"(exhaustive count odd); sporadics and families d<=40 clean "
            f"({len(SPORADIC_TRIPLES)} + {len(family_ds)} searches)")


def test_criterion_10_frobenius_and_normalization_invariants():
    rng = random.Random(10)
    frobenius_bad = 0
    for _ in range(100):
        n = rng.randrange(2, 513)
        sup = sorted(rng.sample(range(n), rng.randrange(0, min(n, 48))))
        f = Gf2Series.from_support(sup, n)
        if f.square() != f.mul(f):
            frobenius_bad += 1
    n = 10 ** 4
    delta = partition_parity(n).mul(theta_series(24, n))
    normalization_ok = delta == Gf2Series.one(n)
    ok = frobenius_bad == 0 and normalization_ok
    _report(10, ok, f"square == mul(f,f) on 100 random series (N <= 512); "
                    f"parity * f_24 == delta to N=10^4: {normalization_ok}")
