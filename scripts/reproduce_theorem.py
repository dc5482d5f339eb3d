#!/usr/bin/env python3
"""End-to-end reproduction run: classification of f_a = f_b*f_c mod 2,
the Euler-Jacobi congruence suite, and the Ballantine-Merca sweep.

Usage:
    python scripts/reproduce_theorem.py [--terms 1000000] [--bm-max 100000]

Exits 1 if any result departs from the theorem: a classification
mismatch, an Euler-Jacobi witness, a conjectured Ballantine-Merca pair
that fails, or a refuted pair that holds.
"""

import argparse
import sys
import time

from theta_parity import (BM_CONJECTURED_PAIRS, BM_REFUTED_PAIRS,
                          bm_first_failure, euler_jacobi_check,
                          run_classification)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--terms", type=int, default=10 ** 6,
                        help="series truncation for the classification")
    parser.add_argument("--bm-max", type=int, default=10 ** 5,
                        help="range for the Ballantine-Merca sweep")
    args = parser.parse_args()
    ok = True

    print(f"== Euler-Jacobi congruences (q;q)^a = f_(24/a) mod 2, N = 10^5 ==")
    for a in (1, 2, 3, 4, 6):
        witness = euler_jacobi_check(a, 10 ** 5)
        ok &= witness is None
        print(f"  a = {a}: {'holds' if witness is None else f'FAILS at {witness}'}")

    print(f"\n== Classification at N = {args.terms} ==")
    t0 = time.perf_counter()
    report = run_classification(args.terms)
    elapsed = time.perf_counter() - t0
    print(f"  candidates with b' != c': {len(report.certificates)} "
          f"({elapsed:.1f}s)")
    print(f"  verified sporadic triples:")
    for cert in report.verified:
        print(f"    {cert.triple.as_tuple()}  (to {cert.n_terms} terms)")
    print(f"  refuted candidates: {len(report.refuted)}")
    for cert in report.refuted:
        weber = ""
        if cert.weber:
            w = cert.weber
            weber = f", Weber prime p={w.prime.p} at index {w.index}"
        print(f"    {cert.triple.as_tuple()}: witness k={cert.witness}{weber}")
    print(f"  family rule v2(d) in {{2,3}} consistent for even d <= "
          f"{report.family_checks[-1].d}: "
          f"{all(f.consistent for f in report.family_checks)}")
    print(f"  admitted only by the lenient v2(d) <= 4 bound: "
          f"{[t.as_tuple() for t in report.weak_bound_admits]}")
    print(f"  RESULT: {'OK' if report.ok else 'MISMATCH: ' + str(report.mismatches)}")
    ok &= report.ok

    print(f"\n== Ballantine-Merca sweep to n = {args.bm_max} ==")
    for a, b in BM_CONJECTURED_PAIRS + BM_REFUTED_PAIRS:
        witness = bm_first_failure(a, b, args.bm_max)
        verdict = "holds" if witness is None else f"fails at n = {witness}"
        print(f"  (a, b) = ({a:2d}, {b:3d}): {verdict}")
        ok &= (witness is None) == ((a, b) in BM_CONJECTURED_PAIRS)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
