"""Classification engine for f_a = f_b*f_c mod 2.

Candidate triples with b' != c' come from the necessary conditions
(egyptian fraction, (b'+c') | 24, (b'+c') | d, valuation bounds,
d | 24|b'-c'|), which make the search finite.  Each candidate is then
decided by a truncated series comparison; refutations carry the first
differing coefficient index as a witness, optionally strengthened by a
Weber-prime certificate.  The b' = c' side reduces to b = c = d with the
criterion v2(d) in {2, 3}, spot-checked by series.

Verified status is always truncation-relative: "verified to N terms",
never "proven".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import gcd
from typing import Optional

from .numth import divisors, egyptian_a, is_square, vp
from .quadform import WeberCertificate, weber_reject
from .theta import theta_series, theta_support

VERIFIED = "verified"
REFUTED = "refuted"


def witness_status(witness: Optional[int]) -> str:
    """A checked claim's status: VERIFIED without a witness, else REFUTED."""
    return VERIFIED if witness is None else REFUTED


@dataclass(frozen=True, order=True)
class Triple:
    """A triple (a, b, c) with b <= c; d = gcd(b,c), b' = b/d, c' = c/d."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or self.c < 1:
            raise ValueError("a, b, c must be positive")
        if self.b > self.c:
            raise ValueError(f"need b <= c, got ({self.b}, {self.c})")

    @property
    def d(self) -> int:
        return gcd(self.b, self.c)

    @property
    def b_p(self) -> int:
        return self.b // self.d

    @property
    def c_p(self) -> int:
        return self.c // self.d

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class Certificate:
    """Outcome of checking one triple.

    Refuted certificates carry the smallest differing coefficient index;
    verified ones never claim more than the truncation used.  A Weber
    certificate, when found, is attached as independent evidence.
    """

    triple: Triple
    n_terms: int
    witness: Optional[int] = None
    weber: Optional[WeberCertificate] = None

    @property
    def status(self) -> str:
        return witness_status(self.witness)


# The classification theorem's eight sporadic triples.
SPORADIC_TRIPLES = (
    Triple(4, 6, 12), Triple(6, 8, 24), Triple(8, 12, 24), Triple(10, 12, 60),
    Triple(15, 24, 40), Triple(16, 24, 48), Triple(20, 24, 120),
    Triple(21, 24, 168),
)


def candidate_filter(b: int, c: int) -> Optional[str]:
    """None when (b, c) passes every necessary condition, else the reason.

    These conditions are necessary only; passing candidates still face
    the series check.
    """
    if b > c:
        raise ValueError(f"need b <= c, got ({b}, {c})")
    if egyptian_a(b, c) is None:
        return f"no integer a with 1/a = 1/{b} + 1/{c}"
    d = gcd(b, c)
    b_p, c_p = b // d, c // d
    s = b_p + c_p
    if 24 % s != 0:
        return f"(b'+c') = {s} does not divide 24"
    if d % s != 0:
        return f"(b'+c') = {s} does not divide d = {d}"
    if s % 2 == 0 and vp(d, 2) > 4:
        return f"v2(d) = {vp(d, 2)} > 4"
    if s % 3 == 0 and vp(d, 3) > 1:
        return f"v3(d) = {vp(d, 3)} > 1"
    if b_p != c_p and (24 * (c_p - b_p)) % d != 0:
        return f"d = {d} does not divide 24(c'-b') = {24 * (c_p - b_p)}"
    return None


def family_criterion(d: int) -> bool:
    """True iff the b = c = d triple (d/2, d, d) is an identity,
    i.e. v2(d) in {2, 3}; matches the families (2q,4q,4q), (4q,8q,8q)."""
    if d < 1:
        raise ValueError("d must be positive")
    return vp(d, 2) in (2, 3)


def verify_triple(a: int, b: int, c: int, n_terms: int) -> Certificate:
    """Compare f_a with f_b*f_c below n_terms."""
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    if b > c:
        b, c = c, b
    triple = Triple(a, b, c)
    fa = theta_series(a, n_terms)
    prod = theta_series(b, n_terms).mul(theta_series(c, n_terms))
    return Certificate(triple, n_terms, fa.first_difference(prod))


def enumerate_candidates() -> list[Triple]:
    """All b' != c' triples passing candidate_filter; finite by construction.

    Coprime (b', c') with b' < c' and (b'+c') | 24, and d over the
    divisors of 24(c'-b'), generate every (b, c) the filter can accept;
    a comes from the egyptian fraction.
    """
    out = []
    for s in (3, 4, 6, 8, 12, 24):
        for b_p in range(1, (s + 1) // 2):
            c_p = s - b_p
            if gcd(b_p, c_p) != 1:
                continue
            for d in divisors(24 * (c_p - b_p)):
                b, c = d * b_p, d * c_p
                if candidate_filter(b, c) is None:
                    out.append(Triple(egyptian_a(b, c), b, c))
    return sorted(out)


# Truncation of the cheap first comparisons: witnesses live at tiny
# indices, so most decoys never touch the full-length series, and the
# family spot checks stop here too.
PREFILTER_TERMS = 4096
# Cap on the Weber primes each candidate's search examines
# (weber_reject's bound).
WEBER_BOUND = 12
# Ceiling on the rank of the representations each candidate's Weber
# search considers (weber_reject's max_enumerated).
WEBER_MAX_ENUMERATED = 300_000
# The family criterion is spot-checked by series for even d up to here.
FAMILY_MAX_D = 200


@dataclass
class ClassificationReport:
    n_terms: int
    certificates: list[Certificate]
    # whether the series check of every (d/2, d, d) up to FAMILY_MAX_D
    # agrees with family_criterion; each disagreeing d is a mismatch
    family_consistent: bool
    weak_bound_admits: list[Triple]
    mismatches: list[str]

    @property
    def verified(self) -> list[Certificate]:
        return [c for c in self.certificates if c.status == VERIFIED]

    @property
    def refuted(self) -> list[Certificate]:
        return [c for c in self.certificates if c.status == REFUTED]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _decide_candidate(triple: Triple, n_terms: int) -> Certificate:
    pre = min(PREFILTER_TERMS, n_terms)
    cert = verify_triple(triple.a, triple.b, triple.c, pre)
    if cert.status == VERIFIED and pre < n_terms:
        cert = verify_triple(triple.a, triple.b, triple.c, n_terms)
    return replace(cert, weber=weber_reject(
        triple.b, triple.c, WEBER_BOUND,
        max_enumerated=WEBER_MAX_ENUMERATED))


def run_classification(n_terms: int) -> ClassificationReport:
    """Reproduce the finite computation behind the classification theorem.

    Verifies every enumerated b' != c' candidate to n_terms (after a
    PREFILTER_TERMS first pass), attaches Weber certificates from a
    search over WEBER_BOUND primes and at most WEBER_MAX_ENUMERATED
    representations, spot-checks the b' = c' family criterion by series
    for even d up to FAMILY_MAX_D at min(PREFILTER_TERMS, n_terms) terms,
    and asserts the verified set is exactly the eight sporadic triples.
    Deviations are reported as mismatches (a hard failure for callers).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    certs = [_decide_candidate(t, n_terms) for t in enumerate_candidates()]

    mismatches = []
    verified = {c.triple for c in certs if c.status == VERIFIED}
    expected = set(SPORADIC_TRIPLES)
    for t in sorted(verified - expected):
        mismatches.append(f"unexpected verified triple {t.as_tuple()}")
    for t in sorted(expected - verified):
        mismatches.append(f"sporadic triple {t.as_tuple()} not verified")
    for c in certs:
        if c.status == VERIFIED and c.weber is not None:
            mismatches.append(
                f"verified {c.triple.as_tuple()} has a Weber refutation")

    family_terms = min(PREFILTER_TERMS, n_terms)
    family_disagreements = [
        d for d in range(2, FAMILY_MAX_D + 1, 2)
        if (verify_triple(d // 2, d, d, family_terms).status == VERIFIED)
        != family_criterion(d)]
    for d in family_disagreements:
        mismatches.append(f"family criterion disagrees with series at d = {d}")

    # candidates admitted only because the filter uses the lenient
    # v2(d) <= 4 bound; the sharper derivation gives <= 3
    weak = [c.triple for c in certs
            if (c.triple.b_p + c.triple.c_p) % 2 == 0 and vp(c.triple.d, 2) == 4]

    return ClassificationReport(n_terms, certs, not family_disagreements,
                                weak, mismatches)


def theorem_prediction(bound: int) -> list[Triple]:
    """The classification theorem's triples restricted to c <= bound."""
    out = [t for t in SPORADIC_TRIPLES if t.c <= bound]
    out += [Triple(d // 2, d, d) for d in range(4, bound + 1, 4)
            if family_criterion(d)]
    return sorted(out)


def brute_search(bound: int, n_terms: int) -> list[Triple]:
    """All (b <= c <= bound) admitting some integer a with f_a = f_b*f_c
    below n_terms, found without using the necessary-condition filters.

    For each pair the product's two smallest nonzero support indices
    k1 < k2 pin the possible a: a*k1 + 1 and a*k2 + 1 must both be
    squares.  Candidates up to 4*n_terms (any true match has a < b, far
    below) are checked in ascending order by full series equality, and
    the first match is kept.

    Three caches local to the call do each piece of work once: f_m per
    m, the a with a*k1 + 1 square per k1, and those with a*k2 + 1 square
    too per (k1, k2).  Nothing is kept between calls.
    """
    if bound < 4 or n_terms < 8:
        raise ValueError("need bound >= 4 and n_terms >= 8")
    a_cap = 4 * n_terms
    theta = cache(lambda m: theta_series(m, n_terms))
    roots = cache(lambda k1: theta_support(k1, a_cap + 1)[1:])  # drop a = 0
    candidates = cache(lambda k1, k2: [
        a for a in roots(k1) if k2 is None or is_square(a * k2 + 1) is not None])

    found = []
    for b in range(1, bound + 1):
        for c in range(b, bound + 1):
            prod = theta(b).mul(theta(c))
            rest = prod.bits >> 1  # bit j is the coefficient at j + 1
            if not rest:
                continue
            low = rest & -rest
            k1 = low.bit_length()
            rest ^= low
            k2 = (rest & -rest).bit_length() if rest else None
            for a in candidates(k1, k2):
                if theta(a) == prod:
                    found.append(Triple(a, b, c))
                    break
    return sorted(found)
