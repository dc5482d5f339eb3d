"""Classification engine for f_a = f_b*f_c mod 2.

Candidate triples with b' != c' come from the necessary conditions
(egyptian fraction, (b'+c') | 24, (b'+c') | d, valuation bounds,
d | 24|b'-c'|), which make the search finite.  Each candidate is then
decided by verify_triple's comparison of sorted theta supports, which
builds no product and compares the low PREFILTER_TERMS coefficients
before all N; refutations carry the first differing coefficient index as
a witness, optionally strengthened by a Weber-prime certificate.  The
b' = c' side reduces to b = c = d with the criterion v2(d) in {2, 3},
spot-checked at N by comparing f_{d/2}'s support with twice f_d's.

verify_triples runs each comparison once: a triple whose a, b and c all
have v2 in {1, 2} is the q -> q^2 image of its double, so its witness is
read off the double's.  So (4,6,12) and (10,12,60) are decided by
(8,12,24) and (20,24,120), and the 13 family triples (d/2, d, d) with
v2(d) = 2 and 2d <= FAMILY_MAX_D by (d, 2d, 2d).

Verified status is always truncation-relative: "verified to N terms",
never "proven".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from math import gcd
from operator import itemgetter
from typing import Optional

import numpy as np

from .gf2series import PREFILTER_TERMS, Gf2Series, support_first_difference
from .numth import _is_square_array, _ragged_arange, divisors, egyptian_a, vp
from .quadform import WeberCertificate, weber_reject
from .theta import theta_exponents, theta_rows

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
    # the triple whose comparison decided this one, when not itself
    # (see verify_triples)
    decided_by: Optional[Triple] = None

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
    """Compare f_a with f_b*f_c below n_terms by support_first_difference.

    b = c: f_b^2 = f_b(q^2) mod 2, so f_a's sorted support is compared with
    2*(f_b's below ceil(N/2)), in O(sqrt(N)) memory and with no comb.  Any
    other pair is passed as two supports, so no product is built, and
    all-even ones (v2 of a, b and c in {1, 2}, where m*k + 1 = s^2 forces
    8 | m*k) are decided below ceil(N/2).  Raises ValueError where
    theta_exponents would (m*N >= 2^63).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    if b > c:
        b, c = c, b
    if b == c:
        factors = [2 * theta_exponents(b, (n_terms + 1) // 2)]
    else:
        factors = [theta_exponents(m, n_terms) for m in (b, c)]
    return Certificate(Triple(a, b, c), n_terms, support_first_difference(
        theta_exponents(a, n_terms), factors, n_terms))


def _doubled(t: Triple) -> tuple[Triple, int]:
    """(2^k*t, k) for the largest k with v2 of a, b and c all in {1, 2}
    at every step.  There f_m(q) = f_2m(q^2) (m*j + 1 = s^2 forces
    8 | m*j, so j is even), so f_a - f_b*f_c is the k-fold q -> q^2 image
    of 2^k*t's difference."""
    k = 0
    while all(vp(m, 2) in (1, 2) for m in t.as_tuple()):
        t, k = Triple(2 * t.a, 2 * t.b, 2 * t.c), k + 1
    return t, k


def verify_triples(triples, n_terms: int) -> list[Certificate]:
    """verify_triple's certificate for each triple, with one comparison
    per group of triples that double to the same one (_doubled).

    The member doubled least is compared at n_terms; one doubled delta
    times more differs first at w*2^delta if that is below n_terms (w
    the compared member's witness), else nowhere below n_terms, and its
    certificate names the compared member as decided_by.
    """
    groups = {}
    for t in triples:
        image, k = _doubled(t)
        groups.setdefault(image, []).append((k, t))
    decided = {}
    for members in groups.values():
        k0, head = min(members)
        cert = verify_triple(head.a, head.b, head.c, n_terms)
        for k, t in members:
            w = None if cert.witness is None else cert.witness << (k - k0)
            if w is not None and w >= n_terms:
                w = None
            decided[t] = Certificate(t, n_terms, w,
                                     decided_by=head if t != head else None)
    return [decided[t] for t in triples]


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


# Cap on the Weber primes each candidate's search examines
# (weber_reject's bound).
WEBER_BOUND = 12
# The family criterion is spot-checked at N for even d up to here.
FAMILY_MAX_D = 200


@dataclass
class ClassificationReport:
    n_terms: int
    certificates: list[Certificate]
    # whether verify_triple's check of every (d/2, d, d) up to
    # FAMILY_MAX_D agrees with family_criterion; each disagreeing d is a
    # mismatch
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


def run_classification(n_terms: int) -> ClassificationReport:
    """Reproduce the finite computation behind the classification theorem.

    Verifies every enumerated b' != c' candidate to n_terms (after a
    PREFILTER_TERMS first pass), attaches Weber certificates from a
    search over WEBER_BOUND primes (among the representations of rank at
    most quadform.WEBER_MAX_RANK), spot-checks the b' = c' family
    criterion for even d up to FAMILY_MAX_D at n_terms terms (a
    comparison of sorted supports, O(sqrt(n_terms)) per d), and asserts
    the verified set is exactly the eight sporadic triples.  The 47
    candidates and 100 family triples go through verify_triples, which
    makes 132 comparisons: the 15 q -> q^2 images among them are read
    off their doubles'.  Deviations are reported as mismatches (a hard
    failure for callers).
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    candidates = enumerate_candidates()
    evens = range(2, FAMILY_MAX_D + 1, 2)
    decided = verify_triples(
        candidates + [Triple(d // 2, d, d) for d in evens], n_terms)
    certs = []
    for c in decided[:len(candidates)]:
        # the comparison's first pass decided every witness below
        # PREFILTER_TERMS
        if c.witness is not None and c.witness < PREFILTER_TERMS:
            c = replace(c, n_terms=min(PREFILTER_TERMS, n_terms))
        certs.append(replace(c, weber=weber_reject(c.triple.b, c.triple.c,
                                                   WEBER_BOUND)))

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

    family_disagreements = [
        d for d, c in zip(evens, decided[len(candidates):])
        if (c.status == VERIFIED) != family_criterion(d)]
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


def pair_window_end(x_b, x2_b, x_c, x2_c, n_terms: int) -> np.ndarray:
    """Elementwise end of the exact low window of f_b*f_c, from the first
    two positive indices of each factor: min(x_b + x2_c, x2_b + x_c, N).

    Mod 2, f_b*f_c = f_b + f_c + 1 + (f_b + 1)*(f_c + 1), and every term
    of the last product but q^(x_b + x_c) starts at or above that end.
    Any smaller end is exact too, if q^(x_b + x_c) is added only below it.
    """
    return np.minimum(np.minimum(x_b + x2_c, x2_b + x_c), n_terms)


# Pairs per numpy pass of brute_search; bounds its transient arrays.
_BRUTE_BLOCK = 1024


def _lowest_bit(words: np.ndarray) -> np.ndarray:
    """Index of each word's lowest set bit, -1 for a zero word."""
    return np.frexp((words & (~words + 1)).astype(np.float64))[1] - 1


def _first_bits(rows: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each row of words, -1 for none."""
    j = (rows != 0).argmax(1)
    return 64 * j + _lowest_bit(rows[np.arange(len(rows)), j])


def _flip(rows: np.ndarray, which: np.ndarray, k: np.ndarray) -> None:
    """Flip bit k[i] of row which[i], in place."""
    rows[which, k >> 6] ^= np.uint64(1) << (k & 63).astype(np.uint64)


def _two_lowest_bits(rows: np.ndarray) -> tuple:
    """The two lowest set bits of each row of words, -1 where absent;
    the lowest is cleared to find the second, then restored."""
    k1 = _first_bits(rows)
    has = np.flatnonzero(k1 >= 0)
    _flip(rows, has, k1[has])
    k2 = _first_bits(rows)
    _flip(rows, has, k1[has])
    return k1, k2


def _series(rows: np.ndarray, n_terms: int) -> list:
    """One Gf2Series per row of packed little-endian bytes."""
    return [Gf2Series(n_terms, int.from_bytes(r.tobytes(), "little"))
            for r in rows]


def _pair_blocks(bound: int):
    """(b, c) for b <= c <= bound, in blocks of whole rows b of at most
    _BRUTE_BLOCK pairs (or one row)."""
    lo = 1
    while lo <= bound:
        hi, size = lo, bound - lo + 1
        while hi < bound and size + bound - hi <= _BRUTE_BLOCK:
            hi += 1
            size += bound - hi + 1
        b = np.arange(lo, hi + 1)
        count = bound - b + 1
        yield np.repeat(b, count), _ragged_arange(b, count)
        lo = hi + 1


class _CandidateRuns:
    """The candidate a's of each key k1*n + k2, listed once per search.

    They are the a <= a_cap with a*k + 1 square for k = k1 and k = k2
    (k2 = 0: k1 alone), taken from the support of f_k for the larger k.
    Each key's run of ascending a's lies in `a` at start, count; `keys`
    is sorted, and each call merges its fresh keys in at their places.
    """

    def __init__(self, n: int, a_cap: int):
        self.n, self.a_cap = n, a_cap
        self.keys = self.start = self.count = self.a = np.zeros(0, np.int64)
        self.roots = {}

    def _roots(self, k: int) -> np.ndarray:  # a in [1, a_cap], a*k + 1 square
        if k not in self.roots:
            self.roots[k] = theta_exponents(k, self.a_cap + 1)[1:]
        return self.roots[k]

    def runs(self, keys: np.ndarray) -> tuple:
        """(start, count) of the runs of the sorted, distinct keys."""
        pos = np.searchsorted(self.keys, keys)
        known = pos < len(self.keys)
        known[known] = self.keys[pos[known]] == keys[known]
        fresh = keys[~known]
        if len(fresh):
            k1, k2 = fresh // self.n, fresh % self.n
            hi = np.where(k2 > 0, k2, k1)
            roots = [self._roots(k) for k in hi.tolist()]
            lens = np.array([len(r) for r in roots], dtype=np.int64)
            flat = np.concatenate(roots)
            ok = _is_square_array(flat * np.repeat(k1 + k2 - hi, lens) + 1)
            count = np.bincount(np.repeat(np.arange(len(fresh)), lens)[ok],
                                minlength=len(fresh))
            start = len(self.a) + np.cumsum(count) - count
            self.a = np.concatenate([self.a, flat[ok]])
            at = pos[~known]  # the fresh keys' places in the sorted store
            self.keys = np.insert(self.keys, at, fresh)
            self.start = np.insert(self.start, at, start)
            self.count = np.insert(self.count, at, count)
            pos = np.searchsorted(self.keys, keys)
        return self.start[pos], self.count[pos]


def brute_search(bound: int, n_terms: int) -> list[Triple]:
    """All (b <= c <= bound) admitting some integer a with f_a = f_b*f_c
    below n_terms, found without using the necessary-condition filters.

    The product's two smallest positive support indices k1 < k2 pin the
    possible a: a*k1 + 1 and a*k2 + 1 must both be squares, so the
    candidates are the a <= 4*n_terms in the support of f_k1 with
    a*k2 + 1 square (any true match has a < b, far below).  The first in
    ascending a that equals the product in full is kept.

    The pairs go through numpy in blocks of _BRUTE_BLOCK.  Below
    pair_window_end the product is f_b + f_c + 1 + q^(x_b + x_c), read
    without a multiply from each f_m's first words; k1 and k2 are its
    lowest set bits, and the candidates whose f_a differs there are
    dropped by array comparisons.  A pair with fewer than two positive
    indices in its window takes k1, k2 and the window from the full
    product (for b = c the Frobenius square f_b(q^2)), which is otherwise
    formed only for a surviving candidate, at most once per pair.  Every
    f_m is built by theta_rows: f_1..f_bound in one call, then per block
    the window words of the new candidates and the full f_a of the
    survivors not yet built.
    """
    if bound < 4 or n_terms < 8:
        raise ValueError("need bound >= 4 and n_terms >= 8")
    if 4 * n_terms * n_terms >= 1 << 63:  # a*k < 4*N^2 is int64 arithmetic
        raise ValueError("need 4*n_terms^2 < 2^63")
    n = n_terms
    a_cap = 4 * n
    rows = theta_rows(np.arange(1, bound + 1), n)
    fs = dict(zip(range(1, bound + 1), _series(rows, n)))
    table = rows.view("<u8")
    table[:, 0] &= ~np.uint64(1)  # q^0 cleared
    x, x2 = (np.concatenate([[n], np.where(k < 0, n, k)])
             for k in _two_lowest_bits(table))
    n_words = (min(n, int(x[1:].max() + x2[1:].max())) + 63) >> 6

    def words(series_list):  # first n_words words of each, q^0 cleared
        low = (1 << 64 * n_words) - 2
        return np.frombuffer(b"".join(
            (f.bits & low).to_bytes(8 * n_words, "little")
            for f in series_list), dtype="<u8").reshape(-1, n_words)

    table = table[:, :n_words].copy()
    row = np.full(max(a_cap, bound) + 1, -1, dtype=np.int32)  # a's row in table, or -1
    row[1:bound + 1] = np.arange(bound)
    cands = _CandidateRuns(n, a_cap)

    def product(b, c):
        b, c = int(b), int(c)
        return fs[b].square() if b == c else fs[b].mul(fs[c])

    found = []
    for b, c in _pair_blocks(bound):
        cut = pair_window_end(x[b], x2[b], x[c], x2[c], n)
        win = table[row[b]]
        win ^= table[row[c]]
        e = x[b] + x[c]
        extra = np.flatnonzero(e < cut)
        _flip(win, extra, e[extra])
        # the window's two lowest set bits (bits at and above cut are not
        # the product's and are never read)
        k1, k2 = _two_lowest_bits(win)
        two = (k2 >= 0) & (k2 < cut)
        # a pair with fewer than two positive indices in its window reads
        # k1 and k2 (0 if absent) and its window from the full product
        prods = {}
        for p in np.flatnonzero(~two).tolist():
            prods[p] = prod = product(b[p], c[p])
            rest = prod.bits >> 1  # bit j is the coefficient at j + 1
            if rest:
                bit = rest & -rest
                rest ^= bit
                k1[p], k2[p] = bit.bit_length(), (rest & -rest).bit_length()
                two[p] = True
        win[list(prods)] = words(prods.values())
        cut[list(prods)] = n
        # the candidates of each (k1, k2) in the block, then of each pair
        keys, inv = np.unique(k1[two] * n + k2[two], return_inverse=True)
        start, count = cands.runs(keys)
        count = count[inv]
        a = cands.a[_ragged_arange(start[inv], count)]
        pair = np.repeat(np.flatnonzero(two), count)
        # a set, not a bincount: the a's run to 4N, so a bincount would
        # be an O(N) transient in every block
        new = np.array(sorted(set(a[row[a] < 0].tolist())), dtype=np.int64)
        if len(new):
            # whole words of the window, and no coefficient at or past N
            rows = theta_rows(new, min(n, 64 * n_words)).view("<u8")
            rows[:, 0] &= ~np.uint64(1)
            row[new] = len(table) + np.arange(len(new))
            table = np.concatenate([table, rows])
        # drop the candidates that differ in the window: the first word
        # weeds out most, and the survivors are compared in full
        end = cut[pair]
        for width in (1, n_words):
            bit = _first_bits(table[row[a], :width] ^ win[pair, :width])
            keep = (bit < 0) | (bit >= end)
            a, pair, end = a[keep], pair[keep], end[keep]
        need = sorted(set(a.tolist()).difference(fs))
        if need:
            fs.update(zip(need, _series(theta_rows(need, n), n)))
        for p, group in groupby(zip(pair.tolist(), a.tolist()),
                                key=itemgetter(0)):
            prod = prods[p] if p in prods else product(b[p], c[p])
            for _, fa in group:
                if fs[fa] == prod:
                    found.append(Triple(fa, int(b[p]), int(c[p])))
                    break
    return sorted(found)
