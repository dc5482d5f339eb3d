"""Truncated formal power series over GF(2).

A series is a bit vector of its first `n_terms` coefficients, packed
little-endian into a single Python int (bit k = coefficient of q^k).
The support (the exponents with coefficient 1) is one sorted int64
array: from_support keeps a copy of the one it is given, and a series
made from its bits unpacks it on first use.  The kernels read that
array; the public .support is a tuple of Python ints built from it.

Multiplication has two kernels, both a shift-xor comb over the support
of the sparser operand: each of its terms s adds the denser operand
shifted by s.  So both cost one pass over about N/8 bytes per term, and
mul() chooses between them by N alone:

  * below _WORDS_MIN_TERMS, a Python-int comb: acc ^= dense_bits << s.
    Its per-term overhead is the lowest, which suits short products:
    the prefilter's at 4096 terms and the few that brute_search forms.
  * at or above it, a numpy byte-offset comb: the denser operand's bytes
    are shifted by each residue s mod 8 once, then xored in place into
    the output at byte offset s >> 3.  It allocates no N-bit int per
    term, and its memory is a few N-bit byte arrays.

An identity check only needs the first index where a target differs
from a product.  support_first_difference takes sorted supports: one
factor is compared directly, and two by product_first_difference, which
runs the comb from the target's bits and reads the first set bit of the
sum, so the product is never built.  Its first pass covers the low
PREFILTER_TERMS coefficients and its second all N; each picks its kernel
by its own length.  Two factors whose supports and target's are all even
are first halved, as often as that holds, since g(q^2)h(q^2) = (gh)(q^2):
the comb then runs below ceil(N/2), as for f_4 = f_6 f_12 and (q;q)^6 = f_4
mod 2.

The kernels are truncation-first: no coefficient at or beyond n_terms
is ever reported, and all identity claims are "below N" claims.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# _SPREAD[b] is byte b with a zero bit after each of its bits: bit i moves
# to bit 2i, so spreading a series' bytes through it is the Frobenius map.
_BYTES = np.arange(256, dtype=np.uint16)
_SPREAD = sum(((_BYTES >> i) & 1) << (2 * i) for i in range(8)).astype("<u2")


# mul() and each pass of product_first_difference switch from the
# Python-int comb to the numpy byte comb at this many terms.  Both cost
# one pass per term of the sparser operand, so the crossover depends on
# N only: on P*f_6, P(q^4)*f_8, f_8*f_24 and
# f_100*f_200 together (2 cores, numpy 2.4.6) the Python-int comb took
# 0.9-1.1 ms at 2^15 terms against the byte comb's 0.7-1.2 ms, 2.2-3.1
# ms against 1.1 ms at 2^16 and 6.1-8.1 ms against 1.9 ms at 2^17.  No
# workload multiplies between 2^15 and 2^16 terms.
_WORDS_MIN_TERMS = 1 << 16
# Truncation of product_first_difference's first pass: witnesses live at
# tiny indices, so most decoy identities never reach a full-length comb.
# It lies below _WORDS_MIN_TERMS, so that pass takes the int comb.
PREFILTER_TERMS = 4096


def support_bytes(exps: np.ndarray, n_terms: int) -> np.ndarray:
    """The (n_terms + 7) // 8 little-endian bytes of the series whose
    support is the int64 array `exps` (distinct, in [0, n_terms))."""
    out = np.zeros((n_terms + 7) >> 3, dtype=np.uint8)
    np.bitwise_or.at(out, exps >> 3, np.left_shift(1, exps & 7).astype(np.uint8))
    return out


def _xor_comb(out: np.ndarray, dense: np.ndarray, exps: np.ndarray) -> None:
    """Xor into the bytes `out` the product of the bytes `dense` with the
    series whose support is the int64 array `exps`, cut to len(out) bytes.

    dense shifted by each residue r = s mod 8 that occurs is built once,
    in one reused buffer, and xored in place into out[s >> 3:] for each s
    of that residue.  Bits past the truncation in the last byte are left
    to the caller.
    """
    n_bytes = len(out)
    shifted = np.empty_like(dense)
    residues = exps & 7
    for r in np.flatnonzero(np.bincount(residues, minlength=8)).tolist():
        if r == 0:
            g_r = dense
        else:  # bytes shifted left by r bits, carrying across bytes
            g_r = shifted
            np.left_shift(dense, r, out=g_r)
            g_r[1:] |= dense[:-1] >> (8 - r)
        for w in (exps[residues == r] >> 3).tolist():
            tail = out[w:]
            np.bitwise_xor(tail, g_r[:n_bytes - w], out=tail)


def _int_comb(acc: int, dense: int, exps, n_terms: int) -> int:
    """acc xor the product of the bits `dense` with the series whose
    support is `exps` (Python ints), cut to n_terms bits."""
    for s in exps:
        acc ^= dense << s
    return acc & ((1 << n_terms) - 1)


def product_first_difference(target: np.ndarray, walked: np.ndarray,
                             dense: np.ndarray, n_terms: int) -> Optional[int]:
    """Smallest k < n_terms where the series with support `target`
    differs from the product of the series with support `walked` and the
    bytes `dense`, or None if they agree below n_terms.

    target and walked are sorted int64 supports; dense is little-endian,
    at least (n_terms + 7) // 8 bytes.  The first pass compares the low
    PREFILTER_TERMS coefficients and the second all n_terms, so a witness
    below min(PREFILTER_TERMS, n_terms) is exactly one the first found.
    """
    for n in sorted({min(PREFILTER_TERMS, n_terms), n_terms}):
        out = support_bytes(target[:np.searchsorted(target, n)], n)
        exps = walked[:np.searchsorted(walked, n)]
        if n < _WORDS_MIN_TERMS:
            diff = _int_comb(int.from_bytes(out, "little"),
                             int.from_bytes(dense[:len(out)], "little"),
                             exps.tolist(), n)
            k = (diff & -diff).bit_length() - 1  # -1 when diff is 0
        else:
            _xor_comb(out, dense[:len(out)], exps)
            i = int(np.argmax(out != 0))  # 0 when every byte is zero
            low = int(out[i])
            k = 8 * i + (low & -low).bit_length() - 1
        if 0 <= k < n:
            return k
    return None


def support_first_difference(target: np.ndarray, factors,
                             n_terms: int) -> Optional[int]:
    """Smallest k < n_terms where the series with support `target` differs
    from the product of those with supports `factors` (one or two; all are
    sorted int64 arrays below n_terms), or None.  One factor: min(x[i],
    y[i]) at the first i where the supports differ, else the longer one's
    next entry.  Two: while every entry of the three is even, g(q^2)h(q^2)
    = (gh)(q^2) halves them all and doubles the answer found below
    ceil(N/2); then product_first_difference walks the shorter factor over
    the longer's bytes."""
    if len(factors) == 2:
        if n_terms > 1 and not any(np.any(s & 1) for s in (target, *factors)):
            k = support_first_difference(target >> 1, [s >> 1 for s in factors],
                                         (n_terms + 1) // 2)
            return None if k is None else 2 * k
        walked, other = sorted(factors, key=len)
        return product_first_difference(target, walked,
                                        support_bytes(other, n_terms), n_terms)
    x, (y,) = target, factors
    common = min(len(x), len(y))
    i = int(np.argmax(x[:common] != y[:common])) if common else 0
    if i < common and x[i] != y[i]:
        return int(min(x[i], y[i]))
    return int(max(x, y, key=len)[common]) if len(x) != len(y) else None


class Gf2Series:
    """Immutable GF(2) power series truncated to n_terms coefficients."""

    __slots__ = ("n_terms", "_bits", "_exps")

    def __init__(self, n_terms: int, bits: int = 0):
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if bits < 0 or bits >> n_terms:
            raise ValueError("bits outside the first n_terms coefficients")
        self.n_terms = n_terms
        self._bits = bits
        self._exps = None  # the support as an int64 array, once built

    @classmethod
    def from_support(cls, indices, n_terms: int) -> "Gf2Series":
        """Series with coefficient 1 exactly at `indices` (strictly increasing).

        indices is a 1-D sequence or array of integers; anything else
        raises TypeError.  A copy is kept as the series' int64 support,
        so the caller may reuse its array.
        """
        exps = np.asarray(indices)
        if exps.ndim != 1 or (exps.size and exps.dtype.kind not in "iu"):
            raise TypeError("support indices must be a 1-D sequence of integers")
        exps = exps.astype(np.int64)
        if np.any(exps[1:] <= exps[:-1]):
            raise ValueError("support indices must be strictly increasing")
        if exps.size and (exps[0] < 0 or exps[-1] >= n_terms):
            raise ValueError("support index out of range")
        series = cls(n_terms, int.from_bytes(support_bytes(exps, n_terms), "little"))
        series._exps = exps
        return series

    @classmethod
    def one(cls, n_terms: int) -> "Gf2Series":
        return cls(n_terms, 1)

    @property
    def bits(self) -> int:
        return self._bits

    def _exponents(self) -> np.ndarray:
        if self._exps is None:
            arr = np.unpackbits(self.byte_array(), count=self.n_terms,
                                bitorder="little")
            self._exps = np.flatnonzero(arr)
        return self._exps

    @property
    def support(self) -> tuple:
        """Sorted exponents with coefficient 1, as Python ints (numpy
        int64 scalars would overflow in shifts such as 1 << k)."""
        return tuple(self._exponents().tolist())

    def byte_array(self) -> np.ndarray:
        """The coefficients as (n_terms + 7) // 8 little-endian bytes."""
        raw = self._bits.to_bytes((self.n_terms + 7) >> 3, "little")
        return np.frombuffer(raw, dtype=np.uint8)

    def coeff(self, k: int) -> int:
        if not 0 <= k < self.n_terms:
            raise IndexError(f"coefficient index {k} outside [0, {self.n_terms})")
        return (self._bits >> k) & 1

    def _check_same_length(self, other: "Gf2Series"):
        if self.n_terms != other.n_terms:
            raise ValueError(
                f"truncation mismatch: {self.n_terms} vs {other.n_terms}")

    def mul(self, other: "Gf2Series") -> "Gf2Series":
        """Truncated product: coefficient k is the pair-sum parity below N."""
        self._check_same_length(other)
        if self.n_terms < _WORDS_MIN_TERMS:
            return self._mul_comb(other)
        return self._mul_words(other)

    def _sparser_first(self, other: "Gf2Series") -> tuple:
        # the combs walk the sparser operand's support, so a dense
        # operand's support is never built
        if self._bits.bit_count() <= other._bits.bit_count():
            return self, other
        return other, self

    def _mul_comb(self, other: "Gf2Series") -> "Gf2Series":
        n = self.n_terms
        f, g = self._sparser_first(other)
        return Gf2Series(n, _int_comb(0, g._bits, f._exponents().tolist(), n))

    def _mul_words(self, other: "Gf2Series") -> "Gf2Series":
        n = self.n_terms
        f, g = self._sparser_first(other)
        out = np.zeros((n + 7) >> 3, dtype=np.uint8)
        _xor_comb(out, g.byte_array(), f._exponents())
        if n & 7:  # clear the bits at and above n
            out[-1] &= (1 << (n & 7)) - 1
        return Gf2Series(n, int.from_bytes(out, "little"))

    def square(self) -> "Gf2Series":
        """Frobenius: coefficient at 2k equals this series' coefficient at k.

        Only the low ceil(N/2) coefficients reach the truncated square; their
        bytes are spread through a lookup table, bit k to bit 2k, in time
        linear in N and without building the support.
        """
        n = self.n_terms
        half = (n + 1) // 2
        low = self._bits & ((1 << half) - 1)
        raw = np.frombuffer(low.to_bytes((half + 7) // 8, "little"), dtype=np.uint8)
        return Gf2Series(n, int.from_bytes(_SPREAD[raw].tobytes(), "little"))

    def first_difference(self, other: "Gf2Series") -> Optional[int]:
        """Smallest index with differing coefficients, or None if equal below N."""
        self._check_same_length(other)
        d = self._bits ^ other._bits
        if d == 0:
            return None
        return (d & -d).bit_length() - 1

    def __eq__(self, other):
        if not isinstance(other, Gf2Series):
            return NotImplemented
        return self.n_terms == other.n_terms and self._bits == other._bits

    def __hash__(self):
        return hash((self.n_terms, self._bits))

    def __repr__(self):
        exps = self._exponents()
        shown = exps[:12].tolist() + (["..."] if len(exps) > 12 else [])
        return f"Gf2Series(n_terms={self.n_terms}, support={shown})"
