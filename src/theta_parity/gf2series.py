"""Truncated formal power series over GF(2).

A series is a bit vector of its first `n_terms` coefficients, packed
little-endian into a single Python int (bit k = coefficient of q^k).
The support (sorted list of exponents with coefficient 1) is derived
lazily and cached.

Multiplication dispatches between two paths:

  * sparse x sparse: toggle the parity of every pair sum i+j < N
    (vectorized as an outer sum + bincount).  It costs wa*wb pair sums
    plus an N-length bincount, for operands with wa and wb terms.
  * shift-xor comb: acc ^= dense_bits << i over the sparser operand's
    support.  It costs min(wa, wb) shifts and xors of an N-bit int, about
    N/64 machine words each.

mul() counts both costs from the operands' bit counts and runs the
cheaper path.  Long theta products (f_8*f_24 at N = 10^6) go sparse;
short ones (N of a few thousand) and products with a dense operand, such
as the partition parity series, go to the comb.

Both are truncation-first: no coefficient at or beyond n_terms is ever
reported, and all identity claims are "below N" claims.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

# _SPREAD[b] is byte b with a zero bit after each of its bits: bit i moves
# to bit 2i, so spreading a series' bytes through it is the Frobenius map.
_BYTES = np.arange(256, dtype=np.uint16)
_SPREAD = sum(((_BYTES >> i) & 1) << (2 * i) for i in range(8)).astype("<u2")


def _sparse_is_cheaper(wa: int, wb: int, n: int) -> bool:
    """True when the pair-sum path should multiply operands with wa and wb
    terms below n: its wa*wb pair sums plus an n-length bincount cost less
    than the comb's min(wa, wb) shift-xors of n//64 + 1 words each."""
    return wa * wb + n < min(wa, wb) * (n // 64 + 1)


class Gf2Series:
    """Immutable GF(2) power series truncated to n_terms coefficients."""

    __slots__ = ("n_terms", "_bits", "_support")

    def __init__(self, n_terms: int, bits: int = 0, _support=None):
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if bits < 0 or bits >> n_terms:
            raise ValueError("bits outside the first n_terms coefficients")
        self.n_terms = n_terms
        self._bits = bits
        self._support = _support

    @classmethod
    def from_support(cls, indices: Sequence[int], n_terms: int) -> "Gf2Series":
        """Series with coefficient 1 exactly at `indices` (strictly increasing)."""
        indices = list(indices)
        prev = -1
        for k in indices:
            if k <= prev:
                raise ValueError("support indices must be strictly increasing")
            prev = k
        if indices and (indices[0] < 0 or indices[-1] >= n_terms):
            raise ValueError("support index out of range")
        # set bits in a byte buffer and convert once: linear in N
        buf = bytearray((n_terms + 7) // 8)
        for k in indices:
            buf[k >> 3] |= 1 << (k & 7)
        return cls(n_terms, int.from_bytes(buf, "little"), tuple(indices))

    @classmethod
    def zero(cls, n_terms: int) -> "Gf2Series":
        return cls(n_terms, 0, ())

    @classmethod
    def one(cls, n_terms: int) -> "Gf2Series":
        return cls(n_terms, 1, (0,))

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def support(self) -> tuple:
        """Sorted exponents with coefficient 1."""
        if self._support is None:
            n = self.n_terms
            raw = self._bits.to_bytes((n + 7) // 8, "little")
            arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                count=n, bitorder="little")
            self._support = tuple(np.flatnonzero(arr).tolist())
        return self._support

    def coeff(self, k: int) -> int:
        if not 0 <= k < self.n_terms:
            raise IndexError(f"coefficient index {k} outside [0, {self.n_terms})")
        return (self._bits >> k) & 1

    def is_zero(self) -> bool:
        return self._bits == 0

    def _check_same_length(self, other: "Gf2Series"):
        if self.n_terms != other.n_terms:
            raise ValueError(
                f"truncation mismatch: {self.n_terms} vs {other.n_terms}")

    def add(self, other: "Gf2Series") -> "Gf2Series":
        """Coefficient-wise XOR."""
        self._check_same_length(other)
        return Gf2Series(self.n_terms, self._bits ^ other._bits)

    def mul(self, other: "Gf2Series") -> "Gf2Series":
        """Truncated product: coefficient k is the pair-sum parity below N."""
        self._check_same_length(other)
        n = self.n_terms
        # dispatch on bit counts, so a dense operand's support is never built:
        # pair sums plus a bincount against shift-xors of N/64 words each
        wa, wb = self._bits.bit_count(), other._bits.bit_count()
        if not wa or not wb:
            return Gf2Series.zero(n)
        if _sparse_is_cheaper(wa, wb, n):
            return self._mul_sparse(self.support, other.support, n)
        return self._mul_comb(other)

    @staticmethod
    def _mul_sparse(sa, sb, n) -> "Gf2Series":
        sums = np.add.outer(np.asarray(sa, dtype=np.int64),
                            np.asarray(sb, dtype=np.int64)).ravel()
        sums = sums[sums < n]
        counts = np.bincount(sums, minlength=n)[:n]
        arr = (counts & 1).astype(np.uint8)
        bits = int.from_bytes(np.packbits(arr, bitorder="little").tobytes(),
                              "little")
        return Gf2Series(n, bits, tuple(np.flatnonzero(arr).tolist()))

    def _mul_comb(self, other: "Gf2Series") -> "Gf2Series":
        # comb over the sparser operand, shifting the denser bit vector
        n = self.n_terms
        f, g = ((self, other) if self._bits.bit_count() <= other._bits.bit_count()
                else (other, self))
        acc = 0
        gb = g._bits
        for i in f.support:
            acc ^= gb << i
        acc &= (1 << n) - 1
        return Gf2Series(n, acc)

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
        sup = self.support
        shown = list(sup[:12]) + (["..."] if len(sup) > 12 else [])
        return f"Gf2Series(n_terms={self.n_terms}, support={shown})"
