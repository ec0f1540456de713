"""Incremental exact row reduction with provenance bookkeeping.

The accumulator keeps its rows in insertion order, in semi-echelon form:
each row's pivot is its first nonzero entry, equal to 1, and each row is
zero on the pivots of the rows before it.  Every row also carries its
coefficients over the *originally inserted* vectors, the ``v`` handed to
``reduce`` before ``insert``.  Reducing a new vector therefore yields its
coordinates over those originals -- which, for evaluation vectors of
monomials, is directly a polynomial combination of those monomials.

``EchelonAccumulator`` is the one interface.  It keeps its rows in a store
chosen by the field's kind alone:

* ``IntRows`` (the rationals) holds row k as one list of integers N_k and
  its history as one list of integers H_k, over one common denominator
  d_k = N_k[pivot], with the content gcd(N_k, H_k) divided out: the row
  is N_k/d_k and the history H_k/d_k.  ``reduce`` clears v's denominators
  once, to integers R over D, and keeps the coordinates as integers C over
  the same D.  Reducing by a row whose pivot entry a = R[pivot] is nonzero
  is ``R = d*R - a*N``, ``C = d*C + a*H`` and ``D *= d``, after dividing
  gcd(a, d) out of a and d; that small gcd removes most of the common factor
  (84 of 103 bits on average on the qq-random benchmark).  The full content
  gcd(D, *R, *C) is divided out only once D has doubled in length since the
  last time.  Fractions appear only in what ``reduce`` returns and
  ``insert`` receives.  ``fractions.Fraction`` is avoided inside because
  each of its multiplies and adds runs a gcd and a normalisation in Python
  code, entry by entry; here a row update is a list comprehension of int
  multiply-adds, whose arithmetic runs in C.  Evaluation vectors of
  small-height points share most of their denominators, so the rows stay a
  few hundred bits long; vectors with unrelated large denominators make
  every entry as long as their lcm, and there the list rows of the oracle
  can be faster.
* ``PackedRows`` (GF(p)) holds each row, and each history, as one Python
  ``int``: slot k sits at bits [k*w, (k+1)*w), one slot per coordinate of a
  row and one per inserted vector of a history (Kronecker substitution).
  A row is stored negated, each slot (p - x) % p, so reducing by it is one
  big-integer multiply-add, ``R += c * negrow``, which CPython's C
  arithmetic does over all m slots at once; the history gets the same
  update, ``H += c * hist``.  Slots are reduced mod p only when ``reduce``
  unpacks its result.  Before that a slot has gained less than (p-1)**2
  per row from a start below p, so it stays below m*(p-1)**2 + p, and no
  slot carries into the next.  When that bound is below 2**64 (p = 32003
  at any practical m, p = 2**31 - 1 only while m <= 4) every slot is a
  64-bit lane, and packing and unpacking go through ``array("Q")`` and
  ``memoryview.cast("Q")`` in C; the lanes are laid out little-endian,
  byteswapped on big-endian machines, so slot k sits at bits
  [64k, 64k+64) everywhere.  Otherwise w is the smallest whole number of
  bytes that holds the bound, packed and unpacked byte string by byte
  string.  This is exact for every prime the library accepts (p < 2**63);
  there w is 17 bytes at m = 1000.

``field_ops`` counts the same model operations in both stores and in the
test oracle's list rows (``oracles.ListRows``), as before the stores
existed: reducing by a row whose pivot coefficient c is nonzero costs
2*nnz(row) (a multiply and a subtract per nonzero row entry) plus the
number of history entries (a multiply each); ``insert`` costs
1 + m + |coeffs| (the pivot inverse, scaling the row, scaling the history).
Each row carries its reduce cost, computed at insert, so the counter does
not depend on how a row is stored or on the zeros a store skips.

numpy is not used.  Importing it raises the CLI's peak resident memory from
16 MB to 28 MB, and its int64 rows are exact only while
rank*(p-1)**2 < 2**63, which a 31-bit prime already breaks at rank 3.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm

# 64-bit lanes are laid out little-endian: slot k at bits [64k, 64k+64)
_BIG_ENDIAN = sys.byteorder == "big"


class InsertZero(ValueError):
    pass


def _over_common_denominator(xs):
    """(integers, D) with xs[k] = integers[k]/D for rationals (or ints) xs."""
    D = lcm(*[x.denominator for x in xs])
    return [x.numerator * (D // x.denominator) for x in xs], D


class IntRows:
    """Semi-echelon rows over QQ, each an integer list over one denominator."""

    def __init__(self, m, field):
        self.m = m
        self.zero = field.zero
        self.pivots = []
        # per row: (pivot, N, H, d, reduce ops) with row = N/d and
        # history = H/d, d = N[pivot] and gcd(*N, *H) = 1
        self._rows = []

    @property
    def rank(self):
        return len(self._rows)

    def rows(self):
        return [[Fraction(x, d) for x in N] for _p, N, _H, d, _o in self._rows]

    def reduce(self, v):
        """(residual, coeffs, field ops) with v = residual + sum coeffs[i]*original_i."""
        # residual = R/D and coeffs = C/D throughout, starting from v
        R, D = _over_common_denominator(v)
        C = []
        ops = 0
        limit = 2 * D.bit_length() + 64
        for piv, N, H, d, row_ops in self._rows:
            a = R[piv]
            if not a:
                continue
            ops += row_ops
            # R/D - (a/D)*(N/d) and C/D + (a/D)*(H/d), over D*d once the
            # common factor of a and d is divided out
            g = gcd(a, d)
            a //= g
            d //= g
            R = [d * r - a * x for r, x in zip(R, N)]
            C += [0] * (len(H) - len(C))
            C = [d * c + a * h for c, h in zip(C, H)]
            D *= d
            if D.bit_length() > limit:
                # the content, once D has doubled in length (plus a word)
                # since the last time
                g = gcd(D, *R, *C)
                R = [r // g for r in R]
                C = [c // g for c in C]
                D //= g
                limit = 2 * D.bit_length() + 64
        zero = self.zero
        residual = [Fraction(r, D) if r else zero for r in R]
        return residual, {i: Fraction(c, D) for i, c in enumerate(C) if c}, ops

    def insert(self, residual, coeffs):
        """Add a row for (residual, coeffs) = reduce(v); returns its field ops."""
        piv = next((k for k, x in enumerate(residual) if x), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        # residual = v - sum coeffs[i]*original_i: the row is residual and
        # the history e_idx - coeffs, both over residual[piv]
        hist = [0] * len(self._rows) + [1]
        for i, c in coeffs.items():
            hist[i] = -c
        NH, _ = _over_common_denominator([*residual, *hist])
        g = gcd(*NH)
        NH = [x // g for x in NH]
        N, H = NH[: self.m], NH[self.m :]
        row_ops = 2 * sum(1 for x in N if x) + len(coeffs) + 1
        self._rows.append((piv, N, H, N[piv], row_ops))
        self.pivots.append(piv)
        return 1 + self.m + len(coeffs)


class PackedRows:
    """Semi-echelon rows over GF(p), each row and each history one int."""

    def __init__(self, m, field):
        self.m = m
        self.p = p = field.p
        bound = m * (p - 1) ** 2 + p
        # 64-bit lanes pack and unpack through array and memoryview in C
        self.lanes = bound < 1 << 64
        self._width = 8 if self.lanes else bound.bit_length() + 7 >> 3  # bytes
        self._w = 8 * self._width  # bits per slot
        self._mask = (1 << self._w) - 1
        self.pivots = []
        # per row: (pivot shift, packed negated row, packed history, reduce ops)
        self._rows = []

    @property
    def rank(self):
        return len(self._rows)

    def _pack(self, v):
        p = self.p
        if self.lanes:
            lanes = array("Q", [x % p for x in v])
            if _BIG_ENDIAN:
                lanes.byteswap()
            return int.from_bytes(lanes, "little")
        width = self._width
        return int.from_bytes(
            b"".join([(x % p).to_bytes(width, "little") for x in v]), "little"
        )

    def _unpack(self, packed, count):
        """The first count slots of packed, each reduced mod p."""
        width, p = self._width, self.p
        data = packed.to_bytes(count * width, "little")
        if self.lanes:
            lanes = memoryview(data).cast("Q")
            if _BIG_ENDIAN:
                lanes = array("Q", lanes)
                lanes.byteswap()
            return [x % p for x in lanes]
        return [
            int.from_bytes(data[k : k + width], "little") % p
            for k in range(0, count * width, width)
        ]

    def rows(self):
        p = self.p
        return [[-x % p for x in self._unpack(neg, self.m)] for _s, neg, _h, _o in self._rows]

    def reduce(self, v):
        """(residual, coeffs, field ops) with v = residual + sum coeffs[i]*original_i."""
        p, mask = self.p, self._mask
        R = self._pack(v)
        H = 0
        ops = 0
        for shift, negrow, hist, row_ops in self._rows:
            c = (R >> shift & mask) % p
            if c:
                R += c * negrow
                H += c * hist
                ops += row_ops
        residual = self._unpack(R, self.m)
        coeffs = {i: x for i, x in enumerate(self._unpack(H, len(self._rows))) if x}
        return residual, coeffs, ops

    def insert(self, residual, coeffs):
        """Add a row for (residual, coeffs) = reduce(v); returns its field ops."""
        p = self.p
        piv = next((k for k, x in enumerate(residual) if x % p), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        inv = pow(residual[piv], -1, p)
        row = [inv * x % p for x in residual]
        # residual = v - sum coeffs[i]*original_i, scaled by inv
        hist = [0] * len(self._rows) + [inv]
        for i, c in coeffs.items():
            hist[i] = -inv * c
        row_ops = 2 * sum(1 for x in row if x) + len(coeffs) + 1
        negrow = self._pack([-x for x in row])
        self._rows.append((piv * self._w, negrow, self._pack(hist), row_ops))
        self.pivots.append(piv)
        return 1 + self.m + len(coeffs)


class EchelonAccumulator:
    """Semi-echelon elimination with coordinates over the inserted vectors."""

    def __init__(self, m, field):
        self.store = PackedRows(m, field) if field.kind == "prime" else IntRows(m, field)
        self.field_ops = 0

    @property
    def rank(self):
        return self.store.rank

    def reduce(self, v):
        """Return (residual, coeffs) with v = residual + sum coeffs[i]*original_i.

        The residual vanishes on every pivot column.
        """
        residual, coeffs, ops = self.store.reduce(v)
        self.field_ops += ops
        return residual, coeffs

    def insert(self, residual, coeffs):
        """Add original v as a new row, given (residual, coeffs) = reduce(v).

        The residual must be nonzero; v gets the next insertion index.
        """
        idx = self.store.rank
        self.field_ops += self.store.insert(residual, coeffs)
        return idx
