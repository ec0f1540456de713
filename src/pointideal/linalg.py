"""Incremental exact row reduction with provenance bookkeeping.

The accumulator keeps its rows in insertion order, in semi-echelon form:
each row's pivot is its first nonzero entry, equal to 1, and each row is
zero on the pivots of the rows before it.  Every row also carries its
coefficients over the *originally inserted* vectors, the ``v`` handed to
``reduce`` before ``insert``.  Reducing a new vector therefore yields its
coordinates over those originals -- which, for evaluation vectors of
monomials, is directly a polynomial combination of those monomials.

``EchelonAccumulator`` is the one interface.  It keeps its rows in a store
chosen by the field's kind alone, and the store owns the format of the
vectors it eliminates: ``vector(elements)`` turns field elements into a
store vector once, ``step(vec, column)`` is the pointwise product of two
store vectors, and ``reduce`` takes a store vector.  ``reduce`` returns
(residual, coords): the residual is a list of integers, zero exactly when
``not any(residual)``, and coords is what ``insert`` needs besides it.
Field elements come back only from ``coordinates(coords)`` and from
``tail(coords, B)``, the terms (-c_i, B[i]) of the nonzero coordinates c_i,
i descending: the tail of the G element t - sum c_i*B[i].

* ``IntRows`` (the rationals) holds a vector as (integers, D) with D > 0
  and gcd(D, *integers) = 1, its entries integers[k]/D; the step multiplies
  the integer lists and divides out one gcd.  Row k is one list of
  integers N_k and its history one list of integers H_k, over one common
  denominator d_k = N_k[pivot] > 0, with the content gcd(N_k, H_k) divided
  out: the row is N_k/d_k and the history H_k/d_k.  ``reduce`` starts from the
  vector's R over D and keeps the coordinates as integers C over the same
  D.  Reducing by a row whose pivot entry a = R[pivot] is nonzero is
  ``R = d*R - a*N``, ``C = d*C + a*H`` and ``D *= d``, after dividing
  gcd(a, d) out of a and d; that small gcd removes most of the common factor
  (84 of 103 bits on average on the qq-random benchmark).  The full content
  gcd(D, *R, *C) is divided out only once D has doubled in length since the
  last time.  The residual is R and coords is (C, D); ``insert`` builds the
  row from them as integers.  ``fractions.Fraction`` is avoided because
  each of its multiplies and adds runs a gcd and a normalisation in Python
  code, entry by entry; here a step or a row update is a list
  comprehension of int multiplies, whose arithmetic runs in C.  Evaluation
  vectors of small-height points share most of their denominators, so the
  rows stay a few hundred bits long; vectors with unrelated large
  denominators make every entry as long as their lcm, and there the list
  rows of the oracle can be faster.
* ``PackedRows`` (GF(p)) holds a vector as a list of residues in [0, p),
  which ``vector``, ``step`` and ``reduce`` return and packing writes as
  they are; and each row, and each history, as one Python ``int`` with a
  w-bit slot per entry (Kronecker substitution).  A history keeps index
  order, inserted vector i in slot i; a vector or row is packed reversed,
  coordinate k in slot m-1-k, so a row, zero before its pivot, ends at the
  pivot's slot.  ``insert`` writes the negated row and the history in one
  pass each.  A row is stored negated, each slot (p - x) % p, so reducing by
  it is one big-integer multiply-add, ``R += c * negrow``, which CPython
  does in C, the product over the row's m - pivot slots; the history gets
  the same update, ``H += c * hist``.  c is the pivot's slot of R mod p, read
  from the shorter side: ``R >> shift & mask`` copies the slots above it, so
  a pivot past the middle is read as ``(R & low) >> shift``, with ``low``
  the row's mask of the slots up to the pivot's (an ``&`` is as long as its
  shorter operand).  Slots are reduced mod p only when ``reduce`` unpacks its
  result.  Before that a slot has gained less than (p-1)**2 per row from a
  start below p, so it stays below m*(p-1)**2 + p, and no slot carries into
  the next.  When that bound is below 2**64 (p = 32003 at any practical m,
  p = 2**31 - 1 only while m <= 4) and the machine is little-endian, every
  slot is a 64-bit lane, and packing and unpacking go through ``array("Q")``
  and ``memoryview.cast("Q")`` in C.  Otherwise w is the smallest whole
  number of bytes that holds the bound, packed and unpacked byte string by
  byte string.  This is exact for every prime the library accepts
  (p < 2**63); there w is 17 bytes at m = 1000.  The residual is the
  unpacked list of residues and coords the unpacked history coefficients.

``field_ops`` counts the same model operations in both stores and in the
test oracle's list rows (``_oracles.ListRows``), as before the stores
existed: reducing by a row whose pivot coefficient c is nonzero costs
2*nnz(row) (a multiply and a subtract per nonzero row entry) plus the
number of history entries (a multiply each); ``insert`` costs
1 + m + nnz(coords) (the pivot inverse, scaling the row, scaling the
history).  Each row carries its reduce cost, computed at insert, so the
counter does not depend on how a row is stored or on the zeros a store
skips.  A step is not counted here; its caller counts it.

numpy is not used.  Importing it raises the CLI's peak resident memory from
16 MB to 28 MB, and its int64 rows are exact only while
rank*(p-1)**2 < 2**63, which a 31-bit prime already breaks at rank 3.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm

# native 64-bit lanes put slot k at bits [64k, 64k+64) only on little-endian machines
_LITTLE_ENDIAN = sys.byteorder == "little"


class InsertZero(ValueError):
    pass


class IntRows:
    """Semi-echelon rows over QQ, each an integer list over one denominator."""

    def __init__(self, m, field):
        self.m = m
        self.pivots = []
        # per row: (pivot, N, H, d, reduce ops) with row = N/d and
        # history = H/d, d = N[pivot] > 0 and gcd(*N, *H) = 1
        self._rows = []

    @property
    def rank(self):
        return len(self._rows)

    def rows(self):
        return [[Fraction(x, d) for x in N] for _p, N, _H, d, _o in self._rows]

    @staticmethod
    def vector(elements):
        """(integers, D) with elements[k] = integers[k]/D, D > 0 the least."""
        D = lcm(*[x.denominator for x in elements])
        return [x.numerator * (D // x.denominator) for x in elements], D

    @staticmethod
    def step(vec, column):
        """The vector of the entrywise products of two vectors."""
        (xs, D), (ys, E) = vec, column
        P = [x * y for x, y in zip(xs, ys)]
        D *= E
        g = gcd(D, *P)
        if g > 1:
            P = [x // g for x in P]
            D //= g
        return P, D

    @staticmethod
    def coordinates(coords):
        C, D = coords
        return {i: Fraction(c, D) for i, c in enumerate(C) if c}

    @staticmethod
    def tail(coords, B):
        C, D = coords
        return [(Fraction(-c, D), b) for c, b in zip(reversed(C), reversed(B[: len(C)])) if c]

    def reduce(self, vec):
        """(R, (C, D), field ops) with v = R/D + sum C[i]/D*original_i."""
        R, D = vec
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
        return R, (C, D), ops

    def insert(self, residual, coords):
        """Add a row for (residual, coords) = reduce(v); returns its field ops."""
        piv = next((k for k, x in enumerate(residual) if x), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        # v - sum C[i]/D*original_i = R/D: the row is R and the history
        # D*e_idx - C, both over R[piv]
        C, D = coords
        NH = [*residual, *[-c for c in C], *[0] * (len(self._rows) - len(C)), D]
        # a positive d keeps every D of reduce positive
        g = gcd(*NH) if residual[piv] > 0 else -gcd(*NH)
        if g != 1:
            NH = [x // g for x in NH]
        N, H = NH[: self.m], NH[self.m :]
        nnz = len(C) - C.count(0)
        row_ops = 2 * (self.m - N.count(0)) + nnz + 1
        self._rows.append((piv, N, H, N[piv], row_ops))
        self.pivots.append(piv)
        return 1 + self.m + nnz


class PackedRows:
    """Semi-echelon rows over GF(p), each row and each history one int."""

    def __init__(self, m, field):
        self.m = m
        self.p = p = field.p
        bound = m * (p - 1) ** 2 + p
        # 64-bit lanes pack and unpack through array and memoryview in C
        self.lanes = _LITTLE_ENDIAN and bound < 1 << 64
        self._width = 8 if self.lanes else bound.bit_length() + 7 >> 3  # bytes
        self._w = 8 * self._width  # bits per slot
        self._mask = (1 << self._w) - 1
        self.pivots = []
        # per row: (pivot shift, low mask or 0, negated row, history, reduce ops)
        self._rows = []

    @property
    def rank(self):
        return len(self._rows)

    def _pack(self, v):
        if self.lanes:
            return int.from_bytes(array("Q", v), "little")
        width = self._width
        return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in v]), "little")

    def _unpack(self, packed, count):
        """The first count slots of packed, each reduced mod p."""
        width, p = self._width, self.p
        data = packed.to_bytes(count * width, "little")
        if self.lanes:
            return [x % p for x in memoryview(data).cast("Q")]
        return [
            int.from_bytes(data[k : k + width], "little") % p
            for k in range(0, count * width, width)
        ]

    def rows(self):
        p, m = self.p, self.m
        return [[-x % p for x in self._unpack(row[2], m)[::-1]] for row in self._rows]

    def vector(self, elements):
        return [x % self.p for x in elements]

    def step(self, vec, column):
        """The vector of the entrywise products of two vectors."""
        p = self.p
        return [x * y % p for x, y in zip(vec, column)]

    @staticmethod
    def coordinates(coords):
        return {i: c for i, c in enumerate(coords) if c}

    def tail(self, coords, B):
        p = self.p
        return [(p - c, b) for c, b in zip(reversed(coords), reversed(B[: len(coords)])) if c]

    def reduce(self, vec):
        """(residual, coords, field ops) with v = residual + sum coords[i]*original_i."""
        p, mask = self.p, self._mask
        R = self._pack(vec[::-1])
        H = 0
        ops = 0
        for shift, low, negrow, hist, row_ops in self._rows:
            c = ((R & low) >> shift if low else R >> shift & mask) % p
            if c:
                R += c * negrow
                H += c * hist
                ops += row_ops
        return self._unpack(R, self.m)[::-1], self._unpack(H, len(self._rows)), ops

    def insert(self, residual, coords):
        """Add a row for (residual, coords) = reduce(v), both residues; returns its field ops."""
        p = self.p
        lead = next(filter(None, residual), None)
        if lead is None:
            raise InsertZero("cannot insert the zero vector")
        piv = residual.index(lead)
        inv = pow(lead, -1, p)
        q = p - inv
        # residual = v - sum coords[i]*original_i, scaled by inv and negated
        negrow = self._pack([q * x % p for x in reversed(residual)])
        hist = self._pack([q * c % p for c in coords] + [inv])
        nnz = len(coords) - coords.count(0)
        row_ops = 2 * (self.m - residual.count(0)) + nnz + 1
        s = self.m - 1 - piv  # the pivot's slot, piv slots below the top
        low = (1 << (s + 1) * self._w) - 1 if s < piv else 0  # fewer slots below than above
        self._rows.append((s * self._w, low, negrow, hist, row_ops))
        self.pivots.append(piv)
        return 1 + self.m + nnz


class EchelonAccumulator:
    """Semi-echelon elimination with coordinates over the inserted vectors."""

    def __init__(self, m, field):
        self.store = store = (PackedRows if field.kind == "prime" else IntRows)(m, field)
        self.field_ops = 0
        # the store's vector format: made once, stepped, read off
        self.vector, self.step = store.vector, store.step
        self.coordinates, self.tail = store.coordinates, store.tail

    @property
    def rank(self):
        return self.store.rank

    def reduce(self, vec):
        """Return (residual, coords) with vec = residual + coords over the originals.

        The residual vanishes on every pivot column, and everywhere exactly
        when ``not any(residual)``; ``coordinates(coords)`` reads the
        coordinates off as {insertion index: nonzero field element}.
        """
        residual, coords, ops = self.store.reduce(vec)
        self.field_ops += ops
        return residual, coords

    def insert(self, residual, coords):
        """Add original vec as a new row, given (residual, coords) = reduce(vec).

        The residual must be nonzero; vec gets the next insertion index.
        """
        self.field_ops += self.store.insert(residual, coords)
