"""Incremental exact row reduction with provenance bookkeeping.

The accumulator keeps its rows in insertion order, in semi-echelon form:
each row's pivot is its first nonzero entry, equal to 1, and each row is
zero on the pivots of the rows before it.  Every row also carries its
coefficients over the *originally inserted* vectors, the ``v`` handed to
``reduce`` before ``insert``.  Reducing a new vector therefore yields its
coordinates over those originals -- which, for evaluation vectors of
monomials, is directly a polynomial combination of those monomials.

``EchelonAccumulator(m, field)`` is the one door: the library makes and
reaches a store only through it, and the field alone picks the store.  It
forwards the store's vector format: ``vector(elements)`` turns field
elements into a store vector once, ``step(vec, column)`` is the pointwise
product of two store vectors, ``combiner(vecs)(coeffs, at)`` is sum
coeffs[j]*vecs[at[j]] for any number of field elements coeffs, in the
format of coords, and ``reduce(vec)`` returns (residual, coords): the
residual is 0 exactly when vec lies in the span of the rows, and coords,
with it, is what ``insert`` needs.  Field elements come back only from
``coordinates``, {k: nonzero entry k} of coords or of a combiner's sum, and
``tail(coords)``, the tail of the G element t - sum c_i*B[i] as
``Polynomial.on_basis`` takes it: the indices i of the nonzero c_i,
ascending (int objects shared by every tail), and the -c_i.

* ``IntRows`` (the rationals) holds a vector as (integers, D) with D > 0
  and gcd(D, *integers) = 1, its entries integers[k]/D; the step multiplies
  the integer lists and divides out one gcd.  Row k is one primitive list
  NH_k, the row N_k and then its negated history -H_k, over d_k =
  N_k[pivot] > 0.  ``reduce`` keeps the residual and the coordinates as one
  list RC over D, split into R (0 when R is zero) and coords (C, D) only
  as it returns.  Reducing by a row whose pivot entry a = RC[pivot] is
  nonzero divides gcd(a, d) out of a and d (84 of 103 common bits on
  average on qq-random), then is one list comprehension, ``RC = d*RC -
  a*NH`` with ``D *= d``: RC is padded to the row's longer history, an
  entry stays r (or d*r) where NH is 0, and when d = 1, in half the steps,
  neither D nor RC is scaled.  The content gcd(D, *RC) is divided out once
  D has doubled in length since the last time.  ``fractions.Fraction``
  would run a gcd and a normalisation in Python code per entry; here each
  step is int arithmetic that runs in C.  Small-height points share most
  of their denominators, so rows stay a few hundred bits long; unrelated
  large denominators make every entry as long as their lcm, where the
  oracle's list rows can be faster.  ``combiner`` sums over one lcm.
* ``PackedRows`` (GF(p)) holds a vector as a list of residues in [0, p),
  as ``vector`` and ``step`` return it, and a row, a history, a residual
  and coords each as one Python ``int`` with a w-bit slot per entry
  (Kronecker substitution).  Histories and coords keep index order,
  inserted vector i in slot i; a vector, residual or row is packed
  reversed, coordinate k in slot m-1-k, so a row, zero before its pivot,
  ends at the pivot's slot, and a residual's pivot is its top slot.  A row
  is stored negated, so reducing by it is one big-integer multiply-add,
  ``R += c * negrow``, which CPython does in C over the row's m - pivot
  slots; the history gets the same update, ``H += c * hist``.  c, the
  pivot's slot of R mod p, is read from the shorter side: past the middle
  as ``(R & low) >> shift``, ``low`` masking the slots up to the pivot's.
  A slot gains less than (p-1)**2 per row from a start below p, so it stays
  below m*(p-1)**2 + p < 2**s and never carries into the next.
  ``residues(X)`` reduces every slot mod p at once, a Barrett reduction
  (P. Barrett, CRYPTO '86) on the whole int: with mu = 2**s // p, ``X * mu
  >> s`` masked to the slots is each slot's quotient estimate, which leaves
  it below 2p; adding 2**t - p, t = bits(p) + 1, sets bit t of exactly the
  slots still >= p, which lose p once more.  x*mu < 2**(2s - bits(p) + 1),
  and w is the fewest whole bytes of that many bits: 8 for p = 32003 up to
  m = 536, 14 for 2**31 - 1 at m = 200.  ``reduce`` returns ``residues(R)``
  and ``residues(H)``; ``insert`` scales both by -1/lead through
  ``residues`` and counts nonzero slots by popcount; ``combiner`` reduces
  its sum after every (2**s - p) // (p-1)**2 >= m terms.  Packing goes
  through ``array("Q")`` lanes, byte-swapped on a big-endian machine, and
  strided byte copies between lanes and w-byte slots.  Exact for p < 2**63.

``field_ops`` counts the same model operations in both stores and in the
test oracle's list rows (``_oracles.ListRows``): reducing by a row whose
pivot coefficient is nonzero costs 2*nnz(row) (a multiply and a subtract
per nonzero row entry) plus nnz(history) (a multiply each); ``insert``
costs 1 + m + nnz(coords) (the pivot inverse, scaling the row, scaling
the history).  Each row carries its reduce cost, computed at insert, so
the counter does not depend on how a row is stored or on the zeros a
store skips.  A step is not counted here; its caller counts it.

numpy is not used.  Importing it raises the CLI's peak resident memory from
16 MB to 28 MB, and its int64 rows are exact only while
rank*(p-1)**2 < 2**63, which a 31-bit prime already breaks at rank 3.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import compress, zip_longest
from math import gcd, lcm
from operator import mul

# array("Q") holds native-endian lanes; packed ints are read little-endian
_BIG_ENDIAN = sys.byteorder == "big"


class InsertZero(ValueError):
    pass


class IntRows:
    """Semi-echelon rows over QQ, each an integer list over one denominator."""

    def __init__(self, m, field):
        self.m = m
        self._index = list(range(m))
        # per row: (pivot, NH, d, reduce ops), NH = [*N, *-H] with row = N/d,
        # history = H/d, d = N[pivot] > 0 and gcd(*NH) = 1
        self._rows = []

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

    def combiner(self, vecs):
        def combine(coeffs, at):
            terms = [(c, *vecs[j]) for c, j in zip(coeffs, at)]
            L = lcm(*[c.denominator * D for c, _N, D in terms])
            total = [0] * self.m
            for c, N, D in terms:
                s = c.numerator * (L // (c.denominator * D))
                total = [t + s * x for t, x in zip(total, N)]
            g = gcd(L, *total)
            return [t // g for t in total], L // g

        return combine

    @staticmethod
    def coordinates(coords):
        C, D = coords
        return {i: Fraction(c, D) for i, c in enumerate(C) if c}

    def tail(self, coords):
        C, D = coords
        return list(compress(self._index, C)), [Fraction(-c, D) for c in C if c]

    def reduce(self, vec):
        """(R, (C, D), field ops) with v = R/D + sum C[i]/D*original_i."""
        RC, D = vec
        ops = 0
        limit = 2 * D.bit_length() + 64
        for piv, NH, d, row_ops in self._rows:
            a = RC[piv]
            if not a:
                continue
            ops += row_ops
            # RC/D - (a/D)*(NH/d) over D*d, once gcd(a, d) is divided out
            g = gcd(a, d)
            a, d = a // g, d // g
            if d == 1:
                RC = [r - a * x if x else r for r, x in zip_longest(RC, NH, fillvalue=0)]
                continue
            RC = [d * r - a * x if x else d * r for r, x in zip_longest(RC, NH, fillvalue=0)]
            D *= d
            if D.bit_length() > limit:
                # the content, once D has doubled in length since the last time
                g = gcd(D, *RC)
                RC = [x // g for x in RC]
                D //= g
                limit = 2 * D.bit_length() + 64
        R = RC[: self.m]
        return R if any(R) else 0, (RC[self.m :], D), ops

    def insert(self, residual, coords):
        """Add a row for (residual, coords) = reduce(v); returns its field ops."""
        if not residual:
            raise InsertZero("cannot insert the zero vector")
        piv = next(k for k, x in enumerate(residual) if x)
        # v - sum C[i]/D*original_i = R/D: the row is R and the history
        # D*e_idx - C, both over R[piv]; the history is kept negated
        C, D = coords
        NH = [*residual, *C, *[0] * (len(self._rows) - len(C)), -D]
        # a positive d keeps every D of reduce positive
        g = gcd(*NH) if residual[piv] > 0 else -gcd(*NH)
        if g != 1:
            NH = [x // g for x in NH]
        nnz = len(C) - C.count(0)
        row_ops = 2 * (self.m - residual.count(0)) + nnz + 1
        self._rows.append((piv, NH, NH[piv], row_ops))
        return 1 + self.m + nnz


class PackedRows:
    """Semi-echelon rows over GF(p), each row and each history one int."""

    def __init__(self, m, field):
        self.m = m
        self._index = list(range(m))
        self.p = p = field.p
        # every slot stays below 2**s; a slot holds the Barrett product x * mu
        self._s = s = (m * (p - 1) ** 2 + p).bit_length()
        self._mu = (1 << s) // p
        self._t = t = p.bit_length() + 1
        self._width = (2 * s - p.bit_length() + 8) // 8  # bytes, w >= 2s - bits(p) + 1
        self._w = w = 8 * self._width  # bits per slot
        self._mask = (1 << w) - 1
        # over m slots: bit 0, the quotient's bits, 2**t - p and 2**t - 1 in each
        self._ones = ones = ((1 << m * w) - 1) // self._mask
        self._qmask = ones * ((1 << w - s) - 1)
        self._over = ones * ((1 << t) - p)
        self._nonzero = ones * ((1 << t) - 1)
        # per row: (pivot shift, low mask or 0, negated row, history, reduce ops)
        self._rows = []

    def residues(self, X):
        """X with each slot, below 2**s, reduced mod p: every slot at once."""
        p = self.p
        X -= (X * self._mu >> self._s & self._qmask) * p  # each slot now below 2p
        return X - ((X + self._over) >> self._t & self._ones) * p

    def count_nonzero(self, X):
        """The number of nonzero slots of X, each slot a residue."""
        return ((X + self._nonzero) >> self._t & self._ones).bit_count()

    def pack(self, v):
        """One int holding v[k] in slot k; each entry must fit a slot."""
        lanes = array("Q", v)
        if _BIG_ENDIAN:
            lanes.byteswap()
        return int.from_bytes(_respace(lanes, len(v), 8, self._width), "little")

    def unpack(self, packed, count):
        """The first count slots of packed, each a residue."""
        data = packed.to_bytes(count * self._width, "little")
        lanes = array("Q", _respace(data, count, self._width, 8))
        if _BIG_ENDIAN:
            lanes.byteswap()
        return lanes.tolist()

    def vector(self, elements):
        return [x % self.p for x in elements]

    def step(self, vec, column):
        """The vector of the entrywise products of two vectors."""
        p = self.p
        return [x * y % p for x, y in zip(vec, column)]

    def combiner(self, vecs):
        packed = [self.pack(v) for v in vecs]
        room = ((1 << self._s) - self.p) // (self.p - 1) ** 2

        def combine(coeffs, at):
            vs, total = [packed[j] for j in at], 0
            for k in range(0, len(at), room):
                # each slot below p, plus room terms below (p-1)**2
                total = sum(map(mul, coeffs[k : k + room], vs[k : k + room]), self.residues(total))
            return self.residues(total)

        return combine

    def _slots(self, coords):
        """The residues of coords up to its last nonzero slot."""
        return self.unpack(coords, -(-coords.bit_length() // self._w))

    def coordinates(self, coords):
        return {i: c for i, c in enumerate(self._slots(coords)) if c}

    def tail(self, coords):
        cs = self._slots(self.residues(coords * (self.p - 1)))  # -c_i in slot i
        return list(compress(self._index, cs)), list(filter(None, cs))

    def reduce(self, vec):
        """(residual, coords, field ops) with v = residual + sum coords[i]*original_i."""
        p, mask = self.p, self._mask
        R = self.pack(vec[::-1])
        H = ops = 0
        for shift, low, negrow, hist, row_ops in self._rows:
            c = ((R & low) >> shift if low else R >> shift & mask) % p
            if c:
                R += c * negrow
                H += c * hist
                ops += row_ops
        return self.residues(R), self.residues(H), ops

    def insert(self, residual, coords):
        """Add a row for (residual, coords) = reduce(v); returns its field ops."""
        if not residual:
            raise InsertZero("cannot insert the zero vector")
        p, w = self.p, self._w
        s = (residual.bit_length() - 1) // w  # the pivot's slot, the top one
        inv = pow(residual >> s * w, -1, p)
        q = p - inv
        # residual = v - sum coords[i]*original_i, scaled by inv and negated
        negrow = self.residues(residual * q)
        hist = self.residues(coords * q) + (inv << len(self._rows) * w)
        nnz = self.count_nonzero(coords)
        row_ops = 2 * self.count_nonzero(residual) + nnz + 1
        low = (1 << (s + 1) * w) - 1 if 2 * s + 1 < self.m else 0  # fewer slots below than above
        self._rows.append((s * w, low, negrow, hist, row_ops))
        return 1 + self.m + nnz


def _respace(data, count, width, to):
    """count slots of width bytes copied into slots of to bytes, low bytes first."""
    if width == to:
        return data
    out, data = bytearray(count * to), memoryview(data).cast("B")
    for j in range(min(width, to)):
        out[j::to] = data[j::width]
    return out


class EchelonAccumulator:
    """Semi-echelon elimination with coordinates over the inserted vectors."""

    def __init__(self, m, field):
        self.store = store = (PackedRows if field.kind == "prime" else IntRows)(m, field)
        self.field_ops = 0
        # the store's vector format: made once, stepped, summed, read off
        self.vector, self.step, self.combiner = store.vector, store.step, store.combiner
        self.coordinates, self.tail = store.coordinates, store.tail

    def reduce(self, vec):
        """Return (residual, coords) with vec = residual + coords over the originals.

        The residual vanishes on every pivot column, and is 0 exactly when
        vec lies in the span of the rows; ``coordinates(coords)`` reads the
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
