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

* ``ListRows`` (the rationals) holds each row, and each history over the
  insertion indices, as a list of field elements, and reduces by one
  ``field.sub_scaled`` call per row.  It works over any field object, and
  the test oracle ``oracles.abbott_basis`` uses it over GF(p) too.
* ``PackedRows`` (GF(p)) holds each row, and each history, as one Python
  ``int``: slot k sits at bits [k*w, (k+1)*w), one slot per coordinate of a
  row and one per inserted vector of a history (Kronecker substitution).
  A row is stored negated, each slot (p - x) % p, so reducing by it is one
  big-integer multiply-add, ``R += c * negrow``, which CPython's C
  arithmetic does over all m slots at once; the history gets the same
  update, ``H += c * hist``.  Slots are reduced mod p only when ``reduce``
  unpacks its result.  Before that a slot has gained less than (p-1)**2
  per row from a start below p, so it stays below m*(p-1)**2 + p; the width
  w is the smallest whole number of bytes that holds that bound, and no
  slot carries into the next.  This is exact for every prime the library
  accepts (p < 2**63); there w is 17 bytes at m = 1000.

``field_ops`` counts the same model operations in both stores, as before
the stores existed: reducing by a row whose pivot coefficient c is nonzero
costs 2*nnz(row) (a multiply and a subtract per nonzero row entry) plus the
number of history entries (a multiply each); ``insert`` costs
1 + m + |coeffs| (the pivot inverse, scaling the row, scaling the history).
Each row carries its reduce cost, computed at insert, so the counter does
not depend on how a row is stored or on the zeros a store skips.

numpy is not used.  Importing it raises the CLI's peak resident memory from
16 MB to 28 MB, and its int64 rows are exact only while
rank*(p-1)**2 < 2**63, which a 31-bit prime already breaks at rank 3.
"""

from __future__ import annotations


class InsertZero(ValueError):
    pass


class ListRows:
    """Semi-echelon rows as lists of field elements, over any field."""

    def __init__(self, m, field):
        self.m = m
        self.field = field
        self.pivots = []  # pivot column of each row
        # per row: (row, history over insertion indices 0..its own, reduce ops)
        self._rows = []

    @property
    def rank(self):
        return len(self._rows)

    def rows(self):
        return [list(row) for row, _h, _o in self._rows]

    def reduce(self, v):
        """(residual, coeffs, field ops) with v = residual + sum coeffs[i]*original_i."""
        F = self.field
        residual = list(v)
        coeffs = [F.zero] * len(self._rows)
        ops = 0
        for piv, (row, hist, row_ops) in zip(self.pivots, self._rows):
            c = residual[piv]
            if c == F.zero:
                continue
            residual[piv:] = F.sub_scaled(residual[piv:], c, row[piv:])
            coeffs[: len(hist)] = F.sub_scaled(coeffs[: len(hist)], F.neg(c), hist)
            ops += row_ops
        return residual, {i: x for i, x in enumerate(coeffs) if x != F.zero}, ops

    def insert(self, residual, coeffs):
        """Add a row for (residual, coeffs) = reduce(v); returns its field ops."""
        F = self.field
        piv = next((k for k, x in enumerate(residual) if x != F.zero), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        inv = F.inv(residual[piv])
        row = [F.mul(inv, x) for x in residual]
        # residual = v - sum coeffs[i]*original_i, scaled by inv
        hist = [F.zero] * len(self._rows) + [inv]
        for i, c in coeffs.items():
            hist[i] = F.neg(F.mul(inv, c))
        row_ops = 2 * sum(1 for x in row if x != F.zero) + len(coeffs) + 1
        self._rows.append((row, hist, row_ops))
        self.pivots.append(piv)
        return 1 + self.m + len(coeffs)


class PackedRows:
    """Semi-echelon rows over GF(p), each row and each history one int."""

    def __init__(self, m, field):
        self.m = m
        self.p = p = field.p
        self._width = (m * (p - 1) ** 2 + p).bit_length() + 7 >> 3  # bytes
        self._w = 8 * self._width  # bits per slot
        self._mask = (1 << self._w) - 1
        self.pivots = []
        # per row: (pivot shift, packed negated row, packed history, reduce ops)
        self._rows = []

    @property
    def rank(self):
        return len(self._rows)

    def _pack(self, v):
        width, p = self._width, self.p
        return int.from_bytes(
            b"".join([(x % p).to_bytes(width, "little") for x in v]), "little"
        )

    def _unpack(self, packed, count):
        """The first count slots of packed, each reduced mod p."""
        width, p = self._width, self.p
        data = packed.to_bytes(count * width, "little")
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
        p, w = self.p, self._w
        piv = next((k for k, x in enumerate(residual) if x % p), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        inv = pow(residual[piv], -1, p)
        row = [inv * x % p for x in residual]
        # residual = v - sum coeffs[i]*original_i, scaled by inv
        hist = {i: -inv * c % p for i, c in coeffs.items()}
        hist[len(self._rows)] = inv
        packed_hist = sum(h << i * w for i, h in hist.items())
        row_ops = 2 * sum(1 for x in row if x) + len(hist)
        self._rows.append((piv * w, self._pack([-x for x in row]), packed_hist, row_ops))
        self.pivots.append(piv)
        return 1 + self.m + len(coeffs)


class EchelonAccumulator:
    """Semi-echelon elimination with coordinates over the inserted vectors."""

    def __init__(self, m, field):
        self.store = PackedRows(m, field) if field.kind == "prime" else ListRows(m, field)
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
