"""Incremental exact row reduction with provenance bookkeeping.

The accumulator keeps its rows in insertion order, in semi-echelon form:
each row's pivot is its first nonzero entry, equal to 1, and each row is
zero on the pivots of the rows before it.  Every row also carries its
coefficients over the *originally inserted* vectors, the ``v`` handed to
``reduce`` before ``insert``.  Reducing a new vector therefore yields its
coordinates over those originals -- which, for evaluation vectors of
monomials, is directly a polynomial combination of those monomials.
"""

from __future__ import annotations


class InsertZero(ValueError):
    pass


class EchelonAccumulator:
    def __init__(self, m, field):
        self.m = m
        self.field = field
        self.rows = []  # semi-echelon rows in insertion order, pivot entry 1
        self.pivots = []  # pivot column of each row
        self.history = []  # row -> coeffs over originally inserted vectors
        self.field_ops = 0

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Return (residual, coeffs) with v = residual + sum coeffs[i]*original_i.

        The residual vanishes on every pivot column.
        """
        F = self.field
        residual = list(v)
        coeffs = {}
        for row, piv, hist in zip(self.rows, self.pivots, self.history):
            c = residual[piv]
            if c == F.zero:
                continue
            for k in range(piv, self.m):
                if row[k] != F.zero:
                    residual[k] = F.sub(residual[k], F.mul(c, row[k]))
                    self.field_ops += 2
            for idx, h in hist.items():
                add = F.mul(c, h)
                self.field_ops += 1
                cur = coeffs.get(idx)
                coeffs[idx] = add if cur is None else F.add(cur, add)
        coeffs = {k: x for k, x in coeffs.items() if x != F.zero}
        return residual, coeffs

    def insert(self, residual, coeffs):
        """Add original v as a new row, given (residual, coeffs) = reduce(v).

        The residual must be nonzero; v gets the next insertion index.
        """
        F = self.field
        piv = next((k for k, x in enumerate(residual) if x != F.zero), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        idx = len(self.rows)
        inv = F.inv(residual[piv])
        self.field_ops += 1
        self.rows.append([F.mul(inv, x) for x in residual])
        self.field_ops += self.m
        # residual = v - sum coeffs[i]*original_i, scaled by inv
        hist = {i: F.neg(F.mul(inv, c)) for i, c in coeffs.items()}
        self.field_ops += len(coeffs)
        hist[idx] = inv
        self.pivots.append(piv)
        self.history.append(hist)
        return idx
