"""Incremental exact row reduction with provenance bookkeeping.

The accumulator keeps a matrix in reduced echelon form.  Every row also
carries the coefficients that express it over the *originally inserted*
vectors, so reducing a new vector yields, for free, its coordinates with
respect to those originals -- which is exactly what turns an evaluation
vector back into a polynomial combination.
"""

from __future__ import annotations


class InsertZero(ValueError):
    pass


class EchelonAccumulator:
    def __init__(self, m, field):
        self.m = m
        self.field = field
        self.rows = []  # reduced echelon rows, pivot entry 1
        self.pivots = []  # pivot column of each row, strictly increasing
        self.history = []  # row -> coeffs over originally inserted vectors
        self.n_inserted = 0
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

    def insert(self, residual):
        """Add a fully reduced, nonzero vector as a new original row."""
        F = self.field
        piv = next((k for k, x in enumerate(residual) if x != F.zero), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        idx = self.n_inserted
        self.n_inserted += 1
        inv = F.inv(residual[piv])
        self.field_ops += 1
        row = [F.mul(inv, x) for x in residual]
        self.field_ops += self.m
        hist = {idx: inv}
        # clear the new pivot column in the rows above
        for r in range(len(self.rows)):
            c = self.rows[r][piv]
            if c == F.zero:
                continue
            old = self.rows[r]
            self.rows[r] = [F.sub(a, F.mul(c, b)) for a, b in zip(old, row)]
            self.field_ops += 2 * self.m
            oh = self.history[r]
            for k, h in hist.items():
                sub = F.mul(c, h)
                self.field_ops += 1
                cur = oh.get(k, F.zero)
                oh[k] = F.sub(cur, sub)
            self.history[r] = {k: x for k, x in oh.items() if x != F.zero}
        at = next((r for r, p in enumerate(self.pivots) if p > piv), len(self.rows))
        self.rows.insert(at, row)
        self.pivots.insert(at, piv)
        self.history.insert(at, hist)
        return idx
