"""Functional systems beyond point evaluation.

A functional system supplies the image of 1 and an incremental rule turning
the cached image of a monomial t into the image of x_i*t.  The candidate loop
``algorithm1`` and ``PointEvaluationSystem``, which recovers the
vanishing-ideal algorithm, live in ``bm``.  This module adds the action of
commuting multiplication matrices, which recovers term-order conversion from
precomputed quotient-ring data.
"""

from __future__ import annotations


class InconsistentSystem(ValueError):
    pass


class MatrixActionSystem:
    """Psi(x_i * t) = M_i * Psi(t) for pairwise commuting square matrices."""

    def __init__(self, field, psi1, matrices):
        self.field = field
        self.m = len(psi1)
        self.arity = len(matrices)
        self._psi1 = list(psi1)
        self.field_ops = 0
        self.matrices = [
            [list(row) for row in mat] for mat in matrices
        ]
        for mat in self.matrices:
            if len(mat) != self.m or any(len(row) != self.m for row in mat):
                raise InconsistentSystem("matrices must be m x m")
        self._check_commuting()

    def _check_commuting(self):
        F = self.field
        for a in range(self.arity):
            for b in range(a + 1, self.arity):
                if self._matmul(a, b) != self._matmul(b, a):
                    raise InconsistentSystem(
                        f"matrices {a + 1} and {b + 1} do not commute"
                    )

    def _matmul(self, a, b):
        F = self.field
        A, B = self.matrices[a], self.matrices[b]
        m = self.m
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = F.zero
                for k in range(m):
                    acc = F.add(acc, F.mul(A[i][k], B[k][j]))
                row.append(acc)
            out.append(row)
        return out

    def psi_one(self):
        return list(self._psi1)

    def step(self, cached, i):
        F = self.field
        M = self.matrices[i - 1]
        self.field_ops += 2 * self.m * self.m
        return [
            sum_field(F, (F.mul(a, x) for a, x in zip(row, cached)))
            for row in M
        ]


def sum_field(F, values):
    acc = F.zero
    for v in values:
        acc = F.add(acc, v)
    return acc
