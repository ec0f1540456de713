"""Monomials, admissible term orders and their order vectors.

A monomial is a plain tuple of non-negative exponents.  An order is given
either as a standard kind (lex / deglex / degrevlex, with an explicit
variable permutation) or as an invertible integer matrix whose columns have
positive leading entries.  Either way the order is held as its integer
matrix, checked for admissibility when the ``OrderSpec`` is built; a
monomial's order vector is the matrix times its exponents, and comparing
monomials is lexicographic comparison of order vectors.  This module owns
their arithmetic, the candidate loop's included (``children``).
"""

from __future__ import annotations

from operator import add

from ._record import FrozenRecord
from .deltamerge import compare_from
from .fields import QQ
from .linalg import EchelonAccumulator

STANDARD_KINDS = ("lex", "deglex", "degrevlex")


class OrderError(Exception):
    pass


class SingularMatrix(OrderError):
    pass


class NonAdmissibleColumn(OrderError):
    pass


# ---------------------------------------------------------------------------
# monomial helpers

def monomial_mul_var(m, i: int):
    """Multiply by the variable x_i (1-based)."""
    return m[: i - 1] + (m[i - 1] + 1,) + m[i:]


# ---------------------------------------------------------------------------
# order specifications

def _standard_rows(n, kind, perm):
    """The integer matrix of a standard kind; perm = (i_1, ..., i_n)."""

    def unit(i, sign=1):
        return tuple(sign if j == i else 0 for j in range(1, n + 1))

    if kind == "lex":
        return tuple(unit(i) for i in perm)
    ones = (tuple([1] * n),) if n else ()
    if kind == "deglex":
        return ones + tuple(unit(i) for i in perm[:-1])
    return ones + tuple(unit(i, -1) for i in reversed(perm[1:]))


def _ints(entries, where):
    """entries as a tuple; the first that is not an int (a bool, a float, a str) is an OrderError."""
    entries = tuple(entries)
    for pos, x in enumerate(entries, start=1):
        if type(x) is not int:
            raise OrderError(f"{where} {pos} is {x!r}, not an int")
    return entries


class OrderSpec(FrozenRecord):
    """An admissible order on n variables, held as its integer matrix.

    Built from a standard kind and a permutation, or from a matrix; either
    way it is checked here, so every ``OrderSpec`` is admissible.  A value:
    equality and hash go by (n, kind, perm, matrix); ``columns``, the
    transposed matrix, is derived from them.
    """

    _fields = ("n", "kind", "perm", "matrix")
    __slots__ = _fields + ("columns",)

    def __init__(self, n: int, kind: str, perm: tuple = None, matrix: tuple = None):
        # kind: "lex" | "deglex" | "degrevlex" | "matrix"
        # perm: (i_1,...,i_n) with x_{i_1} > ... > x_{i_n}; matrix: n rows of n ints
        if type(n) is not int or n < 0:
            raise OrderError(f"n is {n!r}, not a non-negative int")
        if kind in STANDARD_KINDS:
            perm = _ints(perm if perm is not None else range(1, n + 1), "perm entry")
            if sorted(perm) != list(range(1, n + 1)):
                raise OrderError(f"perm {perm} is not a permutation of 1..{n}")
            mat = _standard_rows(n, kind, perm)
        elif kind == "matrix":
            mat = tuple(_ints(row, f"matrix row {i}, entry") for i, row in enumerate(matrix or (), start=1))
            if len(mat) != n or any(len(row) != n for row in mat):
                raise OrderError(
                    f"order matrix must be {n}x{n}, got row lengths {list(map(len, mat))}"
                )
            for j in range(n):
                lead = next((mat[i][j] for i in range(n) if mat[i][j] != 0), None)
                if lead is None:
                    raise SingularMatrix(f"column {j + 1} is zero")
                if lead < 0:
                    raise NonAdmissibleColumn(f"column {j + 1} has a negative leading entry")
            if len(_independent_rows(mat, n)) != n:
                raise SingularMatrix("order matrix is singular over Q")
        else:
            raise OrderError(f"unknown order kind {kind!r}")
        self.n, self.kind, self.perm, self.matrix = n, kind, perm, mat
        self.columns = tuple(zip(*mat))

    def __str__(self):
        if self.kind in STANDARD_KINDS:
            return f"{self.kind}:{','.join(map(str, self.perm))}"
        return "matrix:" + ";".join(",".join(map(str, row)) for row in self.matrix)


def lex(n, perm=None):
    return OrderSpec(n, "lex", perm)


def deglex(n, perm=None):
    return OrderSpec(n, "deglex", perm)


def degrevlex(n, perm=None):
    return OrderSpec(n, "degrevlex", perm)


def matrix_order(rows):
    rows = tuple(tuple(row) for row in rows)
    return OrderSpec(len(rows), "matrix", matrix=rows)


def standard_matrix(kind: str, n: int):
    """The integer matrix representing a standard order with identity perm."""
    return OrderSpec(n, kind).matrix


def _independent_rows(rows, width):
    """The rows, in order, that are independent over QQ of the rows before them."""
    acc = EchelonAccumulator(width, QQ)
    kept = []
    for row in rows:
        residual, coords = acc.reduce(acc.vector(row))
        if residual:
            acc.insert(residual, coords)
            kept.append(tuple(row))
    return kept


# ---------------------------------------------------------------------------
# order vectors

def order_vector(spec: OrderSpec, exps) -> tuple:
    """The matrix times exps: e_i times column i, summed over the support."""
    if len(exps) != spec.n:
        raise OrderError(f"arity mismatch: {len(exps)} != {spec.n}")
    ov = [0] * spec.n
    for col, e in zip(spec.columns, exps):
        if e:
            ov = [x + e * c for x, c in zip(ov, col)]
    return tuple(ov)


def varord(spec: OrderSpec) -> tuple:
    """(i_1,...,i_n) with x_{i_1} > ... > x_{i_n}: the columns, largest first."""
    return tuple(
        sorted(range(1, spec.n + 1), key=lambda j: spec.columns[j - 1], reverse=True)
    )


def children(spec: OrderSpec):
    """(variables, deltas, cost, make) for the children x_i*t of any t.

    The variables come smallest first, so the children ascend in that
    order.  x_i*t and x_j*t differ where columns i and j differ, so the
    memo deltas of consecutive children, and the entries ``compare_from``
    reads to find them, are the same for every t.  ``make(ov)`` lists the
    children's order vectors, given the order vector ov of t.
    """
    variables = tuple(reversed(varord(spec)))
    cols = [spec.columns[i - 1] for i in variables]
    found = [compare_from(u, w, 1, spec.n) for u, w in zip(cols, cols[1:])]

    def make(ov):
        return [tuple(map(add, ov, col)) for col in cols]

    return variables, [d for d, _s, _c in found], sum(c for _d, _s, c in found), make


def restrict(spec: OrderSpec, ess) -> OrderSpec:
    """Restrict the order to the variables in ess (sorted descending by spec).

    The restricted order lives on len(ess) fresh variables y_1 > ... > y_k
    corresponding to the listed x's.
    """
    ess = tuple(ess)
    k = len(ess)
    if spec.kind in STANDARD_KINDS:
        return OrderSpec(k, spec.kind)
    # keep the chosen columns, then drop rows dependent on earlier ones: such a
    # row is zero on a difference of monomials that the rows before it are
    rows = [[spec.matrix[i][j - 1] for j in ess] for i in range(spec.n)]
    return matrix_order(_independent_rows(rows, k))
