"""Monomials, admissible term orders and their order vectors.

A monomial is a plain tuple of non-negative exponents.  An order is either a
standard kind (lex / deglex / degrevlex, with an explicit variable
permutation) or an invertible integer matrix whose columns have positive
leading entries.  Either way a monomial maps to an integer order vector and
comparing monomials is lexicographic comparison of order vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from pathlib import Path

from .fields import QQ
from .linalg import EchelonAccumulator

DEGREE_CAP = 2**31 - 1

STANDARD_KINDS = ("lex", "deglex", "degrevlex")


class OrderError(Exception):
    pass


class SingularMatrix(OrderError):
    pass


class NonAdmissibleColumn(OrderError):
    pass


class DegreeOverflow(OverflowError):
    pass


# ---------------------------------------------------------------------------
# monomial helpers

def support_size(exps) -> int:
    return sum(1 for e in exps if e > 0)


def monomial_divides(d, m) -> bool:
    return all(a <= b for a, b in zip(d, m))


def monomial_mul(a, b):
    out = tuple(x + y for x, y in zip(a, b))
    if sum(out) > DEGREE_CAP:
        raise DegreeOverflow("total degree exceeds 2**31-1")
    return out


def monomial_mul_var(m, i: int):
    """Multiply by the variable x_i (1-based)."""
    if sum(m) + 1 > DEGREE_CAP:
        raise DegreeOverflow("total degree exceeds 2**31-1")
    return m[: i - 1] + (m[i - 1] + 1,) + m[i:]


def numbits(a: int) -> int:
    """Number of bits to store a signed integer: 2 for 0, floor(log2|a|)+2 else."""
    if a == 0:
        return 2
    return abs(a).bit_length() + 1


# ---------------------------------------------------------------------------
# order specifications

@dataclass(frozen=True)
class OrderSpec:
    n: int
    kind: str  # "lex" | "deglex" | "degrevlex" | "matrix"
    perm: tuple = None  # var_perm (i_1,...,i_n): x_{i_1} > ... > x_{i_n}
    matrix: tuple = None  # n rows of n ints

    def __post_init__(self):
        if self.kind in STANDARD_KINDS:
            perm = self.perm if self.perm is not None else tuple(range(1, self.n + 1))
            object.__setattr__(self, "perm", tuple(perm))
        elif self.kind == "matrix":
            object.__setattr__(
                self, "matrix", tuple(tuple(int(x) for x in row) for row in self.matrix)
            )
        else:
            raise OrderError(f"unknown order kind {self.kind!r}")

    def __str__(self):
        if self.kind in STANDARD_KINDS:
            return f"{self.kind}:{','.join(map(str, self.perm))}"
        return "matrix:" + ";".join(",".join(map(str, row)) for row in self.matrix)


def lex(n, perm=None):
    return validate_order(OrderSpec(n, "lex", perm))


def deglex(n, perm=None):
    return validate_order(OrderSpec(n, "deglex", perm))


def degrevlex(n, perm=None):
    return validate_order(OrderSpec(n, "degrevlex", perm))


def matrix_order(rows):
    rows = tuple(tuple(row) for row in rows)
    return validate_order(OrderSpec(len(rows), "matrix", matrix=rows))


def standard_matrix(kind: str, n: int):
    """The integer matrix representing a standard order with identity perm."""
    if kind == "lex":
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    if kind == "deglex":
        rows = [tuple([1] * n)]
        rows += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n - 1)]
        return tuple(rows)
    if kind == "degrevlex":
        rows = [tuple([1] * n)]
        rows += [
            tuple(-1 if j == n - 1 - i else 0 for j in range(n)) for i in range(n - 1)
        ]
        return tuple(rows)
    raise OrderError(f"no matrix form for kind {kind!r}")


def _independent_residuals(rows, width):
    """Residuals over QQ of each row against the earlier rows; nonzero ones only."""
    acc = EchelonAccumulator(width, QQ)
    kept = []
    for row in rows:
        residual, coeffs = acc.reduce([QQ.from_int(x) for x in row])
        if any(x != QQ.zero for x in residual):
            acc.insert(residual, coeffs)
            kept.append(residual)
    return kept


def validate_order(spec: OrderSpec) -> OrderSpec:
    """Check admissibility; returns the spec or raises."""
    n = spec.n
    if spec.kind in STANDARD_KINDS:
        if sorted(spec.perm) != list(range(1, n + 1)):
            raise OrderError(f"perm {spec.perm} is not a permutation of 1..{n}")
        return spec
    mat = spec.matrix
    if len(mat) != n or any(len(row) != n for row in mat):
        raise OrderError("matrix must be square of size n")
    for j in range(n):
        lead = next((mat[i][j] for i in range(n) if mat[i][j] != 0), None)
        if lead is None:
            raise SingularMatrix(f"column {j + 1} is zero")
        if lead < 0:
            raise NonAdmissibleColumn(f"column {j + 1} has a negative leading entry")
    if len(_independent_residuals(mat, n)) != n:
        raise SingularMatrix("order matrix is singular over Q")
    return spec


def parse_order(text: str, n: int) -> OrderSpec:
    """Parse the textual order grammar: lex[:i1,i2,...] etc, matrix:<path>."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind in STANDARD_KINDS:
        perm = None
        if rest.strip():
            perm = tuple(int(x) for x in rest.split(","))
        return validate_order(OrderSpec(n, kind, perm))
    if kind == "matrix":
        path = Path(rest.strip())
        rows = []
        for ln, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if line:
                try:
                    rows.append(tuple(int(x) for x in line.split()))
                except ValueError as exc:
                    # deferred: fileio imports this module through bm
                    from .fileio import ParseError

                    raise ParseError(f"{path}: line {ln}: {exc}") from exc
        return matrix_order(rows)
    raise OrderError(f"cannot parse order spec {text!r}")


# ---------------------------------------------------------------------------
# order vectors

def order_vector(spec: OrderSpec, exps) -> tuple:
    if len(exps) != spec.n:
        raise OrderError(f"arity mismatch: {len(exps)} != {spec.n}")
    n = spec.n
    if spec.kind == "lex":
        return tuple(exps[i - 1] for i in spec.perm)
    if spec.kind == "deglex":
        return (sum(exps),) + tuple(exps[i - 1] for i in spec.perm[: n - 1])
    if spec.kind == "degrevlex":
        return (sum(exps),) + tuple(-exps[i - 1] for i in reversed(spec.perm[1:]))
    return tuple(sum(a * e for a, e in zip(row, exps)) for row in spec.matrix)


def order_vector_step(spec: OrderSpec, ov: tuple, i: int) -> tuple:
    """Order vector of x_i * m given the order vector of m.

    For the standard kinds at most two entries change; for a matrix order the
    i'th column of the matrix is added.
    """
    n = spec.n
    if spec.kind == "matrix":
        return tuple(v + row[i - 1] for v, row in zip(ov, spec.matrix))
    out = list(ov)
    if spec.kind == "lex":
        out[spec.perm.index(i)] += 1
    elif spec.kind == "deglex":
        out[0] += 1
        pos = spec.perm.index(i)
        if pos < n - 1:
            out[pos + 1] += 1
    else:  # degrevlex: entries (deg, -a_{i_n}, ..., -a_{i_2})
        out[0] += 1
        pos = spec.perm.index(i)  # i = i_{pos+1}
        if pos > 0:
            out[n - pos] -= 1
    if out[0] > DEGREE_CAP:
        raise DegreeOverflow("total degree exceeds 2**31-1")
    return tuple(out)


def varord(spec: OrderSpec) -> tuple:
    """(i_1,...,i_n) with x_{i_1} > ... > x_{i_n}."""
    if spec.kind in STANDARD_KINDS:
        return spec.perm
    n = spec.n
    cols = {j: tuple(spec.matrix[i][j - 1] for i in range(n)) for j in range(1, n + 1)}
    return tuple(sorted(cols, key=cols.get, reverse=True))


def restrict(spec: OrderSpec, ess) -> OrderSpec:
    """Restrict the order to the variables in ess (sorted descending by spec).

    The restricted order lives on len(ess) fresh variables y_1 > ... > y_k
    corresponding to the listed x's.
    """
    ess = tuple(ess)
    k = len(ess)
    if spec.kind in STANDARD_KINDS:
        return OrderSpec(k, spec.kind)
    # keep the chosen columns, then drop rows dependent on earlier ones
    rows = [[spec.matrix[i][j - 1] for j in ess] for i in range(spec.n)]
    kept = _independent_residuals(rows, k)
    out = []
    for row in kept:
        mult = lcm(*(f.denominator for f in row))
        ints = [int(f * mult) for f in row]
        g = gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        out.append(tuple(ints))
    return matrix_order(out)
