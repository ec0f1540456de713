"""Test oracles: naive reference implementations and seeded generators.

Tests and the selftest command import these names from here; the CLI
needs only the merge oracle, ``oracles.naive_merge``, and never loads this
module.

Everything here is deliberately simple; the tests compare it with the
optimized paths, and selftest uses only ``naive_deltas`` and
``random_point_set``.  The divisibility oracle and
``stepwise_locate`` (the memo walk one comparison call per step) share no
code with the library.  ``abbott_basis`` shares no elimination code with
``bm`` and builds each G element from its own coordinates over B, sorted
by ``Polynomial.from_dict``: it eliminates on
``ListRows`` below, lists of field elements reduced by its own
``sub_scaled``, for every field, while ``bm`` eliminates on the
integer stores of ``linalg`` (packed rows over GF(p), rows over one common
denominator over QQ).  Comparing the two therefore checks both the
candidate bookkeeping (the memoized duplicate-preserving list against
explicit divisibility filtering) and the library's elimination arithmetic
and G construction, over either field.  ``evaluate`` computes each power
with ``pow``, sharing nothing with ``PointSet.evaluate``'s parent chains.
``lex_basis`` finds a lex B by the lex game, with no elimination at all.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from fractions import Fraction
from math import prod

from . import orders
from .bm import GroebnerResult, PointSet, RunStats
from .fields import PrimeField, RationalField
from .linalg import InsertZero
from .poly import Polynomial


class ListRows:
    """Semi-echelon rows as lists of field elements, over any field.

    Each row, and each history over the insertion indices, is a list of
    field elements; reducing by a row is one ``sub_scaled`` pass, and a new
    row is scaled by ``inverse``: its own arithmetic on field elements.  It
    keeps the same rows and counts the same ``field_ops`` as the stores of
    ``linalg``, and returns, as lists of field elements, the residuals and
    coordinates they return in their own formats.
    """

    def __init__(self, m, field):
        self.m = m
        self.field = field
        self.p = getattr(field, "p", None)  # None over QQ
        # per row: (pivot, row, history over insertion indices 0..its own, reduce ops)
        self._rows = []

    def sub_scaled(self, ys, c, xs):
        """[y - c*x for y, x in zip(ys, xs)] in the field: mod p, or exact over QQ."""
        p = self.p
        if p is None:
            return [y - c * x if x else y for y, x in zip(ys, xs)]
        return [(y - c * x) % p for y, x in zip(ys, xs)]

    def inverse(self, x):
        """1/x in the field: a residue mod p, or an exact Fraction over QQ."""
        return 1 / Fraction(x) if self.p is None else pow(x, -1, self.p)

    def reduce(self, v):
        """(residual, coeffs, field ops) with v = residual + sum coeffs[i]*original_i."""
        F = self.field
        residual = list(v)
        coeffs = [F.zero] * len(self._rows)
        ops = 0
        for piv, row, hist, row_ops in self._rows:
            c = residual[piv]
            if c == F.zero:
                continue
            residual[piv:] = self.sub_scaled(residual[piv:], c, row[piv:])
            coeffs[: len(hist)] = self.sub_scaled(coeffs[: len(hist)], -c, hist)
            ops += row_ops
        return residual, {i: x for i, x in enumerate(coeffs) if x != F.zero}, ops

    def insert(self, residual, coeffs):
        """Add a row for (residual, coeffs) = reduce(v); returns its field ops."""
        F = self.field
        piv = next((k for k, x in enumerate(residual) if x != F.zero), None)
        if piv is None:
            raise InsertZero("cannot insert the zero vector")
        inv = self.inverse(residual[piv])
        row = [F.canonical(inv * x) for x in residual]
        # residual = v - sum coeffs[i]*original_i, scaled by inv
        hist = [F.zero] * len(self._rows) + [inv]
        for i, c in coeffs.items():
            hist[i] = F.canonical(-inv * c)
        row_ops = 2 * sum(1 for x in row if x != F.zero) + len(coeffs) + 1
        self._rows.append((piv, row, hist, row_ops))
        return 1 + self.m + len(coeffs)


def evaluate(f, field, point):
    """The polynomial f at point, each power by ``pow``, no monomial by another."""
    p = getattr(field, "p", None)  # None over QQ: pow(x, e, None) is x**e
    terms = [c * prod(pow(x, e, p) for x, e in zip(point, m)) for c, m in f.terms]
    return field.canonical(sum(terms))


def naive_deltas(items):
    """Recompute the first-difference sequence from scratch."""
    out = []
    for u, v in zip(items, items[1:]):
        n = len(u)
        d = next((j + 1 for j in range(n) if u[j] != v[j]), n + 1)
        out.append(d)
    return out


def _compare_from(u, v, k, n):
    """(first 1-based difference from k or n+1, sign of u vs v, entries read)."""
    cost = 0
    for j in range(k - 1, n):
        cost += 1
        if u[j] != v[j]:
            return (j + 1, (-1 if u[j] < v[j] else 1), cost)
    return (n + 1, 0, cost)


def stepwise_locate(items, deltas, b, n, start=0, hint=1, before_equal=True):
    """``deltamerge.locate`` one memo per step, one comparison call per step.

    Same contract and 5-tuple (pos, delta_left, delta_right, elem, dcmps):
    the first comparison starts at ``hint``, every step reads one memo
    (dcmps), and an equal memo resumes the entrywise comparison at that
    index (elem counts the entries read).
    """
    t = len(items)
    if start >= t:
        return (start, None, None, 0, 0)
    d, sign, elem = _compare_from(items[start], b, hint, n)
    dcmps = 0
    if sign > 0 or (sign == 0 and before_equal):
        return (start, None, d, elem, dcmps)
    dab = d  # delta(items[i], b); n+1 encodes items[i] == b (after-equal mode)
    i = start
    while True:
        if i == t - 1:
            return (t, dab, None, elem, dcmps)
        dnext = deltas[i]
        dcmps += 1
        if dnext == n + 1:  # items[i+1] == items[i]: carry delta forward
            i += 1
            continue
        if dab > dnext:  # b precedes items[i+1]
            return (i + 1, dab, dnext, elem, dcmps)
        if dab < dnext:  # items[i+1] still precedes b, same delta
            i += 1
            continue
        d2, sign2, cost = _compare_from(b, items[i + 1], dab, n)
        elem += cost
        if sign2 < 0:
            return (i + 1, dab, d2, elem, dcmps)
        if sign2 == 0:
            if before_equal:
                return (i + 1, dab, n + 1, elem, dcmps)
            dab = n + 1
        else:
            dab = d2
        i += 1


def naive_divisibility_filter(t, L_monomials, ini_G) -> bool:
    """True iff t is a multiple of something in L or of a leading monomial."""
    return any(all(a <= b for a, b in zip(d, t)) for d in [*L_monomials, *ini_G])


def abbott_basis(points: PointSet, spec) -> GroebnerResult:
    """B and G with candidates filtered at insertion time (Abbott et al.).

    The candidate list holds no duplicates: a new candidate x_i*t is dropped
    when a listed candidate or a found leading monomial divides it.  The
    result's stats are left at zero.
    """
    if spec.n != points.n:
        raise orders.OrderError("order arity differs from point arity")
    fld = points.field
    n, m = points.n, points.m
    acc = ListRows(m, fld)
    vars_increasing = tuple(reversed(orders.varord(spec)))

    one = (0,) * n
    # (order vector, exps, parent index in B or None, multiplied variable),
    # kept sorted by order vector
    L = [(orders.order_vector(spec, one), one, None, None)]
    B, B_evals, G, ini_G = [], [], [], []
    while L:
        _ov, t_exps, parent, var = L.pop(0)
        if parent is None:
            v = [fld.one] * m
        else:
            col = [p[var - 1] for p in points.points]
            v = [fld.canonical(a * b) for a, b in zip(B_evals[parent], col)]
        residual, coeffs, _ops = acc.reduce(v)
        if all(x == fld.zero for x in residual):
            terms = {B[i]: fld.canonical(-c) for i, c in coeffs.items()} | {t_exps: fld.one}
            g = Polynomial.from_dict(terms, spec, fld)
            G.append(g)
            ini_G.append(g.leading_monomial)
            continue
        acc.insert(residual, coeffs)
        b_index = len(B)
        B.append(t_exps)
        B_evals.append(v)
        for i in vars_increasing:
            cand = orders.monomial_mul_var(t_exps, i)
            if naive_divisibility_filter(cand, [e[1] for e in L], ini_G):
                continue
            entry = (orders.order_vector(spec, cand), cand, b_index, i)
            bisect.insort(L, entry, key=lambda e: e[0])
    return GroebnerResult(G=G, B=B, stats=RunStats(), spec=spec, field=fld)


def lex_basis(points: PointSet, spec) -> list:
    """The lex B of ``points``, ascending, by the lex game: no linear algebra.

    Group the points by the coordinate of the smallest variable x_s and take
    each group's B in the larger variables; then a*x_s^k is in B exactly
    when k is below the number of groups whose B holds a (Cerlienco and
    Mureddu, Discrete Math. 139, 1995; Felszeghy, Ráth and Rónyai, *The lex
    game and some applications*, J. Symbolic Comput. 41, 2006).
    """
    if spec.kind != "lex" or spec.n != points.n:
        raise orders.OrderError(f"lex_basis needs a lex order on {points.n} variables, not {spec}")

    def game(pts, variables):  # 0-based coordinates, largest variable first
        if not variables:  # the points are distinct: one is left
            return [(0,) * points.n]
        s, groups = variables[-1], {}
        for p in pts:
            groups.setdefault(p[s], []).append(p)
        held = Counter(a for group in groups.values() for a in game(group, variables[:-1]))
        return [a[:s] + (k,) + a[s + 1 :] for a, count in held.items() for k in range(count)]

    B = game(points.points, [i - 1 for i in spec.perm])
    return sorted(B, key=lambda b: orders.order_vector(spec, b))


def random_point_set(rng: random.Random, field, n, m) -> PointSet:
    """Distinct random points; rejection-samples collisions away."""
    pts = set()
    while len(pts) < m:
        if isinstance(field, PrimeField):
            p = tuple(rng.randrange(field.p) for _ in range(n))
        else:
            p = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)
            )
        pts.add(p)
    return PointSet(field=field, n=n, points=tuple(sorted(pts)))


def random_matrix_order(rng: random.Random, n, max_entry=5):
    """A random admissible integer-matrix order."""
    while True:
        rows = [
            [rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(n)
        ]
        for j in range(n):
            lead = next((rows[i][j] for i in range(n) if rows[i][j] != 0), None)
            if lead is None:
                break
            if lead < 0:
                for i in range(n):
                    rows[i][j] = -rows[i][j]
        else:
            try:
                return orders.matrix_order(rows)
            except orders.OrderError:
                continue


def random_field(rng: random.Random):
    return PrimeField(32003) if rng.random() < 0.5 else RationalField()


def random_monomial(rng: random.Random, n, max_deg=30):
    deg = rng.randint(0, max_deg)
    exps = [0] * n
    for _ in range(deg):
        exps[rng.randrange(n)] += 1
    return tuple(exps)
