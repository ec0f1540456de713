"""Naive reference implementations and seeded generators.

Everything here is deliberately simple; property tests and the selftest
command compare it with the optimized paths.  The merge and divisibility
oracles share no code with the library.  ``abbott_basis`` shares polynomial
construction with ``bm`` (``bm._make_poly``, which reads a G element off the
coordinates over B).  It eliminates on ``linalg.ListRows``, the
field-generic list rows, for every field, while ``bm`` eliminates GF(p)
vectors on the packed rows; so over GF(p) comparing the two checks both the
candidate bookkeeping (the memoized duplicate-preserving list against
explicit divisibility filtering) and the packed arithmetic, and over QQ the
bookkeeping alone.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction

from . import orders
from .bm import GroebnerResult, PointSet, RunStats, _make_poly
from .fields import PrimeField, RationalField
from .linalg import ListRows


def tuple_cmp_cost(u, v):
    """(sign, cost) of a plain entrywise comparison: cost counts entries read."""
    n = len(u)
    for j in range(n):
        if u[j] != v[j]:
            return ((-1 if u[j] < v[j] else 1), j + 1)
    return (0, n)


def naive_merge(a_items, b_items):
    """Classical two-pointer merge; b-items go first on ties.

    Returns (items, cost) with cost the total number of tuple entries
    inspected across all comparisons.
    """
    out = []
    cost = 0
    i = j = 0
    while i < len(a_items) and j < len(b_items):
        sign, c = tuple_cmp_cost(b_items[j], a_items[i])
        cost += c
        if sign <= 0:
            out.append(b_items[j])
            j += 1
        else:
            out.append(a_items[i])
            i += 1
    out.extend(a_items[i:])
    out.extend(b_items[j:])
    return out, cost


def naive_deltas(items):
    """Recompute the first-difference sequence from scratch."""
    out = []
    for u, v in zip(items, items[1:]):
        n = len(u)
        d = next((j + 1 for j in range(n) if u[j] != v[j]), n + 1)
        out.append(d)
    return out


def naive_divisibility_filter(t, L_monomials, ini_G) -> bool:
    """True iff t is a multiple of something in L or of a leading monomial."""
    return any(orders.monomial_divides(l, t) for l in L_monomials) or any(
        orders.monomial_divides(g, t) for g in ini_G
    )


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
            col = points.coordinate_column(var)
            v = [fld.mul(a, b) for a, b in zip(B_evals[parent], col)]
        residual, coeffs, _ops = acc.reduce(v)
        if all(x == fld.zero for x in residual):
            g = _make_poly(t_exps, coeffs, B, fld)
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


def membership_by_evaluation(f, points: PointSet) -> bool:
    """f lies in the vanishing ideal iff it vanishes on every point."""
    fld = points.field
    return all(f.evaluate(fld, p) == fld.zero for p in points.points)


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
