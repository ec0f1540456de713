"""Essential-variable detection, point projection and result lifting.

A variable is essential when its evaluation vector is independent of the
all-ones vector and the smaller variables already kept.  Non-essential
variables come with an affine relation over strictly smaller essential
variables; the quotient structure lives entirely in the essential
coordinates, so the base algorithm can run in the projected ring and the
result is lifted back by reindexing plus one substitution per dropped
variable.
"""

from __future__ import annotations

import time

from . import orders
from ._record import Record
from .bm import GroebnerResult, PointSet, RunStats, bm
from .linalg import EchelonAccumulator
from .poly import Polynomial, combine


class EssentialSet(Record):
    """The essential variables and the affine relation of each dropped one."""

    __slots__ = _fields = ("ess", "relations")

    def __init__(self, ess: tuple, relations: dict):
        self.ess = ess  # essential variable indices, descending in the order
        self.relations = relations  # var index -> (constant, {essential var index: coeff})


def essential_variables(points: PointSet, spec) -> EssentialSet:
    """Scan variables small to large, keeping those outside the running span."""
    if spec.n != points.n:
        raise orders.OrderError(
            f"order has {spec.n} variables, the points have {points.n}"
        )
    fld = points.field
    acc = EchelonAccumulator(points.m, fld)
    one, *columns = points.generators(acc)
    # raw id of each inserted vector: 0 for all-ones, else the variable index
    raw_ids = [0]
    acc.insert(*acc.reduce(one))
    ess = []
    relations = {}
    for i in reversed(orders.varord(spec)):
        residual, coords = acc.reduce(columns[i - 1])
        if residual:
            acc.insert(residual, coords)
            raw_ids.append(i)
            ess.append(i)
        else:
            flat = {raw_ids[l]: c for l, c in acc.coordinates(coords).items()}
            const = flat.pop(0, fld.zero)
            relations[i] = (const, flat)
    ess_desc = tuple(reversed(ess))
    return EssentialSet(ess=ess_desc, relations=relations)


def project(points: PointSet, es: EssentialSet) -> PointSet:
    """Keep the essential coordinates, largest variable first."""
    projected = tuple(tuple(p[i - 1] for i in es.ess) for p in points.points)
    return PointSet(field=points.field, n=len(es.ess), points=projected)


def _embed(exps_sub, es: EssentialSet, n: int):
    out = [0] * n
    for e, i in zip(exps_sub, es.ess):
        out[i - 1] = e
    return tuple(out)


def lift(sub: GroebnerResult, es: EssentialSet, spec) -> GroebnerResult:
    """Lift a projected-ring result of ``bm`` back to the full ring.

    The embedding keeps B's order, so each element of ``sub.G`` keeps its
    tail indices and coefficients, the same lists, over the lifted B; only
    its lead is embedded; one held as terms (a parsed sub-result) is first
    indexed against ``sub.B`` by ``Polynomial.held_on``.  A dropped variable
    with relation x_k = c0 + sum c_j*x_j contributes x_k - c0 - sum
    c_j*NF(x_j), built by ``combine`` and held as terms: NF(x_j) is x_j
    itself when x_j is in B and otherwise minus the tail of the element of G
    led by x_j (a degree-1 monomial outside B is a corner).  Every tail
    monomial of the lifted G is the same tuple object as its entry of the
    lifted B.
    """
    fld = sub.field
    n = spec.n
    B = [_embed(b, es, n) for b in sub.B]
    index = {b: k for k, b in enumerate(sub.B)}
    held = [g.held_on(sub.B, index) for g in sub.G]
    G = [Polynomial.on_basis((g.lead[0], _embed(g.lead[1], es, n)), g.at, g.coeffs, B) for g in held]
    # each monomial of B, mapped to its tuple in B
    in_B = {b: b for b in B}
    one = in_B[(0,) * n]
    by_lead = {g.leading_monomial: g for g in G}
    for k in sorted(es.relations):
        const, tail = es.relations[k]
        parts = [
            (fld.one, Polynomial.monomial(orders.monomial_mul_var(one, k), fld)),
            (fld.canonical(-const), Polynomial.monomial(one, fld)),
        ]
        for j, c in tail.items():
            x_j = orders.monomial_mul_var(one, j)
            if x_j in in_B:
                parts.append((fld.canonical(-c), Polynomial.monomial(in_B[x_j], fld)))
            else:
                g = by_lead[x_j]
                tail_j = zip(reversed(g.coeffs), map(B.__getitem__, reversed(g.at)))
                parts.append((c, Polynomial(tail_j)))
        G.append(combine(parts, spec, fld))
    G.sort(key=lambda g: orders.order_vector(spec, g.leading_monomial))
    stats = RunStats(**sub.stats.to_dict())
    return GroebnerResult(G=G, B=B, stats=stats, spec=spec, field=fld)


def bm_projected(points: PointSet, spec) -> GroebnerResult:
    """Essential-variable pipeline around the base algorithm.

    The scan always runs; the points are projected when it drops a variable.
    ``n_essential`` is the scan's count (n when none drops) and ``wall_time``
    covers the whole call: scan, projection, sub-run and lift.
    """
    t0 = time.perf_counter()
    es = essential_variables(points, spec)
    if len(es.ess) == points.n:
        result = bm(points, spec)
    else:
        sub_points = project(points, es)
        sub_spec = orders.restrict(spec, es.ess)
        result = lift(bm(sub_points, sub_spec), es, spec)
    result.stats.n_essential = len(es.ess)
    result.stats.wall_time = time.perf_counter() - t0
    return result
